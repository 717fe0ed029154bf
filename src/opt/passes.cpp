#include "opt/passes.h"

#include <cstring>
#include <map>
#include <tuple>

#include "opt/semantics.h"

namespace asicpp::opt {

namespace {

bool commutative(sfg::Op op) {
  using sfg::Op;
  // Exact on the double domain: + and * of doubles commute, the bitwise
  // ops commute on the integer interpretation, eq/ne are symmetric.
  // kSub / compares / shifts / mux are ordered; kLt vs kGt is a *different*
  // operator, not a commutation.
  return op == Op::kAdd || op == Op::kMul || op == Op::kAnd ||
         op == Op::kOr || op == Op::kXor || op == Op::kEq || op == Op::kNe;
}

bool is_const(const LoweredSfg& l, std::int32_t s, double v) {
  const LIns& i = l.ins[static_cast<std::size_t>(s)];
  return i.op == sfg::Op::kConst && i.cval == v;
}

bool is_any_const(const LoweredSfg& l, std::int32_t s) {
  return s >= 0 && l.ins[static_cast<std::size_t>(s)].op == sfg::Op::kConst;
}

double cval_of(const LoweredSfg& l, std::int32_t s) {
  return l.ins[static_cast<std::size_t>(s)].cval;
}

/// Rewrite every operand / output / assignment slot through `repl`
/// (chasing chains). repl[i] == i means "unchanged". Returns the number of
/// references actually rewritten: redirected instructions linger in l.ins
/// until DCE, so passes must report effective changes, not re-discoveries
/// of the same stale duplicate — otherwise the fixpoint loop never
/// converges and the per-pass counters inflate by the round count.
int apply_redirects(LoweredSfg& l, std::vector<std::int32_t>& repl) {
  const auto chase = [&](std::int32_t s) {
    while (s >= 0 && repl[static_cast<std::size_t>(s)] != s)
      s = repl[static_cast<std::size_t>(s)];
    return s;
  };
  int changed = 0;
  const auto rewrite = [&](std::int32_t& s) {
    const std::int32_t t = chase(s);
    if (t != s) {
      s = t;
      ++changed;
    }
  };
  for (LIns& i : l.ins) {
    if (i.is_leaf()) continue;
    rewrite(i.a);
    rewrite(i.b);
    rewrite(i.c);
  }
  for (auto& o : l.outputs) rewrite(o.slot);
  for (auto& a : l.assigns) rewrite(a.slot);
  return changed;
}

void make_const(LIns& i, double v, bool keep_fmt) {
  i.op = sfg::Op::kConst;
  i.a = i.b = i.c = -1;
  i.cval = v;
  i.origin = nullptr;  // no source node; rebuild materializes a fresh one
  if (!keep_fmt) {
    i.fmt = fixpt::Format{};
    i.has_fmt = false;
  }
}

}  // namespace

int canonicalize(LoweredSfg& l) {
  int swaps = 0;
  for (LIns& i : l.ins) {
    if (i.is_leaf() || !commutative(i.op)) continue;
    if (i.a > i.b) {
      std::swap(i.a, i.b);
      ++swaps;
    }
  }
  return swaps;
}

int fold_constants(LoweredSfg& l) {
  int folded = 0;
  std::vector<std::int32_t> repl(l.ins.size());
  for (std::size_t s = 0; s < repl.size(); ++s)
    repl[s] = static_cast<std::int32_t>(s);
  bool redirected = false;

  for (std::size_t s = 0; s < l.ins.size(); ++s) {
    LIns& i = l.ins[s];
    if (i.is_leaf()) continue;
    if (i.op == sfg::Op::kMux) {
      // Constant selector: the mux *is* the chosen arm.
      if (is_any_const(l, i.a)) {
        repl[s] = cval_of(l, i.a) != 0.0 ? i.b : i.c;
        redirected = true;
      }
      continue;
    }
    const int arity = sfg::op_arity(i.op);
    bool all_const = is_any_const(l, i.a);
    if (arity >= 2) all_const = all_const && is_any_const(l, i.b);
    if (!all_const) continue;
    const double v = apply_op_value(i.op, cval_of(l, i.a),
                                    arity >= 2 ? cval_of(l, i.b) : 0.0, 0.0,
                                    i.fmt);
    // A folded cast keeps its declared format so width inference still
    // sees the quantization boundary.
    make_const(i, v, /*keep_fmt=*/i.op == sfg::Op::kCast);
    ++folded;
  }
  if (redirected) folded += apply_redirects(l, repl);
  return folded;
}

int simplify_identities(LoweredSfg& l) {
  using sfg::Op;
  int hits = 0;
  std::vector<std::int32_t> repl(l.ins.size());
  for (std::size_t s = 0; s < repl.size(); ++s)
    repl[s] = static_cast<std::int32_t>(s);
  bool redirected = false;
  const auto redirect = [&](std::size_t from, std::int32_t to) {
    repl[from] = to;
    redirected = true;
  };

  for (std::size_t s = 0; s < l.ins.size(); ++s) {
    LIns& i = l.ins[s];
    switch (i.op) {
      case Op::kAdd:
        if (is_const(l, i.a, 0.0)) redirect(s, i.b);
        else if (is_const(l, i.b, 0.0)) redirect(s, i.a);
        break;
      case Op::kSub:
        if (is_const(l, i.b, 0.0)) redirect(s, i.a);
        break;
      case Op::kMul:
        if (is_const(l, i.a, 1.0)) redirect(s, i.b);
        else if (is_const(l, i.b, 1.0)) redirect(s, i.a);
        else if (is_const(l, i.a, 0.0) || is_const(l, i.b, 0.0)) {
          make_const(i, 0.0, false);
          ++hits;
        }
        break;
      case Op::kShl:
      case Op::kShr:
        if (is_const(l, i.b, 0.0)) redirect(s, i.a);
        break;
      case Op::kNeg: {
        const LIns& arg = l.ins[static_cast<std::size_t>(i.a)];
        if (arg.op == Op::kNeg) redirect(s, arg.a);
        break;
      }
      case Op::kMux:
        if (i.b == i.c) redirect(s, i.b);
        break;
      default:
        break;
    }
  }
  if (redirected) hits += apply_redirects(l, repl);
  return hits;
}

int cse(LoweredSfg& l) {
  // Structural key: operator, operand slots, identity for leaves, the bit
  // pattern for constants, and the format when declared (a cast to a
  // different format is a different computation).
  using Key = std::tuple<int, std::int32_t, std::int32_t, std::int32_t,
                         const void*, long long, int, int, int>;
  const auto key_of = [](const LIns& i) {
    long long bits = 0;
    if (i.op == sfg::Op::kConst)
      std::memcpy(&bits, &i.cval, sizeof bits);
    const void* origin =
        (i.op == sfg::Op::kInput || i.op == sfg::Op::kReg)
            ? static_cast<const void*>(i.origin.get())
            : nullptr;
    int wl = 0, iwl = 0, flags = 0;
    if (i.has_fmt) {
      wl = i.fmt.wl;
      iwl = i.fmt.iwl;
      flags = (i.fmt.is_signed ? 1 : 0) |
              (i.fmt.quant == fixpt::Quant::kRound ? 2 : 0) |
              (i.fmt.ovf == fixpt::Overflow::kWrap ? 4 : 0) | 8;
    }
    return Key{static_cast<int>(i.op), i.a, i.b, i.c, origin, bits, wl, iwl,
               flags};
  };

  int merged = 0;
  std::vector<std::int32_t> repl(l.ins.size());
  for (std::size_t s = 0; s < repl.size(); ++s)
    repl[s] = static_cast<std::int32_t>(s);
  std::map<Key, std::int32_t> seen;
  bool redirected = false;
  for (std::size_t s = 0; s < l.ins.size(); ++s) {
    const auto [it, fresh] =
        seen.emplace(key_of(l.ins[s]), static_cast<std::int32_t>(s));
    if (!fresh) {
      repl[s] = it->second;
      redirected = true;
    }
  }
  if (redirected) merged = apply_redirects(l, repl);
  return merged;
}

int dce(LoweredSfg& l) {
  std::vector<char> live(l.ins.size(), 0);
  std::vector<std::int32_t> work;
  for (const auto& o : l.outputs)
    if (o.slot >= 0) work.push_back(o.slot);
  for (const auto& a : l.assigns)
    if (a.slot >= 0) work.push_back(a.slot);
  while (!work.empty()) {
    const std::int32_t s = work.back();
    work.pop_back();
    if (live[static_cast<std::size_t>(s)]) continue;
    live[static_cast<std::size_t>(s)] = 1;
    const LIns& i = l.ins[static_cast<std::size_t>(s)];
    for (const std::int32_t a : {i.a, i.b, i.c})
      if (a >= 0) work.push_back(a);
  }

  std::vector<std::int32_t> renum(l.ins.size(), -1);
  std::vector<LIns> kept;
  kept.reserve(l.ins.size());
  for (std::size_t s = 0; s < l.ins.size(); ++s) {
    if (!live[s]) continue;
    renum[s] = static_cast<std::int32_t>(kept.size());
    kept.push_back(std::move(l.ins[s]));
  }
  const int removed = static_cast<int>(l.ins.size() - kept.size());
  if (removed == 0) {
    l.ins = std::move(kept);
    return 0;
  }
  for (LIns& i : kept) {
    if (i.a >= 0) i.a = renum[static_cast<std::size_t>(i.a)];
    if (i.b >= 0) i.b = renum[static_cast<std::size_t>(i.b)];
    if (i.c >= 0) i.c = renum[static_cast<std::size_t>(i.c)];
  }
  l.ins = std::move(kept);
  for (auto& o : l.outputs)
    if (o.slot >= 0) o.slot = renum[static_cast<std::size_t>(o.slot)];
  for (auto& a : l.assigns)
    if (a.slot >= 0) a.slot = renum[static_cast<std::size_t>(a.slot)];
  l.recompute_pre();
  return removed;
}

PassStats run_passes(LoweredSfg& l, const PassOptions& opts) {
  PassStats st;
  st.instrs_before = static_cast<int>(l.ins.size());
  for (int round = 0; round < 64; ++round) {
    int changes = 0;
    if (opts.canonicalize) {
      const int n = canonicalize(l);
      st.canonicalized += n;
      changes += n;
    }
    if (opts.fold) {
      const int n = fold_constants(l);
      st.folded += n;
      changes += n;
    }
    if (opts.identities) {
      const int n = simplify_identities(l);
      st.simplified += n;
      changes += n;
    }
    if (opts.cse) {
      const int n = cse(l);
      st.cse_hits += n;
      changes += n;
    }
    if (changes == 0) break;
  }
  if (opts.dce) st.dead = dce(l);
  l.recompute_pre();
  l.resolve_casts();
  st.instrs_after = static_cast<int>(l.ins.size());
  l.stats = st;
  return st;
}

}  // namespace asicpp::opt
