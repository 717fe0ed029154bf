#include "batch/batch.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ckpt/snapshot.h"
#include "opt/semantics.h"

namespace asicpp::batch {

using Img = sim::CompiledSystem;

namespace {

// fixpt::quantize with the Format-derived constants hoisted out of the lane
// loop. fixpt::quantize recomputes its scale and clamp bounds from the Format
// on every call, which dominates cast/commit-heavy tapes; here they are
// computed once per instruction. Scaling by an exact power of two and the
// identical round/floor + clamp sequence keeps every lane bit-identical to
// the scalar path (clamping an in-range mantissa is a no-op, and min/max
// propagate NaN exactly like the original range test). The two's-complement
// wrap case keeps the library call — it needs fmod and is rare in practice.
struct QuantSpec {
  double scale, inv_scale, hi, lo;
  bool round, saturate;
  explicit QuantSpec(const fixpt::Format& f)
      : scale(std::ldexp(1.0, f.frac_bits())),
        inv_scale(std::ldexp(1.0, -f.frac_bits())),
        hi(std::ldexp(f.max_value(), f.frac_bits())),
        lo(std::ldexp(f.min_value(), f.frac_bits())),
        round(f.quant == fixpt::Quant::kRound),
        saturate(f.ovf == fixpt::Overflow::kSaturate) {}
};

inline double quantize_one(double v, const QuantSpec& q,
                           const fixpt::Format& fmt) {
  if (!q.saturate) return fixpt::quantize(v, fmt);
  double m = q.round ? std::round(v * q.scale) : std::floor(v * q.scale);
  m = std::min(std::max(m, q.lo), q.hi);
  return m * q.inv_scale;
}

void quantize_lanes(double* d, const double* a, unsigned L,
                    const fixpt::Format& fmt) {
  const QuantSpec q(fmt);
  if (!q.saturate) {
    for (unsigned l = 0; l < L; ++l) d[l] = fixpt::quantize(a[l], fmt);
    return;
  }
  if (q.round) {
    for (unsigned l = 0; l < L; ++l) {
      double m = std::round(a[l] * q.scale);
      m = std::min(std::max(m, q.lo), q.hi);
      d[l] = m * q.inv_scale;
    }
  } else {
    for (unsigned l = 0; l < L; ++l) {
      double m = std::floor(a[l] * q.scale);
      m = std::min(std::max(m, q.lo), q.hi);
      d[l] = m * q.inv_scale;
    }
  }
}

}  // namespace

BatchedSystem BatchedSystem::compile(const sched::CycleScheduler& sched,
                                     unsigned lanes,
                                     const opt::PassOptions& passes) {
  return BatchedSystem(Img::compile(sched, passes), lanes);
}

BatchedSystem::BatchedSystem(Img img, unsigned lanes)
    : img_(std::move(img)), lanes_(lanes) {
  if (lanes_ == 0)
    throw std::invalid_argument("BatchedSystem: lane count must be >= 1");
  const unsigned L = lanes_;
  // Broadcast the image's compile-time state into every lane: compilation
  // snapshots the current register/FSM state, and all lanes start there.
  slots_.resize(img_.slots_.size() * L);
  for (std::size_t s = 0; s < img_.slots_.size(); ++s) {
    for (unsigned l = 0; l < L; ++l) slots_[s * L + l] = img_.slots_[s];
  }
  net_token_.assign(img_.net_token_.size() * L, 0);
  fired_.assign(img_.comps_.size() * L, 0);
  pending_.assign(img_.comps_.size() * L, -1);
  selected_.assign(img_.comps_.size() * L, -1);
  state_.resize(img_.comps_.size() * L);
  for (std::size_t c = 0; c < img_.comps_.size(); ++c) {
    for (unsigned l = 0; l < L; ++l) state_[c * L + l] = img_.comps_[c].state;
  }
  refresh_vals_.resize(img_.refresh_.size() * L);
  for (std::size_t r = 0; r < img_.refresh_.size(); ++r) {
    const double v = img_.refresh_[r].node->value.value();
    for (unsigned l = 0; l < L; ++l) refresh_vals_[r * L + l] = v;
  }
  all_lanes_.resize(L);
  for (unsigned l = 0; l < L; ++l) all_lanes_[l] = l;
  group_.reserve(L);
  ready_.reserve(L);
  grouped_.assign(L, 0);
}

// ---------------------------------------------------------------------------
// Tape execution: the SoA kernel. Each instruction runs over the full lane
// vector — contiguous loads/stores, no per-lane branching — which is what
// makes the batch auto-vectorizable. The hot operators get dedicated loops;
// the rest share the one semantics definition in opt/apply_op_value.

void BatchedSystem::exec_lanes(const sim::Tape& tape) {
  const unsigned L = lanes_;
  for (const sim::Instr& i : tape) {
    double* d = lane_base(i.dst);
    const double* a = lane_base(i.a);
    if (i.op == sfg::Op::kCount) {  // plain / quantized copy
      if (i.quant) {
        quantize_lanes(d, a, L, i.fmt);
      } else {
        for (unsigned l = 0; l < L; ++l) d[l] = a[l];
      }
      continue;
    }
    const double* b = i.b >= 0 ? lane_base(i.b) : nullptr;
    const double* c = i.c >= 0 ? lane_base(i.c) : nullptr;
    switch (i.op) {
      case sfg::Op::kAdd:
        for (unsigned l = 0; l < L; ++l) d[l] = a[l] + b[l];
        break;
      case sfg::Op::kSub:
        for (unsigned l = 0; l < L; ++l) d[l] = a[l] - b[l];
        break;
      case sfg::Op::kMul:
        for (unsigned l = 0; l < L; ++l) d[l] = a[l] * b[l];
        break;
      case sfg::Op::kNeg:
        for (unsigned l = 0; l < L; ++l) d[l] = -a[l];
        break;
      case sfg::Op::kMux:
        for (unsigned l = 0; l < L; ++l) d[l] = a[l] != 0.0 ? b[l] : c[l];
        break;
      case sfg::Op::kCast:
        quantize_lanes(d, a, L, i.fmt);
        break;
      default:
        for (unsigned l = 0; l < L; ++l) {
          d[l] = opt::apply_op_value(i.op, a[l], b != nullptr ? b[l] : 0.0,
                                     c != nullptr ? c[l] : 0.0, i.fmt);
        }
        break;
    }
  }
  ops_ += tape.size() * L;
}

bool BatchedSystem::lane_has_tokens(const Img::SfgCode& s, unsigned lane) const {
  for (const auto n : s.required_nets) {
    if (!tok_base(n)[lane]) return false;
  }
  return true;
}

void BatchedSystem::push_masked(const std::vector<Img::SfgCode::Push>& pushes,
                                const std::vector<unsigned>& group) {
  const unsigned L = lanes_;
  for (const auto& p : pushes) {
    double* net = net_base(p.net);
    const double* src = lane_base(p.src);
    std::uint8_t* tok = tok_base(p.net);
    if (group.size() == L) {
      for (unsigned l = 0; l < L; ++l) {
        net[l] = src[l];
        tok[l] = 1;
      }
    } else {
      for (const unsigned l : group) {
        net[l] = src[l];
        tok[l] = 1;
      }
    }
  }
}

void BatchedSystem::run_sfg_pre_lanes(std::int32_t id,
                                      const std::vector<unsigned>& group) {
  const Img::SfgCode& s = img_.sfgs_[static_cast<std::size_t>(id)];
  // The pre tape writes only this SFG's private scratch, so it can run
  // full-lane; only the net pushes carry the group mask.
  exec_lanes(s.pre);
  push_masked(s.pre_pushes, group);
}

void BatchedSystem::run_sfg_main_lanes(std::int32_t id,
                                       const std::vector<unsigned>& group) {
  const Img::SfgCode& s = img_.sfgs_[static_cast<std::size_t>(id)];
  exec_lanes(s.load_inputs);
  exec_lanes(s.main);
  push_masked(s.main_pushes, group);
}

void BatchedSystem::commit_lanes(std::int32_t id,
                                 const std::vector<unsigned>& group) {
  const unsigned L = lanes_;
  for (const auto& cm : img_.sfgs_[static_cast<std::size_t>(id)].commits) {
    double* dst = lane_base(cm.dst);
    const double* src = lane_base(cm.src);
    if (group.size() == L) {
      if (cm.has_fmt) {
        quantize_lanes(dst, src, L, cm.fmt);
      } else {
        for (unsigned l = 0; l < L; ++l) dst[l] = src[l];
      }
    } else if (cm.has_fmt) {
      const QuantSpec q(cm.fmt);
      for (const unsigned l : group) dst[l] = quantize_one(src[l], q, cm.fmt);
    } else {
      for (const unsigned l : group) dst[l] = src[l];
    }
  }
}

// ---------------------------------------------------------------------------
// Per-lane firing state

bool BatchedSystem::lane_done(std::int32_t ci, unsigned lane) const {
  const std::size_t base = static_cast<std::size_t>(ci) * lanes_ + lane;
  if (img_.comps_[static_cast<std::size_t>(ci)].kind == Kind::kFsm)
    return fired_[base] != 0 || pending_[base] < 0;
  return fired_[base] != 0;
}

bool BatchedSystem::lane_blocked(std::int32_t ci, unsigned lane) const {
  const std::size_t base = static_cast<std::size_t>(ci) * lanes_ + lane;
  switch (img_.comps_[static_cast<std::size_t>(ci)].kind) {
    case Kind::kFsm: return pending_[base] >= 0 && fired_[base] == 0;
    case Kind::kUntimed: return false;  // opportunistic
    default: return fired_[base] == 0;
  }
}

bool BatchedSystem::comp_done(std::int32_t ci) const {
  for (unsigned l = 0; l < lanes_; ++l) {
    if (!lane_done(ci, l)) return false;
  }
  return true;
}

bool BatchedSystem::any_blocked() const {
  for (std::size_t ci = 0; ci < img_.comps_.size(); ++ci) {
    for (unsigned l = 0; l < lanes_; ++l) {
      if (lane_blocked(static_cast<std::int32_t>(ci), l)) return true;
    }
  }
  return false;
}

// Attempt to fire component `ci` in every lane that is ready. Lanes are
// grouped by their selection (FSM transition / dispatch opcode) so each
// distinct tape set executes once, with the group as the push/commit mask.
bool BatchedSystem::fire_lanes(std::int32_t ci) {
  const Img::Comp& c = img_.comps_[static_cast<std::size_t>(ci)];
  const unsigned L = lanes_;
  const std::size_t base = static_cast<std::size_t>(ci) * L;
  std::uint8_t* fired = fired_.data() + base;
  bool progress = false;

  switch (c.kind) {
    case Kind::kFsm: {
      ready_.clear();
      for (unsigned l = 0; l < L; ++l) {
        if (fired[l] != 0 || pending_[base + l] < 0) continue;
        const auto& gt = c.by_state[static_cast<std::size_t>(state_[base + l])]
                             [static_cast<std::size_t>(pending_[base + l])];
        bool ok = true;
        for (const auto id : gt.sfgs) {
          if (!lane_has_tokens(img_.sfgs_[static_cast<std::size_t>(id)], l)) {
            ok = false;
            break;
          }
        }
        if (ok) ready_.push_back(l);
      }
      // Group the ready lanes by (state, transition): each group shares one
      // tape set.
      std::fill(grouped_.begin(), grouped_.end(), 0);
      for (std::size_t i = 0; i < ready_.size(); ++i) {
        const unsigned l0 = ready_[i];
        if (grouped_[l0] != 0) continue;
        group_.clear();
        for (std::size_t j = i; j < ready_.size(); ++j) {
          const unsigned l = ready_[j];
          if (state_[base + l] == state_[base + l0] &&
              pending_[base + l] == pending_[base + l0]) {
            group_.push_back(l);
            grouped_[l] = 1;
          }
        }
        const auto& gt = c.by_state[static_cast<std::size_t>(state_[base + l0])]
                             [static_cast<std::size_t>(pending_[base + l0])];
        for (const auto id : gt.sfgs) run_sfg_main_lanes(id, group_);
        for (const unsigned l : group_) fired[l] = 1;
        fired_lanes_total_ += group_.size();
        progress = true;
      }
      return progress;
    }
    case Kind::kSfg: {
      ready_.clear();
      const Img::SfgCode& s = img_.sfgs_[static_cast<std::size_t>(c.solo_sfg)];
      for (unsigned l = 0; l < L; ++l) {
        if (fired[l] == 0 && lane_has_tokens(s, l)) ready_.push_back(l);
      }
      if (ready_.empty()) return false;
      run_sfg_main_lanes(c.solo_sfg, ready_);
      for (const unsigned l : ready_) fired[l] = 1;
      fired_lanes_total_ += ready_.size();
      return true;
    }
    case Kind::kDispatch: {
      // Decode: lanes whose instruction token arrived pick their SFG (per
      // lane — different lanes may run different opcodes) and the freshly
      // decoded lanes, grouped by selection, produce their pre tokens.
      ready_.clear();  // freshly decoded lanes
      const std::uint8_t* itok = tok_base(c.instr_net);
      const double* ival = net_base(c.instr_net);
      for (unsigned l = 0; l < L; ++l) {
        if (fired[l] != 0 || selected_[base + l] >= 0 || itok[l] == 0) continue;
        const long opcode = std::lround(ival[l]);
        const auto it = c.table.find(opcode);
        const std::int32_t sel =
            (it != c.table.end()) ? it->second : c.default_sfg;
        if (sel < 0) {
          throw std::logic_error("BatchedSystem '" + c.name +
                                 "': unknown opcode " + std::to_string(opcode) +
                                 " and no default (lane " + std::to_string(l) +
                                 ")");
        }
        selected_[base + l] = sel;
        ready_.push_back(l);
        progress = true;
      }
      std::fill(grouped_.begin(), grouped_.end(), 0);
      for (std::size_t i = 0; i < ready_.size(); ++i) {
        const unsigned l0 = ready_[i];
        if (grouped_[l0] != 0) continue;
        group_.clear();
        for (std::size_t j = i; j < ready_.size(); ++j) {
          const unsigned l = ready_[j];
          if (selected_[base + l] == selected_[base + l0]) {
            group_.push_back(l);
            grouped_[l] = 1;
          }
        }
        run_sfg_pre_lanes(selected_[base + l0], group_);
      }
      // Fire: decoded lanes whose selected SFG has all inputs.
      ready_.clear();
      for (unsigned l = 0; l < L; ++l) {
        if (fired[l] != 0 || selected_[base + l] < 0) continue;
        if (lane_has_tokens(
                img_.sfgs_[static_cast<std::size_t>(selected_[base + l])], l))
          ready_.push_back(l);
      }
      std::fill(grouped_.begin(), grouped_.end(), 0);
      for (std::size_t i = 0; i < ready_.size(); ++i) {
        const unsigned l0 = ready_[i];
        if (grouped_[l0] != 0) continue;
        group_.clear();
        for (std::size_t j = i; j < ready_.size(); ++j) {
          const unsigned l = ready_[j];
          if (selected_[base + l] == selected_[base + l0]) {
            group_.push_back(l);
            grouped_[l] = 1;
          }
        }
        run_sfg_main_lanes(selected_[base + l0], group_);
        for (const unsigned l : group_) fired[l] = 1;
        fired_lanes_total_ += group_.size();
        progress = true;
      }
      return progress;
    }
    case Kind::kUntimed: {
      // The closure is shared across lanes, so it runs once per ready lane
      // with that lane's inputs. Stateless closures only — see batch.h.
      bool any = false;
      for (unsigned l = 0; l < L; ++l) {
        if (fired[l] != 0) continue;
        bool ok = true;
        for (const auto n : c.in_nets) {
          if (!tok_base(n)[l]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        std::vector<fixpt::Fixed> in;
        in.reserve(c.in_nets.size());
        for (const auto n : c.in_nets) in.emplace_back(net_base(n)[l]);
        const auto out = c.untimed->invoke(in);
        if (out.size() != c.out_nets.size()) {
          throw std::logic_error("BatchedSystem '" + c.name +
                                 "': untimed arity mismatch");
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
          net_base(c.out_nets[i])[l] = out[i].value();
          tok_base(c.out_nets[i])[l] = 1;
        }
        fired[l] = 1;
        ++fired_lanes_total_;
        any = true;
      }
      return any;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// The four-phase cycle, lane-vectorized. Phase structure and semantics
// mirror sim::CompiledSystem::cycle exactly; see that function for the
// scalar reference.

void BatchedSystem::cycle() {
  const unsigned L = lanes_;

  // Net reset + external drives. External pins live on shared sched::Net
  // objects, so a pin drive broadcasts to every lane; per-lane stimulus
  // goes through poke(lane, ...).
  std::fill(net_token_.begin(), net_token_.end(), 0);
  for (std::size_t i = 0; i < img_.ext_nets_.size(); ++i) {
    auto* n = const_cast<sched::Net*>(img_.ext_nets_[i]);
    n->begin_cycle();
    if (n->has_token()) {
      const double v = n->token().value();
      double* s = lane_base(img_.ext_net_slots_[i]);
      std::uint8_t* t = net_token_.data() + i * L;
      for (unsigned l = 0; l < L; ++l) {
        s[l] = v;
        t[l] = 1;
      }
    }
  }
  for (std::size_t r = 0; r < img_.refresh_.size(); ++r) {
    double* s = lane_base(img_.refresh_[r].slot);
    const double* v = refresh_vals_.data() + r * L;
    for (unsigned l = 0; l < L; ++l) s[l] = v[l];
  }

  // Phase 0: transition selection. Guard tapes write only private scratch,
  // so every guard of every state occupied by some lane runs full-lane;
  // the per-lane selection then reads each lane's own guard slot.
  std::fill(fired_.begin(), fired_.end(), 0);
  std::fill(pending_.begin(), pending_.end(), -1);
  std::fill(selected_.begin(), selected_.end(), -1);
  for (std::size_t ci = 0; ci < img_.comps_.size(); ++ci) {
    const Img::Comp& c = img_.comps_[ci];
    if (c.kind != Kind::kFsm) continue;
    const std::size_t base = ci * L;
    std::fill(grouped_.begin(), grouped_.end(), 0);
    for (unsigned l = 0; l < L; ++l) {
      const auto st = static_cast<std::size_t>(state_[base + l]);
      if (grouped_[l] != 0) continue;
      for (unsigned m = l; m < L; ++m) {
        if (static_cast<std::size_t>(state_[base + m]) == st) grouped_[m] = 1;
      }
      for (const auto& gt : c.by_state[st]) {
        if (!gt.always) exec_lanes(gt.guard);
      }
    }
    for (unsigned l = 0; l < L; ++l) {
      const auto& ts = c.by_state[static_cast<std::size_t>(state_[base + l])];
      for (std::size_t ti = 0; ti < ts.size(); ++ti) {
        if (ts[ti].always || lane_base(ts[ti].guard_slot)[l] != 0.0) {
          pending_[base + l] = static_cast<std::int32_t>(ti);
          break;
        }
      }
    }
  }

  // Phase 1: token production, grouped by each lane's pending transition.
  for (std::size_t ci = 0; ci < img_.comps_.size(); ++ci) {
    const Img::Comp& c = img_.comps_[ci];
    const std::size_t base = ci * L;
    if (c.kind == Kind::kFsm) {
      std::fill(grouped_.begin(), grouped_.end(), 0);
      for (unsigned l = 0; l < L; ++l) {
        if (grouped_[l] != 0 || pending_[base + l] < 0) continue;
        group_.clear();
        for (unsigned m = l; m < L; ++m) {
          if (state_[base + m] == state_[base + l] &&
              pending_[base + m] == pending_[base + l]) {
            group_.push_back(m);
            grouped_[m] = 1;
          }
        }
        const auto& gt = c.by_state[static_cast<std::size_t>(state_[base + l])]
                             [static_cast<std::size_t>(pending_[base + l])];
        for (const auto id : gt.sfgs) run_sfg_pre_lanes(id, group_);
      }
    } else if (c.kind == Kind::kSfg) {
      run_sfg_pre_lanes(c.solo_sfg, all_lanes_);
    }
  }

  // Phase 2, levelized: one pass over the image's precomputed level order.
  bool need_iterative = true;
  bool walk_missed = false;
  if (mode_ != ScheduleMode::kIterative && img_.levelizable_) {
    for (const auto& s : img_.level_order_) {
      if (!comp_done(s.comp)) fire_lanes(s.comp);
    }
    need_iterative = any_blocked();
    walk_missed = need_iterative;
    if (!need_iterative) ++levelized_cycles_total_;
  }

  // Phase 2, iterative relaxation (also the fallback after a missed walk).
  if (need_iterative) {
    int iters = walk_missed ? 1 : 0;
    for (;;) {
      bool progress = false;
      bool all_done = true;
      for (std::size_t ci = 0; ci < img_.comps_.size(); ++ci) {
        const auto i = static_cast<std::int32_t>(ci);
        if (comp_done(i)) continue;
        if (fire_lanes(i)) progress = true;
        if (!comp_done(i)) all_done = false;
      }
      ++iters;
      if (iters > 1) ++retry_passes_total_;
      if (all_done) break;
      if (!progress || iters >= img_.max_iters_) {
        if (any_blocked()) {
          diag::Diagnostic d = deadlock_postmortem();
          diagnostics().report(d);
          throw sched::DeadlockError(std::move(d));
        }
        break;
      }
    }
  }

  // Phase 3: register update + state commit, masked to the fired lanes and
  // grouped by each lane's selection.
  for (std::size_t ci = 0; ci < img_.comps_.size(); ++ci) {
    const Img::Comp& c = img_.comps_[ci];
    const std::size_t base = ci * L;
    switch (c.kind) {
      case Kind::kFsm: {
        std::fill(grouped_.begin(), grouped_.end(), 0);
        for (unsigned l = 0; l < L; ++l) {
          if (grouped_[l] != 0 || fired_[base + l] == 0) continue;
          group_.clear();
          for (unsigned m = l; m < L; ++m) {
            if (fired_[base + m] != 0 && state_[base + m] == state_[base + l] &&
                pending_[base + m] == pending_[base + l]) {
              group_.push_back(m);
              grouped_[m] = 1;
            }
          }
          const auto& gt =
              c.by_state[static_cast<std::size_t>(state_[base + l])]
                        [static_cast<std::size_t>(pending_[base + l])];
          for (const auto id : gt.sfgs) commit_lanes(id, group_);
          for (const unsigned m : group_) state_[base + m] = gt.to;
        }
        break;
      }
      case Kind::kSfg: {
        group_.clear();
        for (unsigned l = 0; l < L; ++l) {
          if (fired_[base + l] != 0) group_.push_back(l);
        }
        if (!group_.empty()) commit_lanes(c.solo_sfg, group_);
        break;
      }
      case Kind::kDispatch: {
        std::fill(grouped_.begin(), grouped_.end(), 0);
        for (unsigned l = 0; l < L; ++l) {
          if (grouped_[l] != 0 || fired_[base + l] == 0) continue;
          group_.clear();
          for (unsigned m = l; m < L; ++m) {
            if (fired_[base + m] != 0 &&
                selected_[base + m] == selected_[base + l]) {
              group_.push_back(m);
              grouped_[m] = 1;
            }
          }
          commit_lanes(selected_[base + l], group_);
        }
        break;
      }
      case Kind::kUntimed:
        break;
    }
  }
  ++cycles_;
}

diag::Diagnostic BatchedSystem::deadlock_postmortem() const {
  diag::Diagnostic d;
  d.severity = diag::Severity::kFatal;
  d.code = "SCHED-001";
  d.component = "batched simulator";
  d.cycle = cycles_;

  std::string names;
  for (std::size_t ci = 0; ci < img_.comps_.size(); ++ci) {
    for (unsigned l = 0; l < lanes_; ++l) {
      if (!lane_blocked(static_cast<std::int32_t>(ci), l)) continue;
      const Img::Comp& c = img_.comps_[ci];
      names += (names.empty() ? "" : ", ") + c.name;
      std::string waits;
      const auto missing_of = [&](std::int32_t sfg_id) {
        for (const auto n :
             img_.sfgs_[static_cast<std::size_t>(sfg_id)].required_nets) {
          if (tok_base(n)[l] == 0)
            waits += (waits.empty() ? "" : ", ") + std::string("'") +
                     img_.net_names_[static_cast<std::size_t>(n)] + "'";
        }
      };
      const std::size_t base = ci * lanes_ + l;
      switch (c.kind) {
        case Kind::kFsm: {
          const auto& gt =
              c.by_state[static_cast<std::size_t>(state_[base])]
                        [static_cast<std::size_t>(pending_[base])];
          for (const auto id : gt.sfgs) missing_of(id);
          break;
        }
        case Kind::kSfg: missing_of(c.solo_sfg); break;
        case Kind::kDispatch:
          if (selected_[base] < 0) {
            if (tok_base(c.instr_net)[l] == 0)
              waits = "'" +
                      img_.net_names_[static_cast<std::size_t>(c.instr_net)] +
                      "'";
          } else {
            missing_of(selected_[base]);
          }
          break;
        case Kind::kUntimed: break;
      }
      d.note("component '" + c.name + "' (lane " + std::to_string(l) +
             ") waits on net" +
             (waits.empty() ? "s: (none — iteration bound too low?)"
                            : "(s): " + waits));
      break;  // one representative lane per component
    }
  }
  d.message = "combinational deadlock, unfired components: " + names;
  return d;
}

RunResult BatchedSystem::run(const RunOptions& opts) {
  struct Restore {
    BatchedSystem* s;
    diag::DiagEngine* diag;
    ScheduleMode mode;
    ~Restore() {
      s->diag_ = diag;
      s->mode_ = mode;
    }
  } restore{this, diag_, mode_};
  if (opts.diagnostics != nullptr) diag_ = opts.diagnostics;
  mode_ = opts.schedule;

  return run_cycles(
      opts, "batched simulator", diagnostics(), watchdog_tripped_,
      [&] {
        return CycleTotals{cycles_, fired_lanes_total_, retry_passes_total_,
                           levelized_cycles_total_};
      },
      [&] { cycle(); });
}

void BatchedSystem::reset() {
  const unsigned L = lanes_;
  for (const auto& ri : img_.reg_inits_) {
    double* s = lane_base(ri.slot);
    for (unsigned l = 0; l < L; ++l) s[l] = ri.init;
  }
  for (std::size_t ci = 0; ci < img_.comps_.size(); ++ci) {
    if (img_.comps_[ci].kind != Kind::kFsm) continue;
    for (unsigned l = 0; l < L; ++l) state_[ci * L + l] = img_.comps_[ci].initial;
  }
  cycles_ = 0;
}

double BatchedSystem::net_value(unsigned lane, const std::string& name) const {
  if (lane >= lanes_)
    throw std::out_of_range("BatchedSystem::net_value: lane out of range");
  const auto it = img_.net_ids_.find(name);
  if (it == img_.net_ids_.end())
    throw std::out_of_range("BatchedSystem::net_value: no net '" + name + "'");
  return lane_base(img_.net_slots_[static_cast<std::size_t>(it->second)])[lane];
}

double BatchedSystem::reg_value(unsigned lane, const std::string& name) const {
  if (lane >= lanes_)
    throw std::out_of_range("BatchedSystem::reg_value: lane out of range");
  const auto it = img_.reg_slots_.find(name);
  if (it == img_.reg_slots_.end())
    throw std::out_of_range("BatchedSystem::reg_value: no register '" + name +
                            "'");
  return lane_base(it->second)[lane];
}

void BatchedSystem::poke(unsigned lane, const std::string& input_name,
                         double v) {
  if (lane >= lanes_)
    throw std::out_of_range("BatchedSystem::poke: lane out of range");
  const auto it = img_.input_slots_.find(input_name);
  if (it == img_.input_slots_.end())
    throw std::out_of_range("BatchedSystem::poke: no input '" + input_name +
                            "'");
  lane_base(it->second)[lane] = v;
  // Update the per-lane refresh source so the poke persists across cycles
  // without touching the (shared) live node.
  for (std::size_t r = 0; r < img_.refresh_.size(); ++r) {
    if (img_.refresh_[r].slot == it->second) refresh_vals_[r * lanes_ + lane] = v;
  }
}

void BatchedSystem::poke_all(const std::string& input_name, double v) {
  for (unsigned l = 0; l < lanes_; ++l) poke(l, input_name, v);
}

// ---------------------------------------------------------------------------
// Per-lane checkpoint/restore

void BatchedSystem::save_lane(unsigned lane, std::ostream& os) const {
  if (lane >= lanes_)
    throw std::out_of_range("BatchedSystem::save_lane: lane out of range");
  const unsigned L = lanes_;
  ckpt::Writer w(os);
  w.header(ckpt::EngineKind::kBatched, img_.ir_hash_, cycles_);
  w.u32(lane);
  w.u32(static_cast<std::uint32_t>(img_.slots_.size()));
  for (std::size_t s = 0; s < img_.slots_.size(); ++s) w.f64(slots_[s * L + lane]);
  w.u32(static_cast<std::uint32_t>(img_.net_token_.size()));
  for (std::size_t n = 0; n < img_.net_token_.size(); ++n)
    w.u8(net_token_[n * L + lane]);
  w.u32(static_cast<std::uint32_t>(img_.comps_.size()));
  for (std::size_t ci = 0; ci < img_.comps_.size(); ++ci) {
    const Img::Comp& c = img_.comps_[ci];
    w.i32(c.kind == Kind::kFsm ? state_[ci * L + lane] : 0);
    w.u64(c.kind == Kind::kUntimed ? c.untimed->firings() : 0);
  }
  w.u32(static_cast<std::uint32_t>(img_.refresh_.size()));
  for (std::size_t r = 0; r < img_.refresh_.size(); ++r)
    w.f64(refresh_vals_[r * L + lane]);
  w.end();
}

void BatchedSystem::restore_lane_impl(unsigned lane, std::istream& is) {
  const unsigned L = lanes_;
  ckpt::Reader r(is, "batched simulator");
  const std::uint64_t cyc = r.header(ckpt::EngineKind::kBatched, img_.ir_hash_);
  const std::uint32_t snap_lane = r.u32();
  if (snap_lane != lane) {
    r.fail("CKPT-005", "lane binding mismatch",
           {"snapshot was saved from lane " + std::to_string(snap_lane) +
                ", restore targets lane " + std::to_string(lane),
            "a per-lane snapshot must restore into the same lane index"});
  }
  const std::size_t nslots = r.count(1u << 26);
  if (nslots != img_.slots_.size()) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"snapshot carries " + std::to_string(nslots) +
            " slot(s), this image has " + std::to_string(img_.slots_.size())});
  }
  for (std::size_t s = 0; s < nslots; ++s) slots_[s * L + lane] = r.f64();
  const std::size_t ntok = r.count(1u << 26);
  if (ntok != img_.net_token_.size()) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"snapshot carries " + std::to_string(ntok) +
            " net token flag(s), this image has " +
            std::to_string(img_.net_token_.size())});
  }
  for (std::size_t n = 0; n < ntok; ++n) net_token_[n * L + lane] = r.u8();
  const std::size_t ncomps = r.count(1u << 24);
  if (ncomps != img_.comps_.size()) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"snapshot carries " + std::to_string(ncomps) +
            " component(s), this image has " +
            std::to_string(img_.comps_.size())});
  }
  for (std::size_t ci = 0; ci < ncomps; ++ci) {
    const Img::Comp& c = img_.comps_[ci];
    const std::int32_t st = r.i32();
    const std::uint64_t firings = r.u64();
    if (c.kind == Kind::kFsm) {
      if (st < 0 || static_cast<std::size_t>(st) >= c.by_state.size()) {
        r.fail("CKPT-004", "truncated or corrupt snapshot stream",
               {"component '" + c.name + "': FSM state index " +
                std::to_string(st) + " out of range"});
      }
      state_[ci * L + lane] = st;
    } else if (c.kind == Kind::kUntimed) {
      // The firing counter lives on the shared UntimedComponent (see
      // sched/untimed.h); per-lane restore re-seeds the shared count.
      c.untimed->set_firings(static_cast<std::size_t>(firings));
    }
  }
  const std::size_t nref = r.count(1u << 24);
  if (nref != img_.refresh_.size()) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"snapshot carries " + std::to_string(nref) +
            " refresh value(s), this image has " +
            std::to_string(img_.refresh_.size())});
  }
  for (std::size_t i = 0; i < nref; ++i) refresh_vals_[i * L + lane] = r.f64();
  r.end();
  cycles_ = cyc;
}

void BatchedSystem::restore_lane(unsigned lane, std::istream& is) {
  if (lane >= lanes_)
    throw std::out_of_range("BatchedSystem::restore_lane: lane out of range");
  // Transactional: roll back to a pre-restore snapshot on any failure so a
  // bad stream leaves the lane untouched.
  std::ostringstream backup;
  save_lane(lane, backup);
  const std::uint64_t cyc = cycles_;
  try {
    restore_lane_impl(lane, is);
  } catch (...) {
    std::istringstream b(backup.str());
    restore_lane_impl(lane, b);
    cycles_ = cyc;
    throw;
  }
}

std::size_t BatchedSystem::footprint_bytes() const {
  return img_.footprint_bytes() + slots_.capacity() * sizeof(double) +
         net_token_.capacity() + fired_.capacity() +
         (pending_.capacity() + selected_.capacity() + state_.capacity()) *
             sizeof(std::int32_t) +
         refresh_vals_.capacity() * sizeof(double);
}

}  // namespace asicpp::batch
