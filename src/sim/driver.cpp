#include "sim/driver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ckpt/snapshot.h"
#include "opt/semantics.h"

namespace asicpp::sim {

using Kind = Image::Kind;

namespace {

// One resolved quantizer applied across the lane vector.
void quantize_lanes(double* d, const double* a, unsigned L, const fixpt::Quantizer& q) {
  for (unsigned l = 0; l < L; ++l) d[l] = q(a[l]);
}

// The SoA tape kernel: each instruction runs over the full lane vector —
// contiguous loads/stores, no per-lane branching — which is what makes a
// batch auto-vectorizable. The hot operators get dedicated loops; the rest
// share the one semantics definition in opt/apply_op_value.
void exec_lanes(const Tape& tape, double* slots, unsigned L,
                const fixpt::Quantizer* quantizers) {
  const auto at = [&](std::int32_t s) {
    return slots + static_cast<std::size_t>(s) * L;
  };
  for (const Instr& i : tape) {
    double* d = at(i.dst);
    const double* a = at(i.a);
    if (i.q >= 0) {  // kCast, or a quantized copy
      quantize_lanes(d, a, L, quantizers[i.q]);
      continue;
    }
    if (i.op == sfg::Op::kCount) {  // plain copy
      for (unsigned l = 0; l < L; ++l) d[l] = a[l];
      continue;
    }
    const double* b = i.b >= 0 ? at(i.b) : nullptr;
    const double* c = i.c >= 0 ? at(i.c) : nullptr;
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
      default:
        for (unsigned l = 0; l < L; ++l) {
          d[l] = opt::apply_op_value(i.op, a[l], b != nullptr ? b[l] : 0.0,
                                     c != nullptr ? c[l] : 0.0, i.fmt);
        }
        break;
    }
  }
}

// Grouping key of an FSM lane: its (state, pending transition) pair.
std::uint64_t fsm_key(int state, int pending) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(state)) << 32) |
         static_cast<std::uint32_t>(pending);
}

constexpr unsigned kLane0[1] = {0};

}  // namespace

template <unsigned W>
LaneDriver<W>::LaneDriver(std::shared_ptr<const Image> img, unsigned lanes,
                          const char* engine)
    : img_(std::move(img)),
      lanes_(W != kRuntimeLanes ? W : lanes),
      core_(engine) {
  if (lanes_ == 0)
    throw std::invalid_argument(std::string(engine) + ": lane count must be >= 1");
  const Image& m = *img_;
  core_.max_iters = m.max_iters;
  const unsigned L = lanes_;
  const auto broadcast = [L](std::vector<double>& to, const std::vector<double>& from) {
    to.resize(from.size() * L);
    for (std::size_t i = 0; i < from.size(); ++i)
      std::fill_n(to.begin() + static_cast<std::ptrdiff_t>(i * L), L, from[i]);
  };
  broadcast(slots_, m.init_slots);
  std::vector<double> refresh_init;
  for (const auto s : m.refresh) refresh_init.push_back(m.init_slots[static_cast<std::size_t>(s)]);
  broadcast(refresh_, refresh_init);
  tok_.assign(m.nets.size() * L, 0);
  const std::size_t nc = m.comps.size();
  state_.resize(nc * L);
  for (std::size_t c = 0; c < nc; ++c)
    std::fill_n(state_.begin() + static_cast<std::ptrdiff_t>(c * L), L, m.comps[c].start);
  fired_.assign(nc * L, 0);
  sel_.assign(nc * L, -1);
  pending_.assign(nc * L, -1);
  if constexpr (W != 1) {
    for (unsigned l = 0; l < L; ++l) lane_ids_.push_back(l);
    group_.reserve(L);
    keys_.assign(L, 0);
    taken_.assign(L, 0);
  }
}

// ---------------------------------------------------------------------------
// Lane groups

template <unsigned W>
typename LaneDriver<W>::Group LaneDriver<W>::all_lanes() const {
  if constexpr (W == 1) {
    return Group(kLane0);
  } else {
    return Group(lane_ids_);
  }
}

// Calls fn(group, key) once per group of lanes satisfying `pred`, lanes
// grouped by equal key(lane), groups in order of their first lane. At width
// 1 this is one call with no scratch; at runtime width the lock-step
// common case — every lane qualifies with one key — is one full-lane
// group.
template <unsigned W>
template <class Pred, class Key, class Fn>
void LaneDriver<W>::for_groups(Pred pred, Key key, Fn fn) {
  if constexpr (W == 1) {
    if (pred(0u)) fn(Group(kLane0), key(0u));
  } else {
    const unsigned L = lanes();
    unsigned n = 0;
    bool uniform = true;
    for (unsigned l = 0; l < L; ++l) {
      taken_[l] = pred(l) ? 0 : 1;
      if (taken_[l] != 0) continue;
      keys_[l] = key(l);
      uniform = uniform && keys_[l] == keys_[0];  // decides only when n == L
      ++n;
    }
    if (n == L && uniform) {
      fn(Group(lane_ids_), keys_[0]);
      return;
    }
    for (unsigned l0 = 0; l0 < L; ++l0) {
      if (taken_[l0] != 0) continue;
      group_.clear();
      for (unsigned l = l0; l < L; ++l) {
        if (taken_[l] == 0 && keys_[l] == keys_[l0]) {
          group_.push_back(l);
          taken_[l] = 1;
        }
      }
      fn(Group(group_), keys_[l0]);
    }
  }
}

// ---------------------------------------------------------------------------
// Tapes, pushes and commits

template <unsigned W>
void LaneDriver<W>::run_tape(const Tape& tape) {
  if constexpr (W == 1) {
    exec(tape, slots_.data(), img_->quantizers.data());
  } else {
    exec_lanes(tape, slots_.data(), lanes(), img_->quantizers.data());
  }
}

template <unsigned W>
void LaneDriver<W>::push(const std::vector<Image::SfgCode::Push>& pushes, Group g) {
  const unsigned L = lanes();
  for (const auto& p : pushes) {
    double* net = net_values(p.net);
    const double* src = lane_slots(p.src);
    std::uint8_t* tok = tokens(p.net);
    if (W == 1 || g.size() == L) {
      for (unsigned l = 0; l < L; ++l) {
        net[l] = src[l];
        tok[l] = 1;
      }
    } else {
      for (const unsigned l : g) {
        net[l] = src[l];
        tok[l] = 1;
      }
    }
  }
}

template <unsigned W>
void LaneDriver<W>::run_pre(std::int32_t id, Group g) {
  const Image::SfgCode& s = img_->sfgs[static_cast<std::size_t>(id)];
  run_tape(s.pre);
  ops_ += s.pre.size() * lanes();
  push(s.pre_pushes, g);
}

template <unsigned W>
void LaneDriver<W>::run_main(std::int32_t id, Group g) {
  const Image::SfgCode& s = img_->sfgs[static_cast<std::size_t>(id)];
  run_tape(s.load_inputs);
  run_tape(s.main);
  ops_ += (s.load_inputs.size() + s.main.size()) * lanes();
  push(s.main_pushes, g);
}

template <unsigned W>
void LaneDriver<W>::commit_sfg(std::int32_t id, Group g) {
  const unsigned L = lanes();
  const fixpt::Quantizer* quantizers = img_->quantizers.data();
  for (const auto& cm : img_->sfgs[static_cast<std::size_t>(id)].commits) {
    double* dst = lane_slots(cm.dst);
    const double* src = lane_slots(cm.src);
    if constexpr (W == 1) {
      dst[0] = cm.q >= 0 ? quantizers[cm.q](src[0]) : src[0];
    } else if (g.size() == L) {
      if (cm.q >= 0) quantize_lanes(dst, src, L, quantizers[cm.q]);
      else std::copy_n(src, L, dst);
    } else if (cm.q >= 0) {
      const fixpt::Quantizer& q = quantizers[cm.q];
      for (const unsigned l : g) dst[l] = q(src[l]);
    } else {
      for (const unsigned l : g) dst[l] = src[l];
    }
  }
}

// ---------------------------------------------------------------------------
// Per-lane firing state

template <unsigned W>
const Image::GuardedTransition& LaneDriver<W>::transition(const Comp& c, int state,
                                                         int pending) const {
  return c.by_state[static_cast<std::size_t>(state)][static_cast<std::size_t>(pending)];
}

template <unsigned W>
bool LaneDriver<W>::ready(std::int32_t sfg, unsigned lane) const {
  for (const auto n : img_->sfgs[static_cast<std::size_t>(sfg)].required_nets)
    if (tokens(n)[lane] == 0) return false;
  return true;
}

template <unsigned W>
bool LaneDriver<W>::done(std::size_t ci) const {
  const auto i = static_cast<std::int32_t>(ci);
  const int* fired = fired_.data() + idx(i);
  const bool fsm = img_->comps[ci].kind == Kind::kFsm;
  const int* pend = pending_.data() + idx(i);
  for (unsigned l = 0; l < lanes(); ++l)
    if (fired[l] == 0 && !(fsm && pend[l] < 0)) return false;
  return true;
}

// Untimed components are opportunistic: never blocked, only left unfired.
template <unsigned W>
bool LaneDriver<W>::blocked(std::size_t ci, unsigned lane) const {
  const std::size_t k = idx(static_cast<std::int32_t>(ci)) + lane;
  switch (img_->comps[ci].kind) {
    case Kind::kFsm: return pending_[k] >= 0 && fired_[k] == 0;
    case Kind::kUntimed: return false;
    default: return fired_[k] == 0;
  }
}

template <unsigned W>
void LaneDriver<W>::invoke_untimed(std::size_t ci, unsigned lane) {
  const Comp& c = img_->comps[ci];
  std::vector<fixpt::Fixed>& in = c.untimed->inputs();
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = net_values(c.in_nets[i])[lane];
  const std::vector<fixpt::Fixed>& out = c.untimed->invoke();
  for (std::size_t i = 0; i < out.size(); ++i) {
    net_values(c.out_nets[i])[lane] = out[i].value();
    tokens(c.out_nets[i])[lane] = 1;
  }
}

template <unsigned W>
void LaneDriver<W>::unknown_opcode(std::size_t ci, long long opcode,
                                   unsigned lane) const {
  throw std::logic_error(std::string(core_.origin) + " '" + img_->comps[ci].name +
                         "': unknown opcode " + std::to_string(opcode) +
                         " and no default" +
                         (lanes() > 1 ? " (lane " + std::to_string(lane) + ")" : ""));
}

// Fire component `ci` in every lane that is ready. Progress is a lane
// firing, or a dispatch lane decoding its instruction.
template <unsigned W>
sched::Fired LaneDriver<W>::fire(std::size_t ci) {
  const Comp& c = img_->comps[ci];
  const auto i = static_cast<std::int32_t>(ci);
  int* fired = fired_.data() + idx(i);
  sched::Fired f;
  const auto fired_group = [&](Group g) {
    for (const unsigned l : g) fired[l] = 1;
    f.firings += static_cast<int>(g.size());
    f.progress = true;
  };
  switch (c.kind) {
    case Kind::kFsm: {
      const int* st = state_.data() + idx(i);
      const int* pend = pending_.data() + idx(i);
      for_groups(
          [&](unsigned l) {
            if (fired[l] != 0 || pend[l] < 0) return false;
            for (const auto id : transition(c, st[l], pend[l]).sfgs)
              if (!ready(id, l)) return false;
            return true;
          },
          [&](unsigned l) { return fsm_key(st[l], pend[l]); },
          [&](Group g, std::uint64_t) {
            for (const auto id : transition(c, st[g[0]], pend[g[0]]).sfgs) run_main(id, g);
            fired_group(g);
          });
      break;
    }
    case Kind::kSfg:
      for_groups([&](unsigned l) { return fired[l] == 0 && ready(c.solo_sfg, l); },
                 [](unsigned) { return std::uint64_t{0}; },
                 [&](Group g, std::uint64_t) {
                   run_main(c.solo_sfg, g);
                   fired_group(g);
                 });
      break;
    case Kind::kDispatch: {
      // Decode: lanes whose instruction token arrived select their SFG
      // (different lanes may run different opcodes) and produce its tokens.
      int* sel = sel_.data() + idx(i);
      const std::uint8_t* itok = tokens(c.instr_net);
      const double* ival = net_values(c.instr_net);
      for_groups(
          [&](unsigned l) { return fired[l] == 0 && sel[l] < 0 && itok[l] != 0; },
          [&](unsigned l) {
            const long opcode = std::lround(ival[l]);
            const std::int32_t s = c.table.decode(opcode);
            if (s < 0) unknown_opcode(ci, opcode, l);
            return static_cast<std::uint64_t>(s);
          },
          [&](Group g, std::uint64_t s) {
            for (const unsigned l : g) sel[l] = static_cast<int>(s);
            run_pre(static_cast<std::int32_t>(s), g);
            f.progress = true;
          });
      for_groups([&](unsigned l) { return fired[l] == 0 && sel[l] >= 0 && ready(sel[l], l); },
                 [&](unsigned l) { return static_cast<std::uint64_t>(sel[l]); },
                 [&](Group g, std::uint64_t s) {
                   run_main(static_cast<std::int32_t>(s), g);
                   fired_group(g);
                 });
      break;
    }
    case Kind::kUntimed:
      // The closure is shared across lanes, so it runs once per ready lane
      // with that lane's inputs.
      for (unsigned l = 0; l < lanes(); ++l) {
        if (fired[l] != 0) continue;
        bool ok = true;
        for (const auto n : c.in_nets) ok = ok && tokens(n)[l] != 0;
        if (!ok) continue;
        invoke_untimed(ci, l);
        fired[l] = 1;
        ++f.firings;
        f.progress = true;
      }
      break;
  }
  return f;
}

// ---------------------------------------------------------------------------
// The four phases

template <unsigned W>
void LaneDriver<W>::begin_cycle() {
  // Pins live on the shared sched::Net objects, so tests and benches flip
  // them between cycles and a drive broadcasts to every lane; per-lane
  // stimulus goes through the refresh values. The drives are only read
  // (the live nets' own tokens belong to the interpreted scheduler), and
  // only after a drive changed somewhere: reading every net's driven()
  // each cycle cost about 5% of a DECT compiled or jit cycle (DESIGN.md
  // §15).
  const Image& m = *img_;
  const unsigned L = lanes();
  std::fill(tok_.begin(), tok_.end(), 0);
  const std::uint64_t drives = sched::Net::drive_changes();
  if (drives != pins_seen_) {
    pins_.clear();
    for (std::size_t n = 0; n < m.nets.size(); ++n)
      if (m.nets[n]->driven())
        pins_.emplace_back(static_cast<std::int32_t>(n), m.nets[n]->drive_value().value());
    pins_seen_ = drives;
  }
  for (const auto& [id, v] : pins_) {
    std::fill_n(net_values(id), L, v);
    std::fill_n(tokens(id), L, 1);
  }
  for (std::size_t r = 0; r < m.refresh.size(); ++r)
    std::copy_n(refresh_.data() + r * L, L, lane_slots(m.refresh[r]));
}

template <unsigned W>
void LaneDriver<W>::select_transitions() {
  std::fill(fired_.begin(), fired_.end(), 0);
  std::fill(sel_.begin(), sel_.end(), -1);
  std::fill(pending_.begin(), pending_.end(), -1);
  for (std::size_t ci = 0; ci < img_->comps.size(); ++ci) {
    const Comp& c = img_->comps[ci];
    if (c.kind != Kind::kFsm) continue;
    const int* st = state_.data() + idx(static_cast<std::int32_t>(ci));
    int* pend = pending_.data() + idx(static_cast<std::int32_t>(ci));
    // Lanes in one state share its guard tapes, run in order until every
    // lane of the group has picked a transition.
    for_groups([](unsigned) { return true; },
               [&](unsigned l) { return static_cast<std::uint64_t>(st[l]); },
               [&](Group g, std::uint64_t state) {
                 std::size_t open = g.size();
                 const auto& ts = c.by_state[state];
                 for (std::size_t ti = 0; ti < ts.size() && open > 0; ++ti) {
                   const double* guard = nullptr;
                   if (!ts[ti].always) {
                     run_tape(ts[ti].guard);
                     ops_ += ts[ti].guard.size() * lanes();
                     guard = lane_slots(ts[ti].guard_slot);
                   }
                   for (const unsigned l : g) {
                     if (pend[l] >= 0 || (guard != nullptr && guard[l] == 0.0)) continue;
                     pend[l] = static_cast<int>(ti);
                     --open;
                   }
                 }
               });
  }
}

template <unsigned W>
void LaneDriver<W>::produce_tokens() {
  for (std::size_t ci = 0; ci < img_->comps.size(); ++ci) {
    const Comp& c = img_->comps[ci];
    if (c.kind == Kind::kSfg) {
      run_pre(c.solo_sfg, all_lanes());
    } else if (c.kind == Kind::kFsm) {
      const int* st = state_.data() + idx(static_cast<std::int32_t>(ci));
      const int* pend = pending_.data() + idx(static_cast<std::int32_t>(ci));
      for_groups([&](unsigned l) { return pend[l] >= 0; },
                 [&](unsigned l) { return fsm_key(st[l], pend[l]); },
                 [&](Group g, std::uint64_t) {
                   for (const auto id : transition(c, st[g[0]], pend[g[0]]).sfgs)
                     run_pre(id, g);
                 });
    }
  }
}

template <unsigned W>
void LaneDriver<W>::commit() {
  for (std::size_t ci = 0; ci < img_->comps.size(); ++ci) {
    const Comp& c = img_->comps[ci];
    const auto i = static_cast<std::int32_t>(ci);
    const int* fired = fired_.data() + idx(i);
    const auto was_fired = [fired](unsigned l) { return fired[l] != 0; };
    switch (c.kind) {
      case Kind::kFsm: {
        int* st = state_.data() + idx(i);
        const int* pend = pending_.data() + idx(i);
        for_groups(was_fired, [&](unsigned l) { return fsm_key(st[l], pend[l]); },
                   [&](Group g, std::uint64_t) {
                     const auto& gt = transition(c, st[g[0]], pend[g[0]]);
                     for (const auto id : gt.sfgs) commit_sfg(id, g);
                     for (const unsigned l : g) st[l] = gt.to;
                   });
        break;
      }
      case Kind::kSfg:
        for_groups(was_fired, [](unsigned) { return std::uint64_t{0}; },
                   [&](Group g, std::uint64_t) { commit_sfg(c.solo_sfg, g); });
        break;
      case Kind::kDispatch: {
        const int* sel = sel_.data() + idx(i);
        for_groups(was_fired, [&](unsigned l) { return static_cast<std::uint64_t>(sel[l]); },
                   [&](Group g, std::uint64_t s) {
                     commit_sfg(static_cast<std::int32_t>(s), g);
                   });
        break;
      }
      case Kind::kUntimed:
        break;
    }
  }
}

// Phase-2 access policy (sched/phase2.h): component ci across every lane.
template <unsigned W>
struct LaneDriver<W>::Access {
  LaneDriver& d;
  const Image::SchedSlot* order = d.img_->level_order.data();

  std::size_t count() const { return d.img_->comps.size(); }
  bool done(std::size_t ci) const { return d.done(ci); }
  sched::Fired fire(std::size_t ci) { return d.fire(ci); }
  bool blocked(std::size_t ci) const {
    for (unsigned l = 0; l < d.lanes(); ++l)
      if (d.blocked(ci, l)) return true;
    return false;
  }
  std::size_t slot(std::size_t k) const { return static_cast<std::size_t>(order[k].comp); }
  diag::Diagnostic postmortem() const { return d.postmortem(); }
};

template <unsigned W>
void LaneDriver<W>::cycle() {
  begin_cycle();
  select_transitions();  // phase 0
  produce_tokens();      // phase 1
  core_.evaluate(Access{*this}, img_->level_offsets, img_->sched_reason, cycles_);  // phase 2
  commit();              // phase 3
  ++cycles_;
}

template <unsigned W>
void LaneDriver<W>::reset() {
  const unsigned L = lanes();
  for (const auto& r : img_->reg_inits) std::fill_n(lane_slots(r.slot), L, r.init);
  for (std::size_t ci = 0; ci < img_->comps.size(); ++ci) {
    const Comp& c = img_->comps[ci];
    if (c.kind == Kind::kFsm)
      std::fill_n(state_.data() + idx(static_cast<std::int32_t>(ci)), L, c.initial);
  }
  cycles_ = 0;
}

template <unsigned W>
std::size_t LaneDriver<W>::footprint_bytes() const {
  return img_->footprint_bytes() +
         (slots_.capacity() + refresh_.capacity()) * sizeof(double) + tok_.capacity() +
         (state_.capacity() + fired_.capacity() + sel_.capacity() + pending_.capacity()) *
             sizeof(int);
}

// ---------------------------------------------------------------------------
// Snapshot body

template <unsigned W>
void LaneDriver<W>::save_lane_body(ckpt::Writer& w, unsigned lane) const {
  const Image& m = *img_;
  w.u32(static_cast<std::uint32_t>(m.init_slots.size()));
  for (std::size_t s = 0; s < m.init_slots.size(); ++s)
    w.f64(lane_slots(static_cast<std::int32_t>(s))[lane]);
  w.u32(static_cast<std::uint32_t>(m.nets.size()));
  for (std::size_t n = 0; n < m.nets.size(); ++n)
    w.u8(tokens(static_cast<std::int32_t>(n))[lane]);
  w.u32(static_cast<std::uint32_t>(m.comps.size()));
  for (std::size_t ci = 0; ci < m.comps.size(); ++ci) {
    const Comp& c = m.comps[ci];
    w.i32(c.kind == Kind::kFsm ? state_[idx(static_cast<std::int32_t>(ci)) + lane] : 0);
    w.u64(c.kind == Kind::kUntimed ? c.untimed->firings() : 0);
    if (c.kind == Kind::kUntimed) c.untimed->save_closure(w);
  }
}

template <unsigned W>
void LaneDriver<W>::restore_lane_body(ckpt::Reader& r, unsigned lane) {
  const Image& m = *img_;
  r.count(1u << 26, m.init_slots.size(), "slot(s), this image has");
  for (std::size_t s = 0; s < m.init_slots.size(); ++s)
    lane_slots(static_cast<std::int32_t>(s))[lane] = r.f64();
  r.count(1u << 26, m.nets.size(), "net token flag(s), this image has");
  for (std::size_t n = 0; n < m.nets.size(); ++n)
    tokens(static_cast<std::int32_t>(n))[lane] = r.u8();
  r.count(1u << 24, m.comps.size(), "component(s), this image has");
  for (std::size_t ci = 0; ci < m.comps.size(); ++ci) {
    const Comp& c = m.comps[ci];
    const std::int32_t state = r.i32();
    const std::uint64_t firings = r.u64();
    if (c.kind == Kind::kFsm) {
      if (state < 0 || static_cast<std::size_t>(state) >= c.by_state.size()) {
        r.fail("CKPT-004", "truncated or corrupt snapshot stream",
               {"component '" + c.name + "': FSM state index " +
                std::to_string(state) + " out of range"});
      }
      state_[idx(static_cast<std::int32_t>(ci)) + lane] = state;
    } else if (c.kind == Kind::kUntimed) {
      // The firing counter and the closure's state live on the shared
      // UntimedComponent (sched/untimed.h).
      c.untimed->restore_closure(r);
      c.untimed->set_firings(static_cast<std::size_t>(firings));
    }
  }
}

// ---------------------------------------------------------------------------
// Deadlock post-mortem

// Component `ci` in `lane` as the post-mortem sees it: the nets it waits
// on and the nets it would drive if it fired.
template <unsigned W>
sched::Blocked LaneDriver<W>::blocked_info(std::size_t ci, unsigned lane) const {
  const Comp& c = img_->comps[ci];
  const std::size_t k = idx(static_cast<std::int32_t>(ci)) + lane;
  sched::Blocked b{c.name, {}, {}};
  const auto wait_on = [&](std::int32_t n) {
    if (tokens(n)[lane] == 0) b.waits.push_back(img_->net_names[static_cast<std::size_t>(n)]);
  };
  const auto drive = [&](std::int32_t n) {
    b.outputs.push_back(img_->net_names[static_cast<std::size_t>(n)]);
  };
  const auto outputs_of = [&](std::int32_t sfg) {
    const Image::SfgCode& s = img_->sfgs[static_cast<std::size_t>(sfg)];
    for (const auto& p : s.pre_pushes) drive(p.net);
    for (const auto& p : s.main_pushes) drive(p.net);
  };
  const auto sfg = [&](std::int32_t id) {
    for (const auto n : img_->sfgs[static_cast<std::size_t>(id)].required_nets) wait_on(n);
    outputs_of(id);
  };
  switch (c.kind) {
    case Kind::kFsm:
      if (pending_[k] >= 0)
        for (const auto id : transition(c, state_[k], pending_[k]).sfgs) sfg(id);
      break;
    case Kind::kSfg: sfg(c.solo_sfg); break;
    case Kind::kDispatch:
      if (sel_[k] >= 0) {
        sfg(sel_[k]);
      } else {
        wait_on(c.instr_net);
        c.table.for_each(outputs_of);
      }
      break;
    case Kind::kUntimed:
      for (const auto n : c.in_nets) wait_on(n);
      for (const auto n : c.out_nets) drive(n);
      break;
  }
  return b;
}

// The first deadlocked lane's post-mortem, naming the lane when there is
// more than one.
template <unsigned W>
diag::Diagnostic LaneDriver<W>::postmortem() const {
  const Image& m = *img_;
  unsigned lane = 0;
  std::vector<sched::Blocked> stuck;
  for (;; ++lane) {
    for (std::size_t ci = 0; ci < m.comps.size(); ++ci)
      if (blocked(ci, lane)) stuck.push_back(blocked_info(ci, lane));
    if (!stuck.empty() || lane + 1 == lanes()) break;
  }
  diag::Diagnostic d = sched::deadlock_postmortem(
      core_.origin, cycles_, std::move(stuck), [&](const std::string& name) {
        const std::int32_t n = m.net_ids.at(name);
        return sched::NetState{net_values(n)[lane], tokens(n)[lane] != 0};
      });
  if (lanes() > 1) d.message += " (lane " + std::to_string(lane) + ")";
  return d;
}

template class LaneDriver<1>;
template class LaneDriver<kRuntimeLanes>;

}  // namespace asicpp::sim
