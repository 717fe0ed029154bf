// The four-phase cycle over a compiled image, written once for any lane
// width.
//
// A LaneDriver runs `lanes` independent instances of one sim::Image in lock
// step. Runtime state is lane-strided: slot s of lane l lives at
// `slots_[s * lanes + l]`, and likewise the net tokens and the
// per-component int arrays (FSM state, fired flag, selected dispatch SFG,
// pending transition) that sim::JitState points at. Every tape instruction
// therefore processes a contiguous vector of lanes.
//
// Tapes (guard / pre / main / input loads) run full-lane and unmasked.
// Each writes only its own scratch slots and its SFG's input slots, and a
// lane's net values are stable within one cycle, so recomputing a
// not-yet-ready lane's scratch is harmless. Net pushes, register commits,
// FSM state updates and untimed invocations are masked to the lanes that
// fire, grouped by each lane's selection (FSM transition, dispatch opcode)
// so every distinct tape set runs once per group.
//
// One cycle:
//   prologue  clear net tokens, apply pin drives, refresh unbound inputs
//   phase 0   FSM transition selection; guards run up to the first true one
//   phase 1   token production (pre tapes of pending transitions and SFGs)
//   phase 2   the shared core (sched/phase2.h) over every lane: the level
//             walk, the sweep for whatever it left, SCHED-001/002
//   phase 3   register commits and FSM state advance of the fired lanes
//
// Two widths are instantiated. LaneDriver<1> is sim::CompiledSystem: with
// the width a compile-time 1, the lane loops and the grouping fold away and
// the tapes run on the scalar kernel, so the solo engine keeps the speed of
// a hand-written scalar cycle. LaneDriver<kRuntimeLanes> is
// batch::BatchedSystem, its width chosen at construction. One runtime-width
// driver for both would cost the solo engine up to 2x (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "diag/diag.h"
#include "sched/phase2.h"
#include "sched/run.h"
#include "sim/image.h"

namespace asicpp::ckpt {
class Reader;
class Writer;
}  // namespace asicpp::ckpt

namespace asicpp::sim {

/// LaneDriver width whose lane count is chosen at construction.
inline constexpr unsigned kRuntimeLanes = 0;

template <unsigned W>
class LaneDriver {
 public:
  /// Simulate one clock cycle in every lane. Throws sched::DeadlockError
  /// on a combinational loop in any lane; the SCHED-001 post-mortem names
  /// that lane's unfired components, the blocking dependency cycle, and
  /// last-known net values.
  void cycle();

  /// Simulate per `opts`: cycle count, watchdogs, schedule mode, profile,
  /// hooks (sched/run.h). RunResult::firings and the per-component
  /// timing count lane firings.
  RunResult run(const RunOptions& opts) {
    return run_steps(opts, [this] { cycle(); });
  }

  unsigned lanes() const { return W != kRuntimeLanes ? W : lanes_; }
  std::uint64_t cycles() const { return cycles_; }

  /// The image's optimizer statistics (instruction counts before/after the
  /// pass pipeline, per-pass hit counters).
  const opt::PassStats& pass_stats() const { return img_->pass_stats; }

  /// Phase-2 evaluation order policy for cycle() calls outside run().
  void set_schedule_mode(ScheduleMode m) { core_.mode = m; }
  ScheduleMode schedule_mode() const { return core_.mode; }
  /// True when compile() found a valid level order for the system.
  bool levelizable() const { return img_->levelizable; }
  /// True when the image has a net called `name`.
  bool has_net(const std::string& name) const { return img_->net_ids.count(name) != 0; }

  void attach_diagnostics(diag::DiagEngine& de) { core_.attach_diagnostics(de); }
  diag::DiagEngine& diagnostics() { return core_.diagnostics(); }
  bool watchdog_tripped() const { return core_.watchdog_tripped; }

  /// Restore every lane's registers and FSM states to their reset values.
  void reset();

  /// IR content hash of the image (see Image::ir_hash).
  std::uint64_t state_hash() const { return img_->ir_hash; }

  /// Bytes of live simulation data: the image plus every lane's arrays.
  std::size_t footprint_bytes() const;

  /// Tape instructions retired, summed over lanes.
  std::uint64_t ops_retired() const { return ops_; }

 protected:
  /// Seed every lane from the image's compile-time state. `engine` names
  /// the engine in diagnostics. Throws std::invalid_argument when the
  /// runtime lane count is 0.
  LaneDriver(std::shared_ptr<const Image> img, unsigned lanes, const char* engine);

  using Comp = Image::Comp;
  /// Lanes taking part in one masked step.
  using Group = std::span<const unsigned>;

  // Lane-strided views.
  double* lane_slots(std::int32_t slot) { return slots_.data() + idx(slot); }
  const double* lane_slots(std::int32_t slot) const { return slots_.data() + idx(slot); }
  double* net_values(std::int32_t net) {
    return lane_slots(img_->net_slots[static_cast<std::size_t>(net)]);
  }
  const double* net_values(std::int32_t net) const {
    return lane_slots(img_->net_slots[static_cast<std::size_t>(net)]);
  }
  std::uint8_t* tokens(std::int32_t net) { return tok_.data() + idx(net); }
  const std::uint8_t* tokens(std::int32_t net) const { return tok_.data() + idx(net); }

  /// Clear net tokens, apply the live nets' pin drives to every lane and
  /// rewrite unbound inputs from their per-lane refresh values.
  void begin_cycle();
  /// The SCHED-001 post-mortem of the first deadlocked lane.
  diag::Diagnostic postmortem() const;
  /// Throw std::logic_error for a dispatch opcode with no table entry.
  [[noreturn]] void unknown_opcode(std::size_t ci, long long opcode, unsigned lane) const;
  /// Run untimed component `ci`'s native closure on `lane`'s inputs and
  /// push its outputs.
  void invoke_untimed(std::size_t ci, unsigned lane);
  /// run() with `step` simulating each cycle (sched::Phase2::run).
  template <class Step>
  RunResult run_steps(const RunOptions& opts, const Step& step) {
    return core_.run(
        opts, img_->comps.size(), [this] { return cycles_; }, step,
        [this](std::size_t i) { return img_->comps[i].name; });
  }
  /// The snapshot body shared by both formats: lane `lane`'s slots, net
  /// tokens and per-component state (FSM state; untimed firing count and
  /// closure state record, sched::UntimedComponent::save_closure).
  /// Reading checks every count and FSM state index (CKPT-004).
  void save_lane_body(ckpt::Writer& w, unsigned lane) const;
  void restore_lane_body(ckpt::Reader& r, unsigned lane);

  std::shared_ptr<const Image> img_;
  unsigned lanes_;

  // Runtime state, outer index the image's slot/net/component index.
  std::vector<double> slots_;
  std::vector<std::uint8_t> tok_;
  std::vector<int> state_;    ///< FSM state (0 for other kinds)
  std::vector<int> fired_;    ///< fired this cycle
  std::vector<int> sel_;      ///< selected dispatch SFG, -1 before decode
  std::vector<int> pending_;  ///< selected FSM transition, -1 none
  std::vector<double> refresh_;  ///< per-lane values of Image::refresh
  /// The live nets' pin drives (net id, value) as of sched::Net's drive
  /// count `pins_seen_`; begin_cycle() reads the nets again when it moved
  /// (a count of 0 means no net was ever driven).
  std::vector<std::pair<std::int32_t, double>> pins_;
  std::uint64_t pins_seen_ = 0;

  std::uint64_t cycles_ = 0;
  std::uint64_t ops_ = 0;  ///< tape instructions retired, summed over lanes
  /// Phase 2 and the run-scoped state.
  sched::Phase2 core_;

 private:
  struct Access;  // the phase-2 access policy (driver.cpp)

  std::size_t idx(std::int32_t i) const { return static_cast<std::size_t>(i) * lanes(); }

  void select_transitions();
  void produce_tokens();
  void commit();
  sched::Fired fire(std::size_t ci);
  bool done(std::size_t ci) const;
  bool blocked(std::size_t ci, unsigned lane) const;
  bool ready(std::int32_t sfg, unsigned lane) const;
  const Image::GuardedTransition& transition(const Comp& c, int state, int pending) const;
  void run_tape(const Tape& tape);
  void run_pre(std::int32_t sfg, Group g);
  void run_main(std::int32_t sfg, Group g);
  void push(const std::vector<Image::SfgCode::Push>& pushes, Group g);
  void commit_sfg(std::int32_t sfg, Group g);
  Group all_lanes() const;
  template <class Pred, class Key, class Fn>
  void for_groups(Pred pred, Key key, Fn fn);
  sched::Blocked blocked_info(std::size_t ci, unsigned lane) const;

  // Grouping scratch of the runtime width, reused so steady-state cycles
  // allocate nothing.
  std::vector<unsigned> lane_ids_;
  std::vector<unsigned> group_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint8_t> taken_;
};

extern template class LaneDriver<1>;
extern template class LaneDriver<kRuntimeLanes>;

}  // namespace asicpp::sim
