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
//   phase 2   the static level walk, then the iterative sweep for whatever
//             it left unfired; a walk that misses twice in a row is turned
//             off (SCHED-002). No progress with a component still blocked
//             is a combinational deadlock (SCHED-001 post-mortem).
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
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "diag/diag.h"
#include "par/pool.h"
#include "sched/run.h"
#include "sim/image.h"

namespace asicpp::ckpt {
class Reader;
class Writer;
}  // namespace asicpp::ckpt

namespace asicpp::sim {

/// LaneDriver width whose lane count is chosen at construction.
inline constexpr unsigned kRuntimeLanes = 0;

/// Levels of the static order at least this wide are partitioned across
/// the pool by the level-parallel walk.
inline constexpr std::size_t kMinParallelWidth = 4;

/// Call `fire_slot(k)` for every slot k of `img`'s level order, level by
/// level with a barrier between levels; levels at least kMinParallelWidth
/// wide are partitioned across `threads` pool lanes. Bit-identical to the
/// serial walk: within one level every slot reads what earlier levels
/// wrote and pushes disjoint nets.
template <class Fn>
void walk_levels_parallel(const Image& img, unsigned threads, Fn&& fire_slot) {
  for (std::size_t l = 0; l + 1 < img.level_offsets.size(); ++l) {
    const std::size_t b = img.level_offsets[l], e = img.level_offsets[l + 1];
    if (e - b < kMinParallelWidth) {
      for (std::size_t k = b; k < e; ++k) fire_slot(k);
    } else {
      par::Pool::shared().parallel_for(
          e - b, [&](std::size_t k) { fire_slot(b + k); }, threads);
    }
  }
}

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
    return run_steps(opts, engine_, [this] { cycle(); });
  }

  unsigned lanes() const { return W != kRuntimeLanes ? W : lanes_; }
  std::uint64_t cycles() const { return cycles_; }

  /// The image's optimizer statistics (instruction counts before/after the
  /// pass pipeline, per-pass hit counters).
  const opt::PassStats& pass_stats() const { return img_->pass_stats; }

  /// Phase-2 evaluation order policy for cycle() calls outside run().
  void set_schedule_mode(ScheduleMode m) { mode_ = m; }
  ScheduleMode schedule_mode() const { return mode_; }
  /// True when compile() found a valid level order for the system.
  bool levelizable() const { return img_->levelizable; }

  void attach_diagnostics(diag::DiagEngine& de) { diag_ = &de; }
  diag::DiagEngine& diagnostics() { return diag_ != nullptr ? *diag_ : own_diag_; }
  bool watchdog_tripped() const { return watchdog_tripped_; }

  /// Restore every lane's registers and FSM states to their reset values.
  void reset();

  /// IR content hash of the image (see Image::ir_hash).
  std::uint64_t state_hash() const { return img_->ir_hash; }

  /// Bytes of live simulation data: the image plus every lane's arrays.
  std::size_t footprint_bytes() const;

  /// Tape instructions retired, summed over lanes.
  std::uint64_t ops_retired() const { return ops_.get(); }

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
  /// Report the SCHED-001 post-mortem and throw sched::DeadlockError.
  [[noreturn]] void deadlock();
  /// Throw std::logic_error for a dispatch opcode with no table entry.
  [[noreturn]] void unknown_opcode(std::size_t ci, long long opcode, unsigned lane) const;
  /// Run untimed component `ci`'s native closure on `lane`'s inputs and
  /// push its outputs.
  void invoke_untimed(std::size_t ci, unsigned lane);
  /// run() with `step` simulating each cycle and `engine` naming the
  /// watchdog reports: applies the scoped overrides of `opts` (diagnostics,
  /// schedule mode, threads at width 1, profile) around run_cycles.
  RunResult run_steps(const RunOptions& opts, const char* engine,
                      const std::function<void()>& step);
  /// The snapshot body shared by both formats: lane `lane`'s slots, net
  /// tokens and per-component state (FSM state, untimed firing count).
  /// Reading checks every count and FSM state index (CKPT-004).
  void save_lane_body(ckpt::Writer& w, unsigned lane) const;
  void restore_lane_body(ckpt::Reader& r, unsigned lane);

  std::shared_ptr<const Image> img_;
  unsigned lanes_;
  const char* engine_;

  // Runtime state, outer index the image's slot/net/component index.
  std::vector<double> slots_;
  std::vector<std::uint8_t> tok_;
  std::vector<int> state_;    ///< FSM state (0 for other kinds)
  std::vector<int> fired_;    ///< fired this cycle
  std::vector<int> sel_;      ///< selected dispatch SFG, -1 before decode
  std::vector<int> pending_;  ///< selected FSM transition, -1 none
  std::vector<double> refresh_;  ///< per-lane values of Image::refresh

  std::uint64_t cycles_ = 0;
  // Bumped from inside the width-1 level-parallel walk, so relaxed atomics
  // there; the runtime width never walks in parallel and counts plainly.
  struct PlainCounter {
    std::uint64_t v = 0;
    void add(std::uint64_t d = 1) { v += d; }
    std::uint64_t get() const { return v; }
  };
  using Counter = std::conditional_t<W == 1, par::RelaxedCounter, PlainCounter>;
  Counter ops_;
  Counter fired_total_;
  std::uint64_t retry_passes_total_ = 0;
  std::uint64_t levelized_cycles_total_ = 0;
  ScheduleMode mode_ = ScheduleMode::kAuto;
  /// Level-parallel walk lanes (width 1 only; see CompiledSystem).
  unsigned threads_ = 1;
  int sched_failures_ = 0;  // walk misses in a row; >= 2 disables the walk
  bool sched002_reported_ = false;
  diag::DiagEngine* diag_ = nullptr;
  diag::DiagEngine own_diag_;
  bool watchdog_tripped_ = false;

 private:
  std::size_t idx(std::int32_t i) const { return static_cast<std::size_t>(i) * lanes(); }

  void select_transitions();
  void produce_tokens();
  void evaluate();
  void commit();
  bool fire(std::size_t ci);
  bool try_fire(std::size_t ci);  ///< fire(), timed when profiling
  bool done(std::size_t ci) const;
  bool blocked(std::size_t ci, unsigned lane) const;
  bool any_blocked() const;
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
  std::vector<std::int32_t> waiting_nets(std::size_t ci, unsigned lane) const;
  std::vector<std::int32_t> pending_outputs(std::size_t ci, unsigned lane) const;
  diag::Diagnostic postmortem() const;

  bool profile_ = false;
  std::vector<std::pair<std::uint64_t, double>> prof_;  // per component

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
