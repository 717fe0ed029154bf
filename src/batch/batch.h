// Batched structure-of-arrays multi-instance simulation.
//
// One compiled design, N independent instances in lock-step. The batched
// evaluator is the runtime-width sim::LaneDriver (sim/driver.h): it replays
// a compiled image's straight-line tapes over an instance-major
// structure-of-arrays slot store — slot s of lane l lives at
// `slots_[s * lanes + lane]`, so every tape instruction processes a
// contiguous vector of N lanes in one auto-vectorizable loop instead of N
// scheduler walks. This is the fleet-scale execution shape: parameter
// sweeps, Monte-Carlo stimulus, and fuzz batches become one cache-friendly
// kernel call.
//
// Semantics are cycle-exact per lane, bit-identical to running N separate
// CompiledSystem instances with the same stimulus. Lanes may diverge:
// per-lane pokes can put the lanes into different FSM states, dispatch
// opcodes, or data values; the driver runs tapes full-lane and masks only
// net pushes, register commits, FSM state updates and untimed invocations
// to the lanes that fire.
//
// Determinism contract (tested by tests/test_batch.cpp, fuzzed on every
// seed by the `batched` engine): lane count and lane position never change
// any instance's trace. Lane l of an L-lane batch produces exactly the
// trace a solo CompiledSystem produces.
//
// Untimed components' native closures are shared across lanes (there is
// one sched::UntimedComponent object), so batched execution requires
// stateless closures. Stateful closures (e.g. a RAM model) would leak one
// lane's history into another — use the structural/timed form of such
// designs for batched runs.
//
// Per-lane checkpointing: save_lane/restore_lane serialize ONE lane's
// architectural state in the versioned ckpt format (EngineKind::kBatched).
// A lane snapshot is bound to its lane index; restoring it into a
// different lane rejects with CKPT-005 (lane binding mismatch), so a
// checkpoint stream can never silently migrate an instance.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "opt/options.h"
#include "sim/driver.h"

namespace asicpp::batch {

class BatchedSystem : public sim::LaneDriver<sim::kRuntimeLanes> {
 public:
  /// Compile `sched` once (sim::Image::compile, running the pass pipeline)
  /// and replicate its runtime state across `lanes` identical instances.
  /// cycle() throws sched::DeadlockError (SCHED-001 post-mortem naming the
  /// first deadlocked lane) when any lane deadlocks combinationally.
  /// run() honours the schedule mode, SCHED-002 and profiling like the
  /// solo engine. Throws std::invalid_argument when lanes == 0.
  static BatchedSystem compile(const sched::CycleScheduler& sched,
                               unsigned lanes,
                               const opt::PassOptions& passes = {});

  /// Last token value seen on net `name` in lane `lane`.
  double net_value(unsigned lane, const std::string& name) const;
  /// Current value of register `name` in lane `lane`.
  double reg_value(unsigned lane, const std::string& name) const;
  /// Override an unbound input signal in ONE lane (persists across
  /// cycles). This is how lanes diverge: per-lane stimulus.
  void poke(unsigned lane, const std::string& input_name, double v);
  /// Override an unbound input signal in every lane.
  void poke_all(const std::string& input_name, double v);

  // --- per-lane serialized checkpoint/restore (see ckpt/snapshot.h) ---

  /// Serialize lane `lane`'s architectural state (slots, net tokens, FSM
  /// states, untimed firing counters, per-lane stimulus) in the versioned
  /// ckpt format, bound to the lane index.
  void save_lane(unsigned lane, std::ostream& os) const;

  /// Restore a save_lane() snapshot into the SAME lane index. Throws
  /// ckpt::SnapshotError: CKPT-001 (wrong engine kind), CKPT-003 (other
  /// design), CKPT-004 (corrupt), CKPT-005 (snapshot bound to a different
  /// lane). On failure the lane is left exactly as it was. The global
  /// cycle counter adopts the snapshot position, so restore at matching
  /// positions (the diff_run ckpt-axis shape).
  void restore_lane(unsigned lane, std::istream& is);

 private:
  BatchedSystem(std::shared_ptr<const sim::Image> img, unsigned lanes)
      : LaneDriver(std::move(img), lanes, "batched simulator") {}

  void check_lane(unsigned lane, const char* what) const;
  void restore_lane_impl(unsigned lane, std::istream& is);
};

}  // namespace asicpp::batch
