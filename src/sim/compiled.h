// Compiled-code system simulator.
//
// `CompiledSystem::compile` takes a system assembled for the (interpreted)
// cycle scheduler and regenerates it as flat tapes over a slot array — the
// paper's compiled-code simulation path (section 5): same clock-cycle
// semantics, drastically lower per-operation cost. Compilation snapshots
// the current register/FSM state, so a system can be compiled mid-run and
// continues bit-identically.
//
// Supported component kinds: FsmComponent, SfgComponent, DispatchComponent
// (fully compiled) and UntimedComponent (invoked as native C++, which is
// what "high-level description" means in the paper).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fixpt/format.h"
#include "opt/options.h"
#include "par/pool.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/run.h"
#include "sched/untimed.h"
#include "sim/tape.h"

namespace asicpp::jit {
class JitSystem;
}  // namespace asicpp::jit

namespace asicpp::batch {
class BatchedSystem;
}  // namespace asicpp::batch

namespace asicpp::sim {

class CompiledSystem {
 public:
  /// Translate every component and net of `sched` into tape form, running
  /// the optimization pass pipeline (`passes`) over each SFG's lowered IR
  /// before tape emission. PassOptions::raw() compiles the unoptimized
  /// graphs — the differential reference for the pass pipeline.
  /// Throws std::invalid_argument for unknown Component subclasses.
  static CompiledSystem compile(const sched::CycleScheduler& sched,
                                const opt::PassOptions& passes = {});

  /// Simulate one clock cycle. Throws sched::DeadlockError on
  /// combinational loops, like the interpreted scheduler; the SCHED-001
  /// post-mortem names the unfired components, the blocking dependency
  /// cycle, and last-known net values.
  void cycle();

  /// Simulate per `opts`: cycle count, watchdogs, schedule mode, hooks.
  /// The unified entry point shared with CycleScheduler / DynamicScheduler.
  RunResult run(const RunOptions& opts);

  std::uint64_t cycles() const { return cycles_; }

  /// Aggregated optimizer statistics across every compiled SFG (instruction
  /// counts before/after the pass pipeline, per-pass hit counters).
  const opt::PassStats& pass_stats() const { return pass_stats_; }

  // --- static schedule ---

  /// Phase-2 evaluation order policy for cycle() calls outside run().
  void set_schedule_mode(ScheduleMode m) { mode_ = m; }
  ScheduleMode schedule_mode() const { return mode_; }

  /// Worker lanes for the level-parallel phase-2 walk, for cycle() calls
  /// outside run() (see RunOptions::nthreads; 1 = serial, 0 = hardware).
  /// Bit-identical to serial: within one level every tape writes disjoint
  /// slots. Untimed components' native closures must be thread-safe to
  /// run under threads > 1 (the system tapes themselves always are).
  void set_threads(unsigned n) {
    threads_ = n == 0 ? par::Pool::hardware_lanes() : n;
  }
  unsigned threads() const { return threads_; }

  /// Levels at least this wide are partitioned across the pool.
  static constexpr std::size_t kMinParallelWidth = 4;
  /// True when compile() found a valid level order for the system.
  bool levelizable() const { return levelizable_; }
  /// Why levelization failed (empty when levelizable()).
  const std::string& schedule_reason() const { return sched_reason_; }
  /// Number of levels in the static order (0 when not levelizable).
  int schedule_levels() const { return sched_levels_; }

  // --- diagnostics & run watchdogs ---

  void attach_diagnostics(diag::DiagEngine& de) { diag_ = &de; }
  diag::DiagEngine& diagnostics() { return diag_ != nullptr ? *diag_ : own_diag_; }
  bool watchdog_tripped() const { return watchdog_tripped_; }

  /// Restore registers and FSM states to their reset values.
  void reset();

  /// Full architectural state (slots + FSM states + cycle count), opaque.
  struct Checkpoint {
    std::vector<double> slots;
    std::vector<std::int32_t> states;
    std::uint64_t cycles = 0;
  };
  /// Snapshot / restore the simulation state — long runs can be branched
  /// (e.g. explore a hold scenario, then rewind).
  Checkpoint save() const;
  void restore(const Checkpoint& cp);

  // --- serialized checkpoint/restore (see ckpt/snapshot.h) ---

  /// IR content hash computed at compile() time over the slot layout, net
  /// names, every emitted tape instruction, and the component/transition
  /// structure. Binds snapshots to one compiled image: a system compiled
  /// from a different spec — or with a different pass pipeline — hashes
  /// differently and rejects the snapshot with CKPT-003.
  std::uint64_t state_hash() const { return ir_hash_; }

  /// Serialize the full runtime state (slot array, net tokens, FSM states,
  /// untimed firing counters, cycle count) in the versioned ckpt format.
  void save_state(std::ostream& os) const;

  /// Restore a save_state() snapshot. Throws ckpt::SnapshotError with a
  /// CKPT-001..004 diagnostic on mismatch or corruption; on failure the
  /// simulator state is left exactly as it was.
  void restore_state(std::istream& is);

  /// Last token value seen on net `name`.
  double net_value(const std::string& name) const;
  /// Current value of register `name` (first registered with that name).
  double reg_value(const std::string& name) const;
  /// Override the value of an unbound input signal by name.
  void poke(const std::string& input_name, double v);

  /// Bytes of live simulation data structures (slots, tapes, tables) —
  /// the "process size" figure of Table 1.
  std::size_t footprint_bytes() const;

  /// Total tape instructions retired (throughput accounting).
  std::uint64_t ops_retired() const { return ops_.get(); }

  /// Emit the cycle kernel as a C++ translation unit over the JitState
  /// block (sim/cppunit.h): one straight-line function per tape, one try
  /// function per component, and the four-phase cycle as extern "C" entry
  /// points. The JIT compiles exactly this text; emit_cpp() wraps it.
  void emit_unit(std::ostream& os) const;

  /// Emit a standalone C++ program that reproduces this system's
  /// simulation (Fig 7's "C++ RT description"): emit_unit()'s text plus a
  /// main() running `run_cycles` cycles from the current state, printing
  /// the value of each net in `watch_nets` per cycle. External pin drives
  /// are frozen at their current values. A deadlock exits 3 naming the
  /// unfired components; an opcode with no table entry and no default
  /// exits 4. Systems with untimed components are rejected (native C++
  /// closures have no image).
  void emit_cpp(std::ostream& os, const std::vector<std::string>& watch_nets,
                std::uint64_t run_cycles) const;

 private:
  // The JIT engine (src/jit) compiles emit_unit()'s text and drives the
  // resulting shared object against the same slot arrays.
  friend class asicpp::jit::JitSystem;
  // The batched evaluator (src/batch) replays this system's tapes over a
  // lanes-wide structure-of-arrays slot store, one instance per lane.
  friend class asicpp::batch::BatchedSystem;

  CompiledSystem() = default;

  struct SfgCode {
    Tape pre;   ///< input-independent ops (token production)
    Tape main;  ///< input-dependent ops + register next-values
    std::vector<Instr> load_inputs;  ///< net slot -> input slot copies
    std::vector<std::int32_t> required_nets;
    struct Push {
      std::int32_t net;
      std::int32_t src;
    };
    std::vector<Push> pre_pushes;
    std::vector<Push> main_pushes;
    struct Commit {
      std::int32_t dst;  ///< register current-value slot
      std::int32_t src;  ///< computed next-value slot
      fixpt::Format fmt;
      bool has_fmt;
    };
    std::vector<Commit> commits;
  };

  struct GuardedTransition {
    bool always = false;
    Tape guard;
    std::int32_t guard_slot = -1;
    std::vector<std::int32_t> sfgs;
    std::int32_t to = -1;
  };

  enum class Kind { kFsm, kSfg, kDispatch, kUntimed };

  struct Comp {
    Kind kind;
    std::string name;
    // kFsm
    std::vector<std::vector<GuardedTransition>> by_state;
    std::int32_t state = -1;
    std::int32_t initial = -1;
    const GuardedTransition* pending = nullptr;
    // kSfg / kDispatch
    std::int32_t solo_sfg = -1;
    std::int32_t instr_net = -1;
    std::map<long, std::int32_t> table;
    std::int32_t default_sfg = -1;
    std::int32_t selected = -1;
    // kUntimed
    sched::UntimedComponent* untimed = nullptr;
    std::vector<std::int32_t> in_nets;
    std::vector<std::int32_t> out_nets;
    // runtime
    bool fired = false;
  };

  struct RegInit {
    std::int32_t slot;
    double init;
  };

  struct InputRefresh {
    sfg::NodePtr node;
    std::int32_t slot;
  };

  /// One step of the static level order: a component firing, or — for
  /// dispatch components — the decode/token-production step preceding it.
  struct SchedSlot {
    std::int32_t comp;
    bool decode;
    int level;
  };

  class Builder;
  struct UnitEmitter;

  void build_schedule();
  void compute_ir_hash();
  void restore_state_impl(std::istream& is);
  bool comp_try_fire(Comp& c);
  void run_sfg_pre(std::int32_t sfg);
  bool run_sfg_main(std::int32_t sfg);  ///< false when inputs missing

  bool comp_blocked(const Comp& c) const;
  std::vector<std::int32_t> comp_waiting_nets(const Comp& c) const;
  std::vector<std::int32_t> comp_pending_outputs(const Comp& c) const;
  diag::Diagnostic deadlock_postmortem() const;

  // static structures
  std::vector<SfgCode> sfgs_;
  std::vector<Comp> comps_;
  std::vector<const sched::Net*> ext_nets_;      ///< external-drive sources
  std::vector<std::int32_t> ext_net_slots_;
  std::vector<std::int32_t> net_slots_;          ///< net id -> slot
  std::vector<std::string> net_names_;           ///< net id -> name
  std::map<std::string, std::int32_t> net_ids_;
  std::map<std::string, std::int32_t> reg_slots_;
  std::map<std::string, std::int32_t> input_slots_;
  std::vector<RegInit> reg_inits_;
  std::vector<InputRefresh> refresh_;
  int max_iters_ = 64;

  // static schedule (built once by compile())
  std::vector<SchedSlot> level_order_;
  std::vector<std::size_t> level_offsets_;  ///< level l = order [l, l+1)
  bool levelizable_ = false;
  int sched_levels_ = 0;
  std::string sched_reason_;
  std::uint64_t ir_hash_ = 0;  ///< computed once by compile()

  // runtime state
  std::vector<double> slots_;
  std::vector<std::uint8_t> net_token_;
  std::uint64_t cycles_ = 0;
  // Bumped from inside the level-parallel walk; RelaxedCounter keeps the
  // system copyable (compile() returns by value).
  par::RelaxedCounter ops_;
  par::RelaxedCounter fired_total_;
  std::uint64_t retry_passes_total_ = 0;
  std::uint64_t levelized_cycles_total_ = 0;
  ScheduleMode mode_ = ScheduleMode::kAuto;
  unsigned threads_ = 1;
  int sched_failures_ = 0;  // walk misses; >= 2 disables the level walk
  bool sched002_reported_ = false;
  bool profile_ = false;
  std::vector<std::pair<std::uint64_t, double>> prof_;  // per comps_ index
  diag::DiagEngine* diag_ = nullptr;
  diag::DiagEngine own_diag_;
  bool watchdog_tripped_ = false;
  opt::PassStats pass_stats_{};
};

}  // namespace asicpp::sim
