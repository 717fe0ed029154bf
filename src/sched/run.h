// Unified engine run API.
//
// All three simulation engines — the interpreted `sched::CycleScheduler`,
// the compiled-tape `sim::CompiledSystem`, and the dataflow
// `df::DynamicScheduler` — accept one `RunOptions` (budgets, watchdogs,
// trace hooks, schedule mode, profiling) and return one `RunResult`
// (work done, retry accounting, per-component timing, stop reason).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "diag/diag.h"

namespace asicpp {

/// How the cycle engines order the phase-2 evaluation sweep.
enum class ScheduleMode {
  /// Use the levelized static schedule when the system admits one, fall
  /// back to iterative relaxation otherwise (the default).
  kAuto,
  /// Require the levelized schedule; when the system cannot be levelized a
  /// SCHED-002 diagnostic is recorded and the run proceeds iteratively.
  kLevelized,
  /// Always use the original iterative three-phase relaxation.
  kIterative,
};

const char* schedule_mode_name(ScheduleMode m);

/// Why a run() returned.
enum class StopReason {
  kCompleted,     ///< the requested cycle count was simulated
  kQuiescent,     ///< dataflow: no process can fire, no tokens stranded
  kDeadlock,      ///< dataflow: no process can fire, tokens stranded
  kCycleBudget,   ///< WATCHDOG-001: total cycle budget exhausted
  kFiringBudget,  ///< WATCHDOG-001: dataflow firing budget exhausted
  kWallClock,     ///< WATCHDOG-002: wall-clock limit exceeded
};

const char* stop_reason_name(StopReason r);

/// One engine run request. Plain aggregate — use designated initializers or
/// the fluent setters: `run(RunOptions{}.for_cycles(100).within(0.5))`.
struct RunOptions {
  /// Cycle engines: cycles to simulate in this call (0 = none).
  std::uint64_t cycles = 0;
  /// Dataflow engine: firing budget for this call (0 = engine default).
  std::uint64_t firings = 0;
  /// Watchdog: stop once the engine's *total* cycle count reaches this
  /// value (0 = unlimited).
  std::uint64_t cycle_budget = 0;
  /// Watchdog: stop after this much wall-clock time in seconds
  /// (0 = unlimited).
  double wall_clock_s = 0.0;
  /// Phase-2 evaluation order policy (cycle engines).
  ScheduleMode schedule = ScheduleMode::kAuto;
  /// Collect per-component firing counts and wall time into
  /// RunResult::timing (adds two clock reads per firing).
  bool profile = false;
  /// Route diagnostics (watchdog reports, SCHED-002, post-mortems) into
  /// this engine for the duration of the run instead of the attached one.
  diag::DiagEngine* diagnostics = nullptr;
  /// Trace / recorder hook, invoked after every completed cycle (cycle
  /// engines) or after every firing sweep (dataflow engine).
  std::function<void(std::uint64_t)> on_cycle_end;
  /// Checkpoint cadence: invoke `on_checkpoint` every N completed cycles
  /// (cycle engines) or firing sweeps (dataflow engine). 0 = never.
  std::uint64_t checkpoint_every = 0;
  /// Checkpoint hook, called with the engine's total cycle (or sweep)
  /// count; the callback typically calls the engine's save_state. Runs at
  /// a cycle boundary, so the saved state resumes bit-identically.
  std::function<void(std::uint64_t)> on_checkpoint;

  RunOptions& for_cycles(std::uint64_t n) { cycles = n; return *this; }
  RunOptions& for_firings(std::uint64_t n) { firings = n; return *this; }
  RunOptions& budget(std::uint64_t total_cycles) { cycle_budget = total_cycles; return *this; }
  RunOptions& within(double seconds) { wall_clock_s = seconds; return *this; }
  RunOptions& mode(ScheduleMode m) { schedule = m; return *this; }
  RunOptions& profiled(bool on = true) { profile = on; return *this; }
  RunOptions& into(diag::DiagEngine& de) { diagnostics = &de; return *this; }
  RunOptions& on_cycle(std::function<void(std::uint64_t)> cb) {
    on_cycle_end = std::move(cb);
    return *this;
  }
  RunOptions& checkpoint(std::uint64_t every,
                         std::function<void(std::uint64_t)> cb) {
    checkpoint_every = every;
    on_checkpoint = std::move(cb);
    return *this;
  }
};

/// Wall time and firing count of one component (or dataflow process)
/// across a profiled run.
struct ComponentTiming {
  std::string component;
  std::uint64_t firings = 0;
  double seconds = 0.0;
};

/// Per-component firings and wall time of a profiled run, by component (or
/// dataflow process) index: the one profile table of every engine.
class Profile {
 public:
  using Clock = std::chrono::steady_clock;

  /// Profile `n` components from zero when `on`, else none (off).
  void reset(bool on, std::size_t n) { rows_.assign(on ? n : 0, Row{}); }
  bool on() const { return !rows_.empty(); }
  /// Charge component `i` with `firings` and the time since `t0`.
  void add(std::size_t i, std::uint64_t firings, Clock::time_point t0) {
    rows_[i].seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    rows_[i].firings += firings;
    rows_[i].timed = true;
  }
  /// RunResult::timing: the components timed at least once, in index
  /// order, named by `name(i)`.
  template <class Name>
  std::vector<ComponentTiming> timing(Name&& name) const {
    std::vector<ComponentTiming> out;
    for (std::size_t i = 0; i < rows_.size(); ++i)
      if (rows_[i].timed)
        out.push_back(ComponentTiming{name(i), rows_[i].firings, rows_[i].seconds});
    return out;
  }

 private:
  struct Row {
    std::uint64_t firings = 0;
    double seconds = 0.0;
    bool timed = false;
  };
  std::vector<Row> rows_;
};

/// What a run did. Common to all three engines; fields an engine cannot
/// populate stay at their defaults (e.g. retry_passes for the dataflow
/// scheduler, firings deltas for a watchdog-stopped run).
struct RunResult {
  /// Cycles simulated by this call (cycle engines).
  std::uint64_t cycles = 0;
  /// Component / process firings during this call.
  std::uint64_t firings = 0;
  /// Phase-2 evaluation sweeps beyond the first, summed over the run. Zero
  /// in steady-state levelized execution; the iterative scheduler pays one
  /// or more retry passes per cycle on deep combinational chains.
  std::uint64_t retry_passes = 0;
  /// Cycles that executed via the levelized static schedule.
  std::uint64_t levelized_cycles = 0;
  /// Schedule mode actually used for the majority of the run.
  ScheduleMode schedule = ScheduleMode::kIterative;
  StopReason stop = StopReason::kCompleted;
  /// Checkpoints emitted via RunOptions::on_checkpoint during this call.
  std::uint64_t checkpoints = 0;
  /// Per-component timing, populated when RunOptions::profile is set.
  std::vector<ComponentTiming> timing;

  bool watchdog_tripped() const {
    return stop == StopReason::kCycleBudget || stop == StopReason::kFiringBudget ||
           stop == StopReason::kWallClock;
  }
};

inline const char* schedule_mode_name(ScheduleMode m) {
  switch (m) {
    case ScheduleMode::kAuto: return "auto";
    case ScheduleMode::kLevelized: return "levelized";
    case ScheduleMode::kIterative: return "iterative";
  }
  return "?";
}

inline const char* stop_reason_name(StopReason r) {
  switch (r) {
    case StopReason::kCompleted: return "completed";
    case StopReason::kQuiescent: return "quiescent";
    case StopReason::kDeadlock: return "deadlock";
    case StopReason::kCycleBudget: return "cycle budget";
    case StopReason::kFiringBudget: return "firing budget";
    case StopReason::kWallClock: return "wall clock";
  }
  return "?";
}

}  // namespace asicpp
