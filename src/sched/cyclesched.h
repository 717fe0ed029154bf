// The three-phase cycle scheduler (section 4, Fig 6).
//
// Whenever a timed description is simulated, the cycle scheduler creates
// the illusion of concurrency between components on a clock-cycle basis.
// Each cycle runs:
//
//   0. transition selection    — every FSM picks its transition and marks
//                                the transition's SFGs for execution;
//   1. token production        — outputs depending only on registered or
//                                constant signals are evaluated and put on
//                                the interconnect (this creates the initial
//                                tokens that break apparent deadlocks in
//                                component loops, replacing data-flow
//                                initial tokens and buffer insertion);
//   2. iterative evaluation    — marked SFGs and untimed blocks fire as
//                                their inputs become available, repeated
//                                until every marked SFG has fired; if a
//                                preset iteration bound is exceeded with
//                                unfired components, the system is declared
//                                deadlocked, which identifies true
//                                combinational loops;
//   3. register update         — next-values commit, FSM states advance.
//
// Phase 2 — the level walk, the sweep, SCHED-001/002 — is the shared core
// of every cycle engine (sched/phase2.h), here over the component objects.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "diag/diag.h"
#include "opt/options.h"
#include "sched/component.h"
#include "sched/net.h"
#include "sched/phase2.h"
#include "sched/run.h"
#include "sched/schedule.h"
#include "sfg/clk.h"

namespace asicpp::sched {

class CycleScheduler {
 public:
  explicit CycleScheduler(sfg::Clk& clk) : clk_(&clk) {}

  /// Register a component. Components are evaluated in registration order
  /// within each sweep, but results are order-independent by construction.
  void add(Component& c) {
    comps_.push_back(&c);
    invalidate_schedule();
  }

  /// Create or fetch the interconnect net `name`.
  Net& net(const std::string& name);
  /// The net called `name`, or nullptr; never creates one.
  Net* find_net(const std::string& name) const;

  /// Cap on evaluation sweeps per cycle before declaring deadlock.
  void set_max_iterations(int n) { core_.max_iters = n; }

  using CycleStats = Phase2::Pass;

  /// Simulate one clock cycle. Throws DeadlockError on combinational loops
  /// (the post-mortem is also reported into the attached engine, if any).
  CycleStats cycle();

  /// Simulate per `opts`: cycle count, watchdogs, schedule mode, hooks.
  /// The primary entry point shared with the other engines.
  RunResult run(const RunOptions& opts);

  /// Apply optimizer pass options to every SFG of every registered
  /// component; they hold for cycle() and run() alike until set again.
  void set_pass_options(const opt::PassOptions& p);

  // --- static schedule ---

  /// Phase-2 evaluation order policy for cycle() calls outside run().
  void set_schedule_mode(ScheduleMode m) { core_.mode = m; }
  ScheduleMode schedule_mode() const { return core_.mode; }

  /// The levelized schedule, rebuilt lazily after structural changes.
  /// invalid() when the system cannot be statically ordered.
  const Schedule& schedule() {
    refresh_schedule();
    return schedule_;
  }

  /// Drop the cached level order (bindings changed behind the scheduler's
  /// back); it is re-levelized before the next cycle.
  void invalidate_schedule() {
    schedule_stale_ = true;
    core_.walk_misses = 0;
    core_.sched002_reported = false;
  }

  // --- diagnostics & run watchdogs ---

  /// Route diagnostics (deadlock post-mortems, watchdog reports) into an
  /// external engine; without this the scheduler uses an internal one,
  /// reachable via diagnostics().
  void attach_diagnostics(diag::DiagEngine& de) { core_.attach_diagnostics(de); }
  diag::DiagEngine& diagnostics() { return core_.diagnostics(); }

  /// True when the last run() was stopped by a watchdog.
  bool watchdog_tripped() const { return core_.watchdog_tripped; }

  /// Invoked after each completed cycle (monitors, stimulus recorders).
  void on_cycle_end(std::function<void(std::uint64_t cycle)> cb) {
    monitors_.push_back(std::move(cb));
  }

  sfg::Clk& clk() const { return *clk_; }
  std::uint64_t cycles() const { return clk_->cycle(); }

  // --- checkpoint/restore (see ckpt/snapshot.h) ---

  /// Extra entropy mixed into state_hash(), typically a hash of the
  /// canonical source description (verify::System salts with the spec
  /// text) so structurally similar but distinct designs reject each
  /// other's snapshots.
  void set_state_salt(std::uint64_t salt) { state_salt_ = salt; }
  std::uint64_t state_salt() const { return state_salt_; }

  /// Structural content hash binding snapshots to this system: the salt,
  /// component names, net names in creation order, and every enrolled
  /// register's name, format and reset value.
  std::uint64_t state_hash() const;

  /// Serialize the complete cross-cycle simulation state — register
  /// values, net tokens and external drives, component state (FSM current
  /// states, adapter queues, firing counters), the clock's cycle count and
  /// the levelized-schedule cursor — at a cycle boundary.
  void save_state(std::ostream& os) const;

  /// Restore a save_state() snapshot. Throws ckpt::SnapshotError with a
  /// structured CKPT-001..004 diagnostic on mismatch or corruption; on
  /// failure the scheduler state is left exactly as it was (restore is
  /// transactional via an internal rollback snapshot).
  void restore_state(std::istream& is);

  /// Introspection for the compiled-code and HDL generators. all_nets()
  /// is in name order: the compiled image numbers nets in it, and so the
  /// emitted code follows it.
  const std::vector<Component*>& components() const { return comps_; }
  std::vector<Net*> all_nets() const;
  int max_iterations() const { return core_.max_iters; }

 private:
  struct Access;  // the phase-2 access policy (cyclesched.cpp)

  diag::Diagnostic postmortem() const;
  void restore_state_impl(std::istream& is);
  void refresh_schedule() {
    if (!schedule_stale_) return;
    schedule_ = Schedule::build(comps_);
    schedule_stale_ = false;
  }

  sfg::Clk* clk_;
  std::vector<Component*> comps_;
  std::unordered_map<std::string, std::unique_ptr<Net>> nets_;
  std::vector<Net*> net_list_;  ///< flat creation-order view of nets_, for the hot per-cycle sweep
  std::vector<std::function<void(std::uint64_t)>> monitors_;
  Phase2 core_{"cycle scheduler"};
  Schedule schedule_;
  bool schedule_stale_ = true;
  std::uint64_t state_salt_ = 0;
};

}  // namespace asicpp::sched
