// Phase 2 of the cycle (section 4, Fig 6), written once for every cycle
// engine: sched::CycleScheduler and sim::LaneDriver<W> (the compiled tape
// and the batch) evaluate it through one Phase2 core, and the jit takes its
// walk decision, level walk and SCHED-001/002 from it. One phase 2:
//
//   walk   when the mode allows it, the system has a level order and the
//          walk has not missed twice in a row: fire the order once, level
//          by level;
//   sweep  otherwise, or when the walk left a component blocked: sweep
//          until every component is done. No progress, or max_iters
//          passes, with a component still blocked is a combinational
//          deadlock (SCHED-001, DeadlockError).
//
// SCHED-002 reports a kLevelized request on a system with no level order
// (once), and every walk the sweep had to finish. An engine reaches the
// core through an access policy with these members, which the core's
// templates call directly, so they inline:
//
//   std::size_t count() const              number of components
//   bool done(std::size_t c) const         nothing left to fire this cycle
//   Fired fire(std::size_t c)              try to fire component c
//   bool blocked(std::size_t c) const      obliged to fire and not fired
//   std::size_t slot(std::size_t k) const  component of level-order step k
//   diag::Diagnostic postmortem() const    SCHED-001 (deadlock_postmortem)
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "sched/run.h"

namespace asicpp::sched {

/// Raised when the evaluation phase cannot complete: a genuine
/// combinational loop between components. Carries a structured SCHED-001
/// post-mortem: the unfired component set, the blocking net dependency
/// cycle, and last-known values of the involved nets.
struct DeadlockError : asicpp::Error {
  explicit DeadlockError(diag::Diagnostic d) : asicpp::Error(std::move(d)) {}
};

/// What one policy fire() call did: whether it made progress (a firing,
/// or a dispatch decode that put tokens out) and how many firings it made.
struct Fired {
  bool progress = false;
  int firings = 0;
};

/// One blocked component as the SCHED-001 post-mortem sees it.
struct Blocked {
  std::string name;
  std::vector<std::string> waits;    ///< nets it waits on (no token yet)
  std::vector<std::string> outputs;  ///< nets it would drive if it fired
};

/// A net's last value, and whether it carries a token this cycle.
struct NetState {
  double value = 0.0;
  bool token = false;
};

/// The SCHED-001 post-mortem of a deadlocked cycle: the blocked components
/// in the order given, what each waits on, the dependency cycle among them
/// and the last value of every net they wait on, read by `state(net)`.
/// Nets are listed in name order, so every engine writes one text per
/// design. `origin` names the engine.
diag::Diagnostic deadlock_postmortem(
    const char* origin, std::uint64_t cycle, std::vector<Blocked> blocked,
    const std::function<NetState(const std::string&)>& state);

/// The phase-2 core: an engine's run-scoped state, phase 2 over an access
/// policy, and the run loop. `origin` names the engine in diagnostics.
class Phase2 {
 public:
  explicit Phase2(const char* origin) : origin(origin) {}

  /// One cycle's phase 2.
  struct Pass {
    int eval_iterations = 0;   ///< the walk and every sweep
    int fired_components = 0;  ///< firings (lane firings on the batch)
    bool levelized = false;    ///< the walk alone finished the cycle
    bool missed = false;       ///< the walk ran and the sweep had to finish
  };

  const char* origin;
  ScheduleMode mode = ScheduleMode::kAuto;
  int max_iters = 64;              ///< passes before declaring a deadlock
  int walk_misses = 0;             ///< in a row; two turn the walk off
  bool sched002_reported = false;  ///< the unlevelizable SCHED-002 is out
  bool watchdog_tripped = false;   ///< the last run() stopped on a watchdog
  Profile profile;
  // Running totals; run() reports their change.
  std::uint64_t firings = 0;
  std::uint64_t retry_passes = 0;
  std::uint64_t levelized_cycles = 0;

  void attach_diagnostics(diag::DiagEngine& de) { diag_ = &de; }
  diag::DiagEngine& diagnostics() { return diag_ != nullptr ? *diag_ : own_diag_; }

  /// Whether this cycle starts with the level walk. `offsets` are the
  /// level order's level boundaries, empty when the system has none
  /// (`reason` says why); a kLevelized request then reports SCHED-002 once.
  bool walks(const std::vector<std::size_t>& offsets, const std::string& reason,
             std::uint64_t cycle) {
    if (mode == ScheduleMode::kIterative) return false;
    if (offsets.empty()) {
      if (mode == ScheduleMode::kLevelized && !sched002_reported)
        report_unlevelizable(reason, cycle);
      return false;
    }
    return walk_misses < 2;
  }

  /// Record a walk's outcome: a hit counts a levelized cycle and clears the
  /// miss count; a miss (the sweep had to finish the cycle) is SCHED-002.
  void walk_outcome(bool hit, std::uint64_t cycle) {
    if (!hit) return report_walk_miss(cycle);
    walk_misses = 0;
    ++levelized_cycles;
  }

  /// Run phase 2 over `a`: the walk when walks() allows it, then the sweep
  /// for whatever it left. Throws DeadlockError on a combinational loop.
  /// `a` is taken by value: a policy is a few pointers, and a local copy
  /// stays in registers across the components' calls.
  template <class A>
  Pass evaluate(A a, const std::vector<std::size_t>& offsets, const std::string& reason,
                std::uint64_t cycle) {
    Pass p;
    const bool timed = profile.on();
    const bool walked = walks(offsets, reason, cycle);
    // The walk: producers precede consumers, so one pass fires everything.
    if (walked) {
      for (std::size_t k = 0, steps = offsets.back(); k < steps; ++k) {
        const std::size_t c = a.slot(k);
        if (!a.done(c)) fire(a, c, p, timed);
      }
    }
    p.eval_iterations = walked ? 1 : 0;
    // The sweep, also after a walk that left a component blocked (bindings
    // changed after levelization): it skips what fired, finishes the rest.
    if (!walked || any_blocked(a)) {
      const std::size_t n = a.count();
      for (;;) {
        bool progress = false;
        bool all_done = true;
        for (std::size_t c = 0; c < n; ++c) {
          if (a.done(c)) continue;
          if (fire(a, c, p, timed)) progress = true;
          if (!a.done(c)) all_done = false;
        }
        ++p.eval_iterations;
        if (all_done) break;
        if (!progress || p.eval_iterations >= max_iters) {
          // Only opportunistic untimed blocks may stay unfired.
          if (any_blocked(a)) deadlock(a.postmortem());
          break;
        }
      }
    }
    firings += static_cast<std::uint64_t>(p.fired_components);
    retry_passes += static_cast<std::uint64_t>(p.eval_iterations - 1);
    if (walked) {
      // Reported once the sweep recovered: when it deadlocks too, SCHED-001
      // is the real story.
      p.levelized = p.eval_iterations == 1;
      p.missed = !p.levelized;
      walk_outcome(p.levelized, cycle);
    }
    return p;
  }

  /// Report the SCHED-001 post-mortem `d` and throw DeadlockError.
  [[noreturn]] void deadlock(diag::Diagnostic d);

  /// The run loop of every cycle engine. Under `opts`' scoped overrides
  /// (diagnostics, schedule mode, profiling over `ncomps` components),
  /// restored even when a cycle throws, `step()` simulates up to
  /// opts.cycles cycles. It stops early when the engine's total cycle
  /// count `cycles()` reaches opts.cycle_budget (WATCHDOG-001) or
  /// opts.wall_clock_s has elapsed (WATCHDOG-002), and calls
  /// opts.on_cycle_end after each cycle and opts.on_checkpoint every
  /// opts.checkpoint_every cycles with the total cycle count. `name(i)`
  /// names component i in RunResult::timing.
  template <class Cycles, class Step, class Name>
  RunResult run(const RunOptions& opts, std::size_t ncomps, const Cycles& cycles,
                const Step& step, const Name& name) {
    struct Restore {
      Phase2* p;
      diag::DiagEngine* diag;
      ScheduleMode mode;
      ~Restore() {
        p->diag_ = diag;
        p->mode = mode;
        p->profile.reset(false, 0);
      }
    } restore{this, diag_, mode};
    if (opts.diagnostics != nullptr) diag_ = opts.diagnostics;
    mode = opts.schedule;
    profile.reset(opts.profile, ncomps);

    RunResult r;
    const std::uint64_t firings0 = firings, retries0 = retry_passes, levelized0 = levelized_cycles;
    watchdog_tripped = false;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < opts.cycles; ++i) {
      if (opts.cycle_budget != 0 && cycles() >= opts.cycle_budget) {
        trip(r, opts, StopReason::kCycleBudget, cycles());
        break;
      }
      // Sampled every cycle: a cycle is orders of magnitude heavier than
      // one steady_clock read.
      if (opts.wall_clock_s > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() >=
              opts.wall_clock_s) {
        trip(r, opts, StopReason::kWallClock, cycles());
        break;
      }
      step();
      ++r.cycles;
      if (opts.on_cycle_end) opts.on_cycle_end(cycles());
      if (opts.checkpoint_every != 0 && opts.on_checkpoint &&
          (i + 1) % opts.checkpoint_every == 0) {
        opts.on_checkpoint(cycles());
        ++r.checkpoints;
      }
    }
    r.firings = firings - firings0;
    r.retry_passes = retry_passes - retries0;
    r.levelized_cycles = levelized_cycles - levelized0;
    r.schedule = (r.levelized_cycles > 0 && r.levelized_cycles * 2 >= r.cycles)
                     ? ScheduleMode::kLevelized
                     : ScheduleMode::kIterative;
    if (opts.profile) r.timing = profile.timing(name);
    return r;
  }

 private:
  // a.fire(c), timed into the profile when `timed`.
  template <class A>
  bool fire(A& a, std::size_t c, Pass& p, bool timed) {
    Fired f;
    if (timed) {
      const Profile::Clock::time_point t0 = Profile::Clock::now();
      f = a.fire(c);
      profile.add(c, static_cast<std::uint64_t>(f.firings), t0);
    } else {
      f = a.fire(c);
    }
    p.fired_components += f.firings;
    return f.progress;
  }

  template <class A>
  static bool any_blocked(const A& a) {
    for (std::size_t c = 0; c < a.count(); ++c)
      if (a.blocked(c)) return true;
    return false;
  }

  void report_unlevelizable(const std::string& reason, std::uint64_t cycle);
  void report_walk_miss(std::uint64_t cycle);
  /// A watchdog stop: WATCHDOG-001/002 at total cycle `cycle`.
  void trip(RunResult& r, const RunOptions& opts, StopReason why, std::uint64_t cycle);

  diag::DiagEngine* diag_ = nullptr;
  diag::DiagEngine own_diag_;
};

}  // namespace asicpp::sched
