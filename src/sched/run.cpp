#include "sched/run.h"

#include <chrono>
#include <string>

namespace asicpp {

RunResult run_cycles(const RunOptions& opts, const char* engine,
                     diag::DiagEngine& de, bool& watchdog_tripped,
                     const std::function<CycleTotals()>& totals,
                     const std::function<void()>& step) {
  RunResult r;
  const auto trip = [&](StopReason why, const char* code,
                        const std::string& limit, std::uint64_t done) {
    auto& d = de.fatal(code, engine,
                       limit + " after " + std::to_string(done) + " of " +
                           std::to_string(opts.cycles) +
                           " requested cycles; stopping run");
    d.cycle = totals().cycles;
    watchdog_tripped = true;
    r.stop = why;
  };

  const CycleTotals before = totals();
  watchdog_tripped = false;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < opts.cycles; ++i) {
    if (opts.cycle_budget != 0 && totals().cycles >= opts.cycle_budget) {
      trip(StopReason::kCycleBudget, "WATCHDOG-001",
           "cycle budget (" + std::to_string(opts.cycle_budget) + ") exhausted",
           i);
      break;
    }
    // The wall clock is sampled every cycle; a cycle is orders of magnitude
    // heavier than one steady_clock read.
    if (opts.wall_clock_s > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() >= opts.wall_clock_s) {
        trip(StopReason::kWallClock, "WATCHDOG-002",
             "wall-clock limit (" + std::to_string(opts.wall_clock_s) +
                 " s) exceeded",
             i);
        break;
      }
    }
    step();
    ++r.cycles;
    if (opts.on_cycle_end) opts.on_cycle_end(totals().cycles);
    if (opts.checkpoint_every != 0 && opts.on_checkpoint &&
        (i + 1) % opts.checkpoint_every == 0) {
      opts.on_checkpoint(totals().cycles);
      ++r.checkpoints;
    }
  }
  const CycleTotals after = totals();
  r.firings = after.firings - before.firings;
  r.retry_passes = after.retry_passes - before.retry_passes;
  r.levelized_cycles = after.levelized_cycles - before.levelized_cycles;
  r.schedule = (r.levelized_cycles > 0 && r.levelized_cycles * 2 >= r.cycles)
                   ? ScheduleMode::kLevelized
                   : ScheduleMode::kIterative;
  return r;
}

}  // namespace asicpp
