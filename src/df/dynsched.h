// Dynamic data-flow scheduler.
//
// "A data-flow scheduler is used to simulate a system that contains only
// untimed blocks. This scheduler repeatedly checks process firing rules,
// selecting processes for execution as their inputs are available."
// (section 2). Terminates when nothing can fire; distinguishes quiescence
// (no pending tokens) from deadlock (tokens stranded on some queue). On
// deadlock the result carries a post-mortem: per-queue token-count
// snapshots and the firing rule each blocked process is waiting on. A
// firing budget and an optional wall-clock limit act as run watchdogs for
// non-terminating graphs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "df/process.h"
#include "diag/diag.h"
#include "sched/run.h"

namespace asicpp::df {

class DynamicScheduler {
 public:
  void add(Process& p) { procs_.push_back(&p); }

  /// Queues whose occupancy counts as "pending work" for deadlock
  /// classification (typically all internal queues, not external sinks).
  void watch(Queue& q) { watched_.push_back(&q); }

  /// Token-count snapshot of one watched queue at the end of a run.
  struct QueueSnapshot {
    std::string queue;
    std::size_t tokens = 0;
    std::size_t capacity = 0;
    std::size_t total_pushed = 0;  ///< lifetime pushes, for throughput context
  };

  /// A process that cannot fire, and the firing rule it is waiting on.
  struct BlockedProcess {
    std::string process;
    std::string waiting_on;  ///< e.g. "needs 2 token(s) on 'a2b' (has 0)"
  };

  struct Result {
    std::size_t firings = 0;
    bool deadlocked = false;            ///< stopped with tokens stranded
    std::vector<std::string> stranded;  ///< names of non-empty watched queues
    bool watchdog_tripped = false;      ///< stopped by the firing budget / wall clock
    bool wall_clock_tripped = false;    ///< ... and it was the wall clock
    std::vector<QueueSnapshot> queues;      ///< watched-queue state at stop
    std::vector<BlockedProcess> blocked;    ///< post-mortem of unfireable processes
  };

  /// Fire ready processes per `opts` (firing budget, wall clock, hooks,
  /// profiling) — the unified entry point shared with the cycle engines.
  /// Stop reasons: kQuiescent, kDeadlock, kFiringBudget, kWallClock. The
  /// detailed dataflow post-mortem remains available via last_result().
  RunResult run(const RunOptions& opts);

  /// Queue / blocked-process post-mortem of the most recent run().
  const Result& last_result() const { return last_; }

  /// Fire each ready process at most once (one "sweep"); returns #firings.
  std::size_t sweep();

  // --- diagnostics & run watchdogs ---

  void attach_diagnostics(diag::DiagEngine& de) { diag_ = &de; }
  diag::DiagEngine& diagnostics() { return diag_ != nullptr ? *diag_ : own_diag_; }

  // --- checkpoint/restore (see ckpt/snapshot.h) ---

  /// Extra entropy mixed into state_hash() (see
  /// sched::CycleScheduler::set_state_salt).
  void set_state_salt(std::uint64_t salt) { state_salt_ = salt; }

  /// Structural content hash: the salt, each process's name and port
  /// rates, and the name/capacity of every reachable queue.
  std::uint64_t state_hash() const;

  /// Serialize the complete dataflow state — every reachable queue's
  /// tokens and lifetime push count, every process's firing count — at a
  /// sweep boundary. Position is the total firing count.
  void save_state(std::ostream& os) const;

  /// Restore a save_state() snapshot. Throws ckpt::SnapshotError with a
  /// CKPT-001..004 diagnostic on mismatch or corruption; on failure the
  /// scheduler state is left exactly as it was.
  void restore_state(std::istream& is);

 private:
  /// Queues referenced by any process port or watch(), deduplicated in
  /// first-reference order — the serialization order of save_state.
  std::vector<Queue*> reachable_queues() const;
  void restore_state_impl(std::istream& is);

  std::vector<Process*> procs_;
  std::vector<Queue*> watched_;
  Result last_;
  diag::DiagEngine* diag_ = nullptr;
  diag::DiagEngine own_diag_;
  std::uint64_t state_salt_ = 0;
};

}  // namespace asicpp::df
