// Host-parallel execution substrate.
//
// The compiled simulator exists to make cycle-true simulation "fast enough
// to explore the design space" (paper, section 4); on a modern host that
// also means using every core. This module is the one place threads are
// created: a small work-stealing pool shared by the batched differential
// driver (verify/diffrun), the shrinker (verify/shrink) and the fuzzer
// front end (tools/asicpp-fuzz). spawn_background() adds one thread per
// long-running task that must not hold up its caller (the jit's
// background builds).
//
// Design rules, in priority order:
//
//   1. Determinism. Parallel results must be bit-identical to serial ones
//      regardless of lane count. parallel_for only expresses *independent*
//      work (distinct slots/nets/specs); ordered_map / ordered_reduce fold
//      results in index order on the calling thread; when several tasks
//      throw, the lowest-index exception is the one rethrown.
//   2. No nesting. A parallel region cannot open another one — PAR-001 is
//      thrown instead of deadlocking or silently serializing. Callers that
//      may run on a worker lane (the shrinker inside a fuzz worker) check
//      Pool::in_parallel_region() and take their serial path, which is
//      required to be behaviourally identical.
//   3. Explicit sharing. Anything mutated inside a region is per-task
//      (slots, per-worker DiagEngine sinks). Cross-thread misuse of
//      single-owner objects trips PAR-002 (see diag::DiagEngine,
//      sim::Recorder).
//
// Stable code registry (documented in DESIGN.md section 9):
//   PAR-001 nested parallel region
//   PAR-002 cross-thread use of a single-owner object
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace asicpp::par {

/// A fixed set of execution lanes: the calling thread plus lanes()-1
/// persistent helper threads. Work is distributed as index chunks over
/// per-lane deques; a lane that drains its own deque steals from the back
/// of the others (classic work stealing, coarse chunks, mutex-per-deque —
/// the regions this pool serves are microseconds to seconds long, not
/// nanoseconds).
class Pool {
 public:
  /// Execution lanes to create (including the caller's). 0 = one lane per
  /// hardware thread.
  explicit Pool(unsigned lanes = 0);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  unsigned lanes() const { return lanes_; }

  /// The CPUs this thread may run on (its sched_getaffinity mask), so a
  /// process held to fewer CPUs by taskset or a cgroup cpuset sizes itself
  /// to them; max(1, std::thread::hardware_concurrency()) when the mask
  /// cannot be read.
  static unsigned hardware_lanes();

  /// True on a thread currently executing parallel_for tasks (including
  /// the calling thread inside its own region). Serial fallbacks key off
  /// this instead of attempting a nested region.
  static bool in_parallel_region();

  /// Process-wide pool, sized to every hardware thread (at least 8 lanes,
  /// so parallel paths stay genuinely multi-threaded — and testable — on
  /// small machines; idle lanes cost one blocked thread each).
  static Pool& shared();

  /// Run body(i) for every i in [0, n). The caller participates; at most
  /// min(width, lanes()) lanes execute (width 0 = all lanes). Blocks until
  /// every task finished. When tasks throw, all tasks still run and the
  /// exception of the lowest task index is rethrown (deterministic under
  /// any schedule). Throws Error{PAR-001} when called from inside a
  /// parallel region.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    unsigned width = 0);

  /// Deterministic parallel map: out[i] = fn(i), computed on the pool,
  /// returned in index order. R must be default-constructible.
  template <typename R>
  std::vector<R> ordered_map(std::size_t n,
                             const std::function<R(std::size_t)>& fn,
                             unsigned width = 0) {
    std::vector<R> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); }, width);
    return out;
  }

  /// Deterministic ordered reduce: results of fn are folded strictly in
  /// ascending index order on the calling thread, so non-commutative folds
  /// (string concatenation, diagnostics merging) are schedule-independent.
  template <typename R, typename Fold>
  R ordered_reduce(std::size_t n, R init, const std::function<R(std::size_t)>& fn,
                   Fold fold, unsigned width = 0) {
    std::vector<R> parts = ordered_map<R>(n, fn, width);
    for (std::size_t i = 0; i < n; ++i) init = fold(std::move(init), std::move(parts[i]));
    return init;
  }

 private:
  struct Job {
    /// Per-lane chunk deques; a chunk is a [begin, end) index range.
    struct Chunk {
      std::size_t begin;
      std::size_t end;
    };
    std::vector<std::deque<Chunk>> queues;
    std::vector<std::unique_ptr<std::mutex>> queue_mu;
    const std::function<void(std::size_t)>* body = nullptr;
    unsigned width = 1;
    std::atomic<std::size_t> left{0};  ///< tasks not yet finished
    std::mutex err_mu;
    std::exception_ptr err;
    std::size_t err_index = 0;
    std::mutex done_mu;
    std::condition_variable done_cv;
  };

  void worker_main(unsigned lane);
  static void participate(Job& job, unsigned lane);

  unsigned lanes_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Job> job_;       ///< current job, null when idle
  std::uint64_t generation_ = 0;   ///< bumped per job so lanes run each once
  bool stop_ = false;
};

/// Run `task` on a thread of its own and return at once. For work that
/// must outlive the request that started it: the jit's background builds.
/// No thread is ever detached: a finished task's thread is joined by a
/// later call, and every task still running is joined when the process
/// exits (main returning, or exit()). `task` must not throw.
void spawn_background(std::function<void()> task);

}  // namespace asicpp::par
