#include "par/pool.h"

#include <sched.h>

#include <algorithm>
#include <list>

#include "diag/diag.h"

namespace asicpp::par {

namespace {

/// Depth of parallel regions on this thread (0 outside, 1 inside; never 2 —
/// that is PAR-001).
thread_local int tl_region_depth = 0;

struct RegionGuard {
  RegionGuard() { ++tl_region_depth; }
  ~RegionGuard() { --tl_region_depth; }
};

}  // namespace

unsigned Pool::hardware_lanes() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

bool Pool::in_parallel_region() { return tl_region_depth > 0; }

Pool& Pool::shared() {
  static Pool pool(std::max(hardware_lanes(), 8u));
  return pool;
}

Pool::Pool(unsigned lanes) : lanes_(lanes == 0 ? hardware_lanes() : lanes) {
  workers_.reserve(lanes_ - 1);
  for (unsigned lane = 1; lane < lanes_; ++lane)
    workers_.emplace_back([this, lane] { worker_main(lane); });
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Pool::worker_main(unsigned lane) {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    // A lane that wakes after the job drained just finds empty deques; the
    // shared_ptr keeps the job alive until every late riser has looked.
    if (job != nullptr && lane < job->width) participate(*job, lane);
  }
}

void Pool::participate(Job& job, unsigned lane) {
  RegionGuard region;
  const unsigned width = job.width;
  for (;;) {
    Job::Chunk chunk{0, 0};
    // Own deque first (front), then steal from the back of the others.
    for (unsigned k = 0; k < width; ++k) {
      const unsigned victim = (lane + k) % width;
      std::lock_guard<std::mutex> lk(*job.queue_mu[victim]);
      auto& q = job.queues[victim];
      if (q.empty()) continue;
      if (k == 0) {
        chunk = q.front();
        q.pop_front();
      } else {
        chunk = q.back();
        q.pop_back();
      }
      break;
    }
    if (chunk.begin == chunk.end) return;  // every deque empty: done here
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      try {
        (*job.body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(job.err_mu);
        if (!job.err || i < job.err_index) {
          job.err = std::current_exception();
          job.err_index = i;
        }
      }
    }
    const std::size_t ran = chunk.end - chunk.begin;
    if (job.left.fetch_sub(ran, std::memory_order_acq_rel) == ran) {
      std::lock_guard<std::mutex> lk(job.done_mu);
      job.done_cv.notify_all();
    }
  }
}

void Pool::parallel_for(std::size_t n,
                        const std::function<void(std::size_t)>& body,
                        unsigned width) {
  if (in_parallel_region()) {
    throw Error(diag::Diagnostic{
        diag::Severity::kFatal, "PAR-001", "thread pool", diag::kNoCycle,
        "nested parallel region: parallel_for called from inside a "
        "parallel_for task; run the inner loop serially "
        "(Pool::in_parallel_region())",
        {}});
  }
  if (n == 0) return;
  width = std::min(width == 0 ? lanes_ : width, lanes_);
  if (width <= 1 || n == 1) {
    // Same contract as the threaded path: every task runs, and the lowest
    // task index's exception is the one that escapes.
    RegionGuard region;
    std::exception_ptr err;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
    }
    if (err) std::rethrow_exception(err);
    return;
  }

  auto job = std::make_shared<Job>();
  job->body = &body;
  job->width = width;
  job->left.store(n, std::memory_order_relaxed);
  job->queues.resize(width);
  job->queue_mu.reserve(width);
  for (unsigned lane = 0; lane < width; ++lane)
    job->queue_mu.push_back(std::make_unique<std::mutex>());

  // Four chunks per lane keeps stealing meaningful without shredding the
  // iteration space; chunks are dealt round-robin so lane 0's own work is
  // spread across the whole range.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(width) * 4));
  std::size_t begin = 0;
  unsigned lane = 0;
  while (begin < n) {
    const std::size_t end = std::min(n, begin + chunk);
    job->queues[lane].push_back(Job::Chunk{begin, end});
    begin = end;
    lane = (lane + 1) % width;
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = job;
    ++generation_;
  }
  cv_.notify_all();

  participate(*job, 0);
  {
    std::unique_lock<std::mutex> lk(job->done_mu);
    job->done_cv.wait(
        lk, [&] { return job->left.load(std::memory_order_acquire) == 0; });
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (job_ == job) job_ = nullptr;
  }
  if (job->err) std::rethrow_exception(job->err);
}

namespace {

/// The threads of spawn_background(). Each task sets its flag as its last
/// act; the next spawn joins the flagged ones, and the destructor, which
/// runs at process exit, joins the rest.
class Background {
 public:
  ~Background() {
    std::list<Task> tasks;
    {
      std::lock_guard<std::mutex> lk(mu_);
      tasks.swap(tasks_);
    }
    for (Task& t : tasks) t.thread.join();
  }

  void spawn(std::function<void()> fn) {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.remove_if([](Task& t) {
      if (!t.done->load(std::memory_order_acquire)) return false;
      t.thread.join();
      return true;
    });
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread thread([fn = std::move(fn), done] {
      fn();
      done->store(true, std::memory_order_release);
    });
    tasks_.push_back(Task{std::move(thread), std::move(done)});
  }

 private:
  struct Task {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex mu_;
  std::list<Task> tasks_;
};

}  // namespace

void spawn_background(std::function<void()> task) {
  static Background background;
  background.spawn(std::move(task));
}

}  // namespace asicpp::par
