#include "df/dynsched.h"

#include <algorithm>
#include <chrono>

#include "ckpt/snapshot.h"

namespace asicpp::df {

std::size_t DynamicScheduler::sweep() {
  std::size_t fired = 0;
  for (auto* p : procs_) {
    if (p->can_fire()) {
      p->run_once();
      ++fired;
    }
  }
  return fired;
}

RunResult DynamicScheduler::run(const RunOptions& opts) {
  // The diagnostics sink is the one override; restored even when a process
  // throws.
  struct Restore {
    DynamicScheduler* s;
    diag::DiagEngine* diag;
    ~Restore() { s->diag_ = diag; }
  } restore{this, diag_};
  if (opts.diagnostics != nullptr) diag_ = opts.diagnostics;
  Profile profile;
  profile.reset(opts.profile, procs_.size());
  const std::size_t max_firings = opts.firings != 0 ? opts.firings : 1'000'000;
  const double wall_limit = opts.wall_clock_s;

  RunResult out;
  Result r;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t sweeps = 0;
  bool wall_tripped = false;
  while (r.firings < max_firings && !wall_tripped) {
    bool fired = false;
    for (std::size_t pi = 0; pi < procs_.size(); ++pi) {
      Process* p = procs_[pi];
      if (r.firings >= max_firings) break;
      if (wall_limit > 0.0) {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        if (elapsed.count() >= wall_limit) {
          wall_tripped = true;
          break;
        }
      }
      if (p->can_fire()) {
        if (profile.on()) {
          const Profile::Clock::time_point t0 = Profile::Clock::now();
          p->run_once();
          profile.add(pi, 1, t0);
        } else {
          p->run_once();
        }
        ++r.firings;
        fired = true;
      }
    }
    ++sweeps;
    if (opts.on_cycle_end) opts.on_cycle_end(sweeps);
    if (opts.checkpoint_every != 0 && opts.on_checkpoint && sweeps % opts.checkpoint_every == 0) {
      opts.on_checkpoint(sweeps);
      ++out.checkpoints;
    }
    if (!fired) break;
  }
  r.wall_clock_tripped = wall_tripped;
  for (auto* q : watched_) {
    if (!q->empty()) r.stranded.push_back(q->name());
  }
  r.deadlocked = !r.stranded.empty();
  for (const auto* q : watched_)
    r.queues.push_back(QueueSnapshot{q->name(), q->size(), q->capacity(), q->total_pushed()});
  for (const auto* p : procs_) {
    if (p->can_fire()) continue;  // fireable processes are not blocked
    r.blocked.push_back(BlockedProcess{p->name(), p->blocked_reason()});
  }

  // Watchdog: still-fireable processes mean the stop was the budget or the
  // wall clock, not quiescence.
  bool fireable = false;
  for (const auto* p : procs_) {
    if (p->can_fire()) fireable = true;
  }
  if (fireable && (r.firings >= max_firings || wall_tripped)) {
    r.watchdog_tripped = true;
    auto& d = diagnostics().fatal(
        wall_tripped ? "WATCHDOG-002" : "WATCHDOG-001", "dataflow scheduler",
        wall_tripped
            ? "wall-clock limit (" + std::to_string(wall_limit) +
                  " s) exceeded after " + std::to_string(r.firings) +
                  " firings with processes still ready; stopping run"
            : "firing budget (" + std::to_string(max_firings) +
                  ") exhausted with processes still ready; stopping run");
    for (const auto& q : r.queues) {
      d.note("queue '" + q.queue + "': " + std::to_string(q.tokens) +
             " token(s), " + std::to_string(q.total_pushed) + " pushed in total");
    }
  } else if (r.deadlocked) {
    auto& d = diagnostics().error(
        "DF-001", "dataflow scheduler",
        "deadlock: no process can fire but tokens are stranded on " +
            std::to_string(r.stranded.size()) + " watched queue(s)");
    for (const auto& q : r.queues) {
      d.note("queue '" + q.queue + "': " + std::to_string(q.tokens) +
             " token(s), " + std::to_string(q.total_pushed) + " pushed in total");
    }
    for (const auto& b : r.blocked) {
      d.note("process '" + b.process + "' blocked: " + b.waiting_on);
    }
  }

  out.firings = r.firings;
  out.schedule = ScheduleMode::kIterative;  // dataflow firing order is dynamic
  if (r.watchdog_tripped) {
    out.stop = r.wall_clock_tripped ? StopReason::kWallClock : StopReason::kFiringBudget;
  } else {
    out.stop = r.deadlocked ? StopReason::kDeadlock : StopReason::kQuiescent;
  }
  if (opts.profile)
    out.timing = profile.timing([this](std::size_t i) { return procs_[i]->name(); });
  last_ = std::move(r);
  return out;
}

std::vector<Queue*> DynamicScheduler::reachable_queues() const {
  std::vector<Queue*> qs;
  const auto add = [&qs](Queue* q) {
    if (std::find(qs.begin(), qs.end(), q) == qs.end()) qs.push_back(q);
  };
  for (const Process* p : procs_) {
    for (std::size_t i = 0; i < p->num_inputs(); ++i) add(&p->in(i));
    for (std::size_t i = 0; i < p->num_outputs(); ++i) add(&p->out(i));
  }
  for (Queue* q : watched_) add(q);
  return qs;
}

std::uint64_t DynamicScheduler::state_hash() const {
  ckpt::Hasher h;
  h.u64(state_salt_);
  h.str("dataflow-scheduler");
  h.u32(static_cast<std::uint32_t>(procs_.size()));
  for (const Process* p : procs_) {
    h.str(p->name());
    h.u32(static_cast<std::uint32_t>(p->num_inputs()));
    for (std::size_t i = 0; i < p->num_inputs(); ++i)
      h.u64(p->in_rate(i));
    h.u32(static_cast<std::uint32_t>(p->num_outputs()));
    for (std::size_t i = 0; i < p->num_outputs(); ++i)
      h.u64(p->out_rate(i));
  }
  const auto qs = reachable_queues();
  h.u32(static_cast<std::uint32_t>(qs.size()));
  for (const Queue* q : qs) {
    h.str(q->name());
    h.u64(q->capacity());
  }
  return h.digest();
}

void DynamicScheduler::save_state(std::ostream& os) const {
  std::uint64_t total_firings = 0;
  for (const Process* p : procs_) total_firings += p->firings();

  ckpt::Writer w(os);
  w.header(ckpt::EngineKind::kDataflow, state_hash(), total_firings);
  const auto qs = reachable_queues();
  w.u32(static_cast<std::uint32_t>(qs.size()));
  for (const Queue* q : qs) {
    w.str(q->name());
    w.u32(static_cast<std::uint32_t>(q->size()));
    for (const Token& t : q->contents()) w.fixed(t);
    w.u64(q->total_pushed());
  }
  w.u32(static_cast<std::uint32_t>(procs_.size()));
  for (const Process* p : procs_) w.u64(p->firings());
  w.end();
}

void DynamicScheduler::restore_state_impl(std::istream& is) {
  ckpt::Reader r(is, "dataflow scheduler");
  r.header(ckpt::EngineKind::kDataflow, state_hash());

  const auto qs = reachable_queues();
  std::vector<std::pair<std::deque<Token>, std::size_t>> staged;
  staged.reserve(r.count(1u << 20, qs.size(), "queue(s), this system has"));
  for (const Queue* q : qs) {
    r.name("queue", q->name());
    const std::size_t n = r.count(1u << 24);
    std::deque<Token> tokens;
    for (std::size_t i = 0; i < n; ++i) tokens.push_back(r.fixed());
    const auto pushed = static_cast<std::size_t>(r.u64());
    staged.emplace_back(std::move(tokens), pushed);
  }
  std::vector<std::uint64_t> firings(
      r.count(1u << 20, procs_.size(), "process(es), this system has"));
  for (auto& f : firings) f = r.u64();
  r.end();

  // Everything parsed — apply.
  for (std::size_t i = 0; i < qs.size(); ++i)
    qs[i]->restore(std::move(staged[i].first), staged[i].second);
  for (std::size_t i = 0; i < procs_.size(); ++i)
    procs_[i]->set_firings(static_cast<std::size_t>(firings[i]));
}

void DynamicScheduler::restore_state(std::istream& is) {
  ckpt::restore_or_roll_back(
      is, [this](std::ostream& os) { save_state(os); },
      [this](std::istream& in) { restore_state_impl(in); });
}

}  // namespace asicpp::df
