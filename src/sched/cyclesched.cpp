#include "sched/cyclesched.h"

#include <chrono>
#include <set>
#include <sstream>

#include "ckpt/snapshot.h"
#include "sfg/eval.h"
#include "sfg/sfg.h"

namespace asicpp::sched {

Net& CycleScheduler::net(const std::string& name) {
  auto it = nets_.find(name);
  if (it == nets_.end()) {
    it = nets_.emplace(name, std::make_unique<Net>(name)).first;
    net_list_.push_back(it->second.get());
  }
  return *it->second;
}

diag::Diagnostic CycleScheduler::deadlock_postmortem() const {
  diag::Diagnostic d;
  d.severity = diag::Severity::kFatal;
  d.code = "SCHED-001";
  d.component = "cycle scheduler";
  d.cycle = clk_->cycle();

  std::vector<Component*> blocked;
  for (auto* c : comps_) {
    if (c->must_fire()) blocked.push_back(c);
  }

  std::string names;
  for (const auto* c : blocked) names += (names.empty() ? "" : ", ") + c->name();
  d.message = "combinational deadlock, unfired components: " + names;

  // What each blocked component is waiting for.
  std::set<const Net*> involved;
  for (const auto* c : blocked) {
    std::string waits;
    for (const Net* n : c->waiting_nets()) {
      involved.insert(n);
      waits += (waits.empty() ? "" : ", ") + ("'" + n->name() + "'");
    }
    d.note("component '" + c->name() + "' waits on net" +
           (waits.empty() ? "s: (none — iteration bound too low?)" : "(s): " + waits));
  }

  // The blocking dependency cycle: edge A -> B when A waits on a net B
  // would produce.
  std::vector<std::vector<int>> adj(blocked.size());
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    for (const Net* n : blocked[i]->waiting_nets()) {
      for (std::size_t j = 0; j < blocked.size(); ++j) {
        if (i == j) continue;
        for (const Net* p : blocked[j]->pending_output_nets()) {
          if (p == n) adj[i].push_back(static_cast<int>(j));
        }
      }
    }
  }
  const auto cyc = diag::find_cycle(adj);
  if (!cyc.empty()) {
    std::string chain = blocked[static_cast<std::size_t>(cyc[0])]->name();
    for (std::size_t k = 1; k < cyc.size(); ++k) {
      const auto* from = blocked[static_cast<std::size_t>(cyc[k - 1])];
      const auto* to = blocked[static_cast<std::size_t>(cyc[k])];
      // Label the edge with a net `from` waits on that `to` produces.
      std::string via;
      for (const Net* n : from->waiting_nets()) {
        for (const Net* p : to->pending_output_nets()) {
          if (p == n) via = n->name();
        }
      }
      chain += " -[" + via + "]-> " + to->name();
    }
    d.note("dependency cycle: " + chain);
  }

  // Last-known values of every net in the blocking set.
  for (const Net* n : involved) {
    std::ostringstream os;
    os << "net '" << n->name() << "' last value = " << n->last().value()
       << (n->has_token() ? " (token present)" : " (no token this cycle)");
    d.note(os.str());
  }
  return d;
}

CycleScheduler::CycleStats CycleScheduler::cycle() {
  const std::uint64_t stamp = sfg::new_eval_stamp();
  CycleStats stats;

  for (Net* n : net_list_) n->begin_cycle();

  // Phase 0: transition selection.
  for (auto* c : comps_) c->begin_cycle(stamp);

  // Phase 1: token production.
  for (auto* c : comps_) c->produce_tokens(stamp);

  const auto fire = [&](Component* c) {
    if (!profile_) return c->try_fire(stamp);
    const auto t0 = std::chrono::steady_clock::now();
    const bool f = c->try_fire(stamp);
    auto& [firings, seconds] = prof_[c];
    seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (f) ++firings;
    return f;
  };

  // Phase 2, levelized: walk the cached static order once — every producer
  // precedes its consumers, so one pass fires everything with zero retries.
  bool need_iterative = true;
  bool walk_missed = false;
  if (mode_ != ScheduleMode::kIterative) {
    refresh_schedule();
    if (mode_ == ScheduleMode::kLevelized && !schedule_.valid() && !sched002_reported_) {
      auto& d = diagnostics().warning(
          "SCHED-002", "cycle scheduler",
          "levelized schedule requested but the system cannot be statically "
          "ordered (" + schedule_.reason() + "); running iteratively");
      d.cycle = clk_->cycle();
      sched002_reported_ = true;
    }
    if (schedule_.valid() && schedule_failures_ < 2) {
      // Level-parallel walk: partition each level across the pool with a
      // barrier per level. Actions within one level read nets of earlier
      // levels and write disjoint nets, so the result is bit-identical to
      // the serial walk. Profiled runs keep the serial walk (the timing
      // map is single-owner), as does a scheduler already running on a
      // pool lane (no nested regions).
      const bool par_walk = threads_ > 1 && !profile_ &&
                            !par::Pool::in_parallel_region();
      if (par_walk) {
        const auto& order = schedule_.order();
        const auto& offs = schedule_.level_offsets();
        std::atomic<int> fired{0};
        for (std::size_t l = 0; l + 1 < offs.size(); ++l) {
          const std::size_t b = offs[l], e = offs[l + 1];
          if (e - b < kMinParallelWidth) {
            for (std::size_t i = b; i < e; ++i) {
              if (!order[i].comp->done() && order[i].comp->try_fire(stamp))
                fired.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            par::Pool::shared().parallel_for(
                e - b,
                [&](std::size_t k) {
                  Component* c = order[b + k].comp;
                  if (!c->done() && c->try_fire(stamp))
                    fired.fetch_add(1, std::memory_order_relaxed);
                },
                threads_);
          }
        }
        stats.fired_components += fired.load(std::memory_order_relaxed);
      } else {
        for (const auto& slot : schedule_.order()) {
          if (!slot.comp->done() && fire(slot.comp)) ++stats.fired_components;
        }
      }
      ++stats.eval_iterations;
      need_iterative = false;
      for (auto* c : comps_) {
        if (c->must_fire()) {
          need_iterative = true;
          break;
        }
      }
      if (need_iterative) {
        // The static order no longer matches the system (e.g. bindings
        // changed after levelization). Finish the cycle iteratively; the
        // SCHED-002 report waits until recovery succeeds — when the sweep
        // deadlocks too, SCHED-001 is the real story.
        walk_missed = true;
      } else {
        stats.levelized = true;
        schedule_failures_ = 0;
      }
    }
  }

  // Phase 2, iterative evaluation (also the fallback path after a missed
  // level walk: fired components are skipped, the sweep finishes the rest).
  if (need_iterative) {
    bool all_done = false;
    while (!all_done) {
      bool progress = false;
      all_done = true;
      for (auto* c : comps_) {
        if (c->done()) continue;
        if (fire(c)) {
          progress = true;
          ++stats.fired_components;
        }
        if (!c->done()) all_done = false;
      }
      ++stats.eval_iterations;
      if (all_done) break;
      if (!progress || stats.eval_iterations >= max_iters_) {
        // Anything still obliged to fire marks a combinational loop.
        bool any_blocked = false;
        for (auto* c : comps_) {
          if (c->must_fire()) any_blocked = true;
        }
        if (any_blocked) {
          diag::Diagnostic d = deadlock_postmortem();
          diagnostics().report(d);
          throw DeadlockError(std::move(d));
        }
        break;  // only opportunistic untimed blocks remain unfired
      }
    }
    if (walk_missed) {
      ++schedule_failures_;
      auto& d = diagnostics().warning(
          "SCHED-002", "cycle scheduler",
          "schedule invalidated: the static level walk left components "
          "unfired; cycle recovered iteratively and the order will be "
          "re-levelized" +
              std::string(schedule_failures_ >= 2
                              ? " (repeat miss — reverting to iterative mode)"
                              : ""));
      d.cycle = clk_->cycle();
      schedule_stale_ = true;
    }
  }

  // Phase 3: register update.
  for (auto* c : comps_) c->end_cycle(stamp);
  clk_->advance();

  for (auto& m : monitors_) m(clk_->cycle());
  return stats;
}

std::vector<Net*> CycleScheduler::all_nets() const {
  std::vector<Net*> out;
  out.reserve(nets_.size());
  for (const auto& [_, n] : nets_) out.push_back(n.get());
  return out;
}

RunResult CycleScheduler::run(const RunOptions& opts) {
  // Scoped overrides: options replace the sticky engine state for this run
  // only, restored even when a cycle throws DeadlockError.
  struct Restore {
    CycleScheduler* s;
    diag::DiagEngine* diag;
    ScheduleMode mode;
    unsigned threads;
    ~Restore() {
      s->diag_ = diag;
      s->mode_ = mode;
      s->threads_ = threads;
      s->profile_ = false;
    }
  } restore{this, diag_, mode_, threads_};
  if (opts.diagnostics != nullptr) diag_ = opts.diagnostics;
  mode_ = opts.schedule;
  set_threads(opts.nthreads);
  profile_ = opts.profile;
  prof_.clear();
  set_pass_options(opts.passes);

  // The interpreted engine keeps no running totals; tally the per-cycle
  // stats for the shared loop.
  CycleTotals tally;
  RunResult r = run_cycles(
      opts, "cycle scheduler", diagnostics(), watchdog_tripped_,
      [&] {
        tally.cycles = clk_->cycle();
        return tally;
      },
      [&] {
        const CycleStats st = cycle();
        tally.firings += static_cast<std::uint64_t>(st.fired_components);
        if (st.eval_iterations > 1)
          tally.retry_passes += static_cast<std::uint64_t>(st.eval_iterations - 1);
        if (st.levelized) ++tally.levelized_cycles;
      });
  if (opts.profile) {
    r.timing.reserve(comps_.size());
    for (auto* c : comps_) {
      const auto it = prof_.find(c);
      if (it == prof_.end()) continue;
      r.timing.push_back(ComponentTiming{c->name(), it->second.first, it->second.second});
    }
  }
  return r;
}

std::uint64_t CycleScheduler::state_hash() const {
  ckpt::Hasher h;
  h.u64(state_salt_);
  h.str("cycle-scheduler");
  h.u32(static_cast<std::uint32_t>(comps_.size()));
  for (const Component* c : comps_) h.str(c->name());
  h.u32(static_cast<std::uint32_t>(net_list_.size()));
  for (const Net* n : net_list_) h.str(n->name());
  const auto& regs = clk_->registers();
  h.u32(static_cast<std::uint32_t>(regs.size()));
  for (const auto& n : regs) {
    h.str(n->name);
    h.f64(n->init);
    h.u8(n->has_fmt ? 1 : 0);
    if (n->has_fmt) h.fmt(n->fmt);
  }
  return h.digest();
}

void CycleScheduler::save_state(std::ostream& os) const {
  ckpt::Writer w(os);
  w.header(ckpt::EngineKind::kCycleScheduler, state_hash(), clk_->cycle());
  // Registers in clock-enrollment order. Snapshots are taken at cycle
  // boundaries, where every pending next-value has been committed, so the
  // current value is the whole register state.
  const auto& regs = clk_->registers();
  w.u32(static_cast<std::uint32_t>(regs.size()));
  for (const auto& n : regs) {
    w.str(n->name);
    w.fixed(n->value);
  }
  w.u32(static_cast<std::uint32_t>(net_list_.size()));
  for (const Net* n : net_list_) n->save_state(w);
  w.u32(static_cast<std::uint32_t>(comps_.size()));
  for (const Component* c : comps_) {
    w.str(c->name());
    c->save_state(w);
  }
  // Levelized-schedule cursor: the walk-miss counter and its one-shot
  // report flag (the level order itself rebuilds lazily from structure).
  w.i32(schedule_failures_);
  w.u8(sched002_reported_ ? 1 : 0);
  w.end();
}

void CycleScheduler::restore_state_impl(std::istream& is) {
  ckpt::Reader r(is, "cycle scheduler");
  const std::uint64_t cyc =
      r.header(ckpt::EngineKind::kCycleScheduler, state_hash());

  const auto& regs = clk_->registers();
  const std::size_t nregs = r.count(1u << 24);
  if (nregs != regs.size()) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"snapshot carries " + std::to_string(nregs) +
            " register(s), this system has " + std::to_string(regs.size())});
  }
  for (const auto& n : regs) {
    const std::string name = r.str();
    if (name != n->name) {
      r.fail("CKPT-004", "truncated or corrupt snapshot stream",
             {"register record names '" + name + "' where '" + n->name +
              "' was expected"});
    }
    n->value = r.fixed();
    n->next = fixpt::Fixed{};
    n->next_set = false;
  }

  const std::size_t nnets = r.count(1u << 24);
  if (nnets != net_list_.size()) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"snapshot carries " + std::to_string(nnets) +
            " net(s), this system has " + std::to_string(net_list_.size())});
  }
  for (Net* n : net_list_) n->restore_state(r);

  const std::size_t ncomps = r.count(1u << 24);
  if (ncomps != comps_.size()) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"snapshot carries " + std::to_string(ncomps) +
            " component(s), this system has " + std::to_string(comps_.size())});
  }
  for (Component* c : comps_) {
    const std::string name = r.str();
    if (name != c->name()) {
      r.fail("CKPT-004", "truncated or corrupt snapshot stream",
             {"component record names '" + name + "' where '" + c->name() +
              "' was expected"});
    }
    c->restore_state(r);
  }

  schedule_failures_ = r.i32();
  sched002_reported_ = r.u8() != 0;
  r.end();
  clk_->set_cycle(cyc);
}

void CycleScheduler::restore_state(std::istream& is) {
  // Transactional restore: snapshot the current state first, and roll back
  // on any failure — a bad snapshot must leave the engine untouched. The
  // rollback snapshot is self-produced against the same structure, so
  // re-applying it cannot fail.
  std::ostringstream backup;
  save_state(backup);
  try {
    restore_state_impl(is);
  } catch (...) {
    std::istringstream b(backup.str());
    restore_state_impl(b);
    throw;
  }
}

void CycleScheduler::set_pass_options(const opt::PassOptions& p) {
  std::vector<sfg::Sfg*> sfgs;
  for (auto* c : comps_) c->collect_sfgs(sfgs);
  for (auto* s : sfgs) s->set_pass_options(p);
}

}  // namespace asicpp::sched
