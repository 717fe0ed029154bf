#include "sched/cyclesched.h"

#include <algorithm>

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

Net* CycleScheduler::find_net(const std::string& name) const {
  const auto it = nets_.find(name);
  return it == nets_.end() ? nullptr : it->second.get();
}

// Phase-2 access policy (sched/phase2.h) over the component objects. The
// component list and level order do not change within a cycle.
struct CycleScheduler::Access {
  const CycleScheduler& s;
  std::uint64_t stamp;
  Component* const* comps = s.comps_.data();
  const Schedule::Slot* order = s.schedule_.order().data();

  std::size_t count() const { return s.comps_.size(); }
  bool done(std::size_t c) const { return comps[c]->done(); }
  Fired fire(std::size_t c) {
    const bool f = comps[c]->try_fire(stamp);
    return Fired{f, f ? 1 : 0};
  }
  bool blocked(std::size_t c) const { return comps[c]->must_fire(); }
  std::size_t slot(std::size_t k) const { return order[k].index; }
  diag::Diagnostic postmortem() const { return s.postmortem(); }
};

diag::Diagnostic CycleScheduler::postmortem() const {
  const auto names = [](const std::vector<const Net*>& nets) {
    std::vector<std::string> v;
    for (const Net* n : nets) v.push_back(n->name());
    return v;
  };
  std::vector<Blocked> blocked;
  for (const Component* c : comps_) {
    if (c->must_fire())
      blocked.push_back(
          Blocked{c->name(), names(c->waiting_nets()), names(c->pending_output_nets())});
  }
  return deadlock_postmortem(core_.origin, clk_->cycle(), std::move(blocked),
                             [this](const std::string& name) {
                               const Net& n = *nets_.at(name);
                               return NetState{n.last().value(), n.has_token()};
                             });
}

CycleScheduler::CycleStats CycleScheduler::cycle() {
  const std::uint64_t stamp = sfg::new_eval_stamp();

  for (Net* n : net_list_) n->begin_cycle();

  // Phase 0: transition selection.
  for (auto* c : comps_) c->begin_cycle(stamp);

  // Phase 1: token production.
  for (auto* c : comps_) c->produce_tokens(stamp);

  // Phase 2 (sched/phase2.h). The level order is built only for a mode
  // that may walk it; a walk miss re-levelizes before the next cycle.
  if (core_.mode != ScheduleMode::kIterative) refresh_schedule();
  const CycleStats st = core_.evaluate(Access{*this, stamp}, schedule_.level_offsets(),
                                       schedule_.reason(), clk_->cycle());
  if (st.missed) schedule_stale_ = true;

  // Phase 3: register update.
  for (auto* c : comps_) c->end_cycle(stamp);
  clk_->advance();

  for (auto& m : monitors_) m(clk_->cycle());
  return st;
}

std::vector<Net*> CycleScheduler::all_nets() const {
  std::vector<Net*> out = net_list_;
  std::sort(out.begin(), out.end(),
            [](const Net* a, const Net* b) { return a->name() < b->name(); });
  return out;
}

RunResult CycleScheduler::run(const RunOptions& opts) {
  return core_.run(
      opts, comps_.size(), [this] { return clk_->cycle(); }, [this] { cycle(); },
      [this](std::size_t i) { return comps_[i]->name(); });
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
  w.i32(core_.walk_misses);
  w.u8(core_.sched002_reported ? 1 : 0);
  w.end();
}

void CycleScheduler::restore_state_impl(std::istream& is) {
  ckpt::Reader r(is, "cycle scheduler");
  const std::uint64_t cyc =
      r.header(ckpt::EngineKind::kCycleScheduler, state_hash());

  const auto& regs = clk_->registers();
  r.count(1u << 24, regs.size(), "register(s), this system has");
  for (const auto& n : regs) {
    r.name("register", n->name);
    n->value = r.fixed();
    n->next = fixpt::Fixed{};
    n->next_set = false;
  }

  r.count(1u << 24, net_list_.size(), "net(s), this system has");
  for (Net* n : net_list_) n->restore_state(r);

  r.count(1u << 24, comps_.size(), "component(s), this system has");
  for (Component* c : comps_) {
    r.name("component", c->name());
    c->restore_state(r);
  }

  core_.walk_misses = r.i32();
  core_.sched002_reported = r.u8() != 0;
  r.end();
  clk_->set_cycle(cyc);
}

void CycleScheduler::restore_state(std::istream& is) {
  ckpt::restore_or_roll_back(
      is, [this](std::ostream& os) { save_state(os); },
      [this](std::istream& in) { restore_state_impl(in); });
}

void CycleScheduler::set_pass_options(const opt::PassOptions& p) {
  std::vector<sfg::Sfg*> sfgs;
  for (auto* c : comps_) c->collect_sfgs(sfgs);
  for (auto* s : sfgs) s->set_pass_options(p);
}

}  // namespace asicpp::sched
