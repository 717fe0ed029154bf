#include "eventsim/elaborate.h"

#include <cmath>
#include <deque>
#include <stdexcept>

#include "diag/diag.h"

#include "hdl/model.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sfg/eval.h"

namespace asicpp::eventsim {

using hdl::CompModel;

struct RtModel::Impl {
  // deque: references to elements stay valid as elaboration appends more
  // (the process closures capture CompModel pointers).
  std::deque<CompModel> models;
  std::vector<sched::Component*> comps;
  std::vector<const sched::Net*> driven_nets;
  std::vector<Signal*> driven_signals;
};

namespace {

/// The SFGs active this cycle for a component, given pre-commit state.
std::vector<sfg::Sfg*> select_actions(const CompModel& m, Signal* instr_sig,
                                      std::uint64_t stamp,
                                      const fsm::Fsm::Transition** taken) {
  if (taken != nullptr) *taken = nullptr;
  switch (m.kind) {
    case CompModel::Kind::kSfg:
      return {m.sfgs.front()};
    case CompModel::Kind::kFsm: {
      const auto* t = m.fsm->select(stamp);
      if (taken != nullptr) *taken = t;
      if (t == nullptr) return {};
      std::vector<sfg::Sfg*> acts;
      for (auto* s : t->actions) acts.push_back(&m.optimized(*s));
      return acts;
    }
    case CompModel::Kind::kDispatch: {
      sfg::Sfg* s = m.table.decode(std::lround(instr_sig->read()));
      if (s == nullptr) return {};
      return {s};
    }
  }
  return {};
}

}  // namespace

RtModel::RtModel(Kernel& k, const sched::CycleScheduler& sys,
                 const std::set<std::string>& pure_untimed)
    : k_(&k), impl_(std::make_shared<Impl>()) {
  clk_ = &k.signal("clk", 0.0);

  for (sched::Net* n : sys.all_nets()) {
    Signal& s = k.signal("net_" + n->name(), n->driven() ? n->drive_value().value() : 0.0);
    nets_.emplace(n->name(), &s);
    // Track every net: a pin can start being driven after elaboration.
    impl_->driven_nets.push_back(n);
    impl_->driven_signals.push_back(&s);
  }

  for (sched::Component* c : sys.components()) {
    if (auto* u = dynamic_cast<sched::UntimedComponent*>(c)) {
      if (!pure_untimed.count(u->name())) {
        diag::Diagnostic d;
        d.severity = diag::Severity::kError;
        d.code = "ELAB-001";
        d.component = "untimed '" + u->name() + "'";
        d.message = "RtModel: untimed component '" + u->name() +
                    "' is not declared pure";
        d.note("only side-effect-free untimed blocks can elaborate to "
               "combinational processes; pass its name in `pure_untimed`");
        throw ElabError(std::move(d));
      }
      std::vector<Signal*> ins, outs;
      for (const sched::Net* n : u->input_nets()) ins.push_back(nets_.at(n->name()));
      for (const sched::Net* n : u->output_nets()) outs.push_back(nets_.at(n->name()));
      auto& p = k.process(u->name() + "_comb", [u, ins, outs] {
        std::vector<fixpt::Fixed>& iv = u->inputs();
        for (std::size_t i = 0; i < ins.size(); ++i) iv[i] = ins[i]->read();
        const std::vector<fixpt::Fixed>& ov = u->invoke();
        for (std::size_t i = 0; i < outs.size(); ++i) outs[i]->write(ov[i].value());
      });
      for (auto* s : ins) k.sensitize(p, *s);
      continue;
    }

    impl_->models.push_back(hdl::build_component_model(*c));
    impl_->comps.push_back(c);
    const CompModel& m = impl_->models.back();
    const CompModel* mp = &impl_->models.back();

    Signal* instr_sig = nullptr;
    if (m.kind == CompModel::Kind::kDispatch) {
      auto* d = dynamic_cast<sched::DispatchComponent*>(c);
      instr_sig = nets_.at(d->instruction_net().name());
    }

    // Shared plumbing between the two processes.
    std::vector<std::pair<sfg::NodePtr, Signal*>> in_map;
    for (const auto& [node, net] : m.in_binds)
      in_map.emplace_back(node, nets_.at(net->name()));
    std::map<std::string, Signal*> out_map;
    for (const auto& [port, net] : m.out_binds) out_map.emplace(port, nets_.at(net->name()));

    const auto load_inputs = [in_map](sfg::Sfg* s) {
      for (const auto& in : s->inputs()) {
        for (const auto& [node, sig] : in_map) {
          if (node == in)
            in->value = in->has_fmt ? fixpt::Fixed(sig->read(), in->fmt)
                                    : fixpt::Fixed(sig->read());
        }
      }
    };

    // Combinational (Mealy output) process.
    auto& comb = k.process(m.name + "_comb", [mp, instr_sig, load_inputs, out_map] {
      const auto stamp = sfg::new_eval_stamp();
      const auto actions = select_actions(*mp, instr_sig, stamp, nullptr);
      for (auto* s : actions) {
        load_inputs(s);
        s->eval(stamp);
        for (const auto& o : s->outputs()) {
          const auto it = out_map.find(o.port);
          if (it != out_map.end()) it->second->write(o.expr->value.value());
        }
      }
    });
    for (const auto& [node, sig] : in_map) k.sensitize(comb, *sig);
    if (instr_sig != nullptr) k.sensitize(comb, *instr_sig);
    k.sensitize(comb, *clk_);  // re-evaluate Mealy outputs after commits

    // Clocked (register/state commit) process.
    Signal* clk_sig = clk_;
    auto& seq = k.process(m.name + "_seq", [mp, instr_sig, load_inputs, clk_sig] {
      if (!clk_sig->posedge()) return;
      const auto stamp = sfg::new_eval_stamp();
      const fsm::Fsm::Transition* taken = nullptr;
      const auto actions = select_actions(*mp, instr_sig, stamp, &taken);
      for (auto* s : actions) {
        load_inputs(s);
        s->eval(stamp);
      }
      for (auto* s : actions) s->update_registers();
      if (mp->kind == CompModel::Kind::kFsm && taken != nullptr) mp->fsm->commit(*taken);
    });
    k.sensitize(seq, *clk_);
  }
  k.settle();
}

Signal& RtModel::net(const std::string& name) {
  const auto it = nets_.find(name);
  if (it == nets_.end())
    throw std::out_of_range("RtModel::net: no net '" + name + "'");
  return *it->second;
}

void RtModel::eval() {
  // Refresh externally driven pins from their sched::Net drives, so tests
  // keep using the same pin API for both engines.
  for (std::size_t i = 0; i < impl_->driven_nets.size(); ++i) {
    if (impl_->driven_nets[i]->driven())
      impl_->driven_signals[i]->write(impl_->driven_nets[i]->drive_value().value());
  }
  k_->settle();
}

void RtModel::commit() {
  k_->tick(*clk_);
  ++cycles_;
}

void RtModel::tick() {
  eval();
  commit();
}

}  // namespace asicpp::eventsim
