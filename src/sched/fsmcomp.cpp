#include "sched/fsmcomp.h"

#include <cmath>
#include <stdexcept>

#include "ckpt/snapshot.h"

namespace asicpp::sched {

// --- TimedBase ---

void TimedBase::bind_input(const sfg::Sig& in, Net& net) {
  if (!in.valid() || in.node()->op != sfg::Op::kInput)
    throw std::invalid_argument("bind_input: not an input signal");
  in_binds_.push_back(InBind{in.node(), &net});
  ports_stale_ = true;
}

void TimedBase::bind_output(const std::string& port, Net& net) {
  if (!out_binds_.emplace(port, &net).second)
    throw std::logic_error("bind_output: port '" + port + "' already bound");
  ports_stale_ = true;
}

TimedBase::PortTable TimedBase::build_table(sfg::Sfg& s) const {
  s.analyze();  // the needs_inputs classification is filled lazily
  PortTable t;
  t.sfg = &s;
  const auto& inputs = s.inputs();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    // Inputs without a net binding are externally set; always available.
    for (const auto& b : in_binds_) {
      if (b.node == inputs[k])
        t.ins.push_back(PortTable::In{b.node.get(), b.net, fixpt::Quantizer(b.node->fmt), k});
    }
  }
  const auto& outputs = s.outputs();
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    const auto it = out_binds_.find(outputs[k].port);
    if (it == out_binds_.end()) continue;
    (outputs[k].needs_inputs ? t.main : t.pre)
        .push_back(PortTable::Out{outputs[k].expr.get(), it->second, k});
  }
  return t;
}

void TimedBase::rebuild_ports() const {
  const std::uint64_t changes = sfg::Sfg::changes();
  std::vector<sfg::Sfg*> sfgs;
  collect_sfgs(sfgs);
  ports_.clear();
  for (sfg::Sfg* s : sfgs)
    if (port_index(s) < 0) ports_.push_back(build_table(*s));
  index_ports();
  ports_stale_ = false;
  ports_changes_ = changes;
  ports_resolved_ = false;
}

void TimedBase::resolve_ports() {
  for (const auto& t : ports_) t.sfg->resolve();
  ports_resolved_ = true;
}

std::int32_t TimedBase::port_index(const sfg::Sfg* s) const {
  for (std::size_t i = 0; i < ports_.size(); ++i)
    if (ports_[i].sfg == s) return static_cast<std::int32_t>(i);
  return -1;
}

const TimedBase::PortTable& TimedBase::port_table(const sfg::Sfg& s) const {
  refresh_ports();
  const std::int32_t i = port_index(&s);
  if (i < 0)
    throw std::out_of_range("component '" + name() + "' does not run sfg '" + s.name() + "'");
  return ports_[static_cast<std::size_t>(i)];
}

void TimedBase::append_missing(const PortTable& t, std::vector<const Net*>& out) {
  for (const auto& in : t.ins)
    if (!in.net->has_token()) out.push_back(in.net);
}

void TimedBase::append_outputs(const PortTable& t, std::vector<const Net*>& out) {
  auto p = t.pre.begin();
  auto m = t.main.begin();
  while (p != t.pre.end() || m != t.main.end()) {
    if (m == t.main.end() || (p != t.pre.end() && p->output < m->output))
      out.push_back((p++)->net);
    else
      out.push_back((m++)->net);
  }
}

void TimedBase::add_deps(const PortTable& t, StaticDeps& d) {
  for (const auto& in : t.ins) d.fire_requires.push_back(in.net);
  for (const auto& o : t.main) d.fire_produces.push_back(o.net);
}

// --- FsmComponent ---

void FsmComponent::index_ports() const {
  trans_ports_.clear();
  for (const auto& t : fsm_->transitions()) {
    std::vector<std::int32_t> ids;
    for (const auto* s : t.actions) ids.push_back(port_index(s));
    trans_ports_.push_back(std::move(ids));
  }
}

void FsmComponent::begin_cycle(std::uint64_t stamp) {
  prepare_ports();
  pending_ = fsm_->select(stamp);
  pending_ports_ = pending_ == nullptr
                       ? nullptr
                       : &trans_ports_[static_cast<std::size_t>(
                             pending_ - fsm_->transitions().data())];
  fired_ = false;
}

void FsmComponent::produce_tokens(std::uint64_t stamp) {
  if (pending_ == nullptr) return;
  for (const auto i : *pending_ports_) {
    const PortTable& t = ports(static_cast<std::size_t>(i));
    t.sfg->eval_register_outputs(stamp);
    push(t.pre);
  }
}

bool FsmComponent::try_fire(std::uint64_t stamp) {
  if (done()) return false;
  for (const auto i : *pending_ports_) {
    if (!ready(ports(static_cast<std::size_t>(i)))) return false;
  }
  for (const auto i : *pending_ports_) {
    const PortTable& t = ports(static_cast<std::size_t>(i));
    load(t);
    t.sfg->eval(stamp);
    push(t.main);
  }
  fired_ = true;
  return true;
}

void FsmComponent::end_cycle(std::uint64_t) {
  if (pending_ != nullptr && fired_) {
    for (const auto i : *pending_ports_) ports(static_cast<std::size_t>(i)).sfg->update_registers();
    fsm_->commit(*pending_);
  }
  pending_ = nullptr;
  pending_ports_ = nullptr;
}

std::vector<const Net*> FsmComponent::waiting_nets() const {
  std::vector<const Net*> nets;
  if (pending_ == nullptr || fired_) return nets;
  for (const auto i : *pending_ports_) append_missing(ports(static_cast<std::size_t>(i)), nets);
  return nets;
}

std::vector<const Net*> FsmComponent::pending_output_nets() const {
  std::vector<const Net*> nets;
  if (pending_ == nullptr || fired_) return nets;
  for (const auto i : *pending_ports_) append_outputs(ports(static_cast<std::size_t>(i)), nets);
  return nets;
}

Component::StaticDeps FsmComponent::static_deps() const {
  StaticDeps d;
  d.schedulable = true;
  // Union over every transition: the order is valid whichever one phase 0
  // selects. Register-only (pre) outputs go out in phase 1 and impose no
  // ordering, so only needs_inputs products enter the graph.
  refresh_ports();
  for (const auto& ids : trans_ports_)
    for (const auto i : ids) add_deps(ports(static_cast<std::size_t>(i)), d);
  return d;
}

void FsmComponent::collect_sfgs(std::vector<sfg::Sfg*>& out) const {
  for (const auto& t : fsm_->transitions()) {
    for (auto* s : t.actions) out.push_back(s);
  }
}

void FsmComponent::save_state(ckpt::Writer& w) const {
  w.i32(fsm_->current());
}

void FsmComponent::restore_state(ckpt::Reader& r) {
  const std::int32_t s = r.i32();
  if (s < -1 || s >= fsm_->num_states()) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"component '" + name() + "': FSM state index " + std::to_string(s) +
            " is out of range (machine has " +
            std::to_string(fsm_->num_states()) + " state(s))"});
  }
  fsm_->set_current(s);
}

// --- SfgComponent ---

void SfgComponent::begin_cycle(std::uint64_t) {
  prepare_ports();
  fired_ = false;
}

void SfgComponent::produce_tokens(std::uint64_t stamp) {
  sfg_->eval_register_outputs(stamp);
  push(ports(0).pre);
}

bool SfgComponent::try_fire(std::uint64_t stamp) {
  const PortTable& t = ports(0);
  if (fired_ || !ready(t)) return false;
  load(t);
  sfg_->eval(stamp);
  push(t.main);
  fired_ = true;
  return true;
}

void SfgComponent::end_cycle(std::uint64_t) {
  if (fired_) sfg_->update_registers();
}

std::vector<const Net*> SfgComponent::waiting_nets() const {
  std::vector<const Net*> nets;
  if (!fired_) append_missing(port_table(*sfg_), nets);
  return nets;
}

std::vector<const Net*> SfgComponent::pending_output_nets() const {
  std::vector<const Net*> nets;
  if (!fired_) append_outputs(port_table(*sfg_), nets);
  return nets;
}

Component::StaticDeps SfgComponent::static_deps() const {
  StaticDeps d;
  d.schedulable = true;
  add_deps(port_table(*sfg_), d);
  return d;
}

// --- DispatchComponent ---

void DispatchComponent::add_instruction(long opcode, sfg::Sfg& s) {
  if (!table_.add(opcode, &s))
    throw std::logic_error("add_instruction: duplicate opcode " + std::to_string(opcode));
  ports_changed();
}

void DispatchComponent::index_ports() const {
  decode_ = OpcodeTable<std::int32_t>(-1);
  for (const auto& [opcode, s] : table_.entries()) decode_.add(opcode, port_index(s));
  if (table_.has_default()) decode_.set_default(port_index(table_.default_value()));
}

void DispatchComponent::begin_cycle(std::uint64_t) {
  prepare_ports();
  selected_ = -1;
  fired_ = false;
}

void DispatchComponent::produce_tokens(std::uint64_t) {
  // Nothing: every output is gated behind the instruction token.
}

bool DispatchComponent::try_fire(std::uint64_t stamp) {
  if (fired_) return false;
  bool progress = false;
  if (selected_ < 0) {
    if (!instr_net_->has_token()) return false;
    const long opcode = std::lround(instr_net_->token().value());
    selected_ = decode_.decode(opcode);
    if (selected_ < 0)
      throw std::logic_error("DispatchComponent '" + name() + "': unknown opcode " +
                             std::to_string(opcode) + " and no default");
    // Deferred token production: the register/constant-only outputs of the
    // decoded instruction go out immediately, so downstream blocks (e.g.
    // the RAM cells) are not starved while this SFG waits on data inputs.
    const PortTable& t = ports(static_cast<std::size_t>(selected_));
    t.sfg->eval_register_outputs(stamp);
    push(t.pre);
    progress = true;
  }
  const PortTable& t = ports(static_cast<std::size_t>(selected_));
  if (ready(t)) {
    load(t);
    t.sfg->eval(stamp);
    push(t.main);
    fired_ = true;
    progress = true;
  }
  return progress;
}

void DispatchComponent::end_cycle(std::uint64_t) {
  if (fired_ && selected_ >= 0) ports(static_cast<std::size_t>(selected_)).sfg->update_registers();
  selected_ = -1;
}

std::vector<const Net*> DispatchComponent::waiting_nets() const {
  if (fired_) return {};
  if (selected_ < 0) return {instr_net_};  // waiting on the instruction token
  std::vector<const Net*> nets;
  append_missing(ports(static_cast<std::size_t>(selected_)), nets);
  return nets;
}

std::vector<const Net*> DispatchComponent::pending_output_nets() const {
  std::vector<const Net*> nets;
  if (fired_) return nets;
  if (selected_ >= 0) {
    append_outputs(ports(static_cast<std::size_t>(selected_)), nets);
  } else {
    for (const auto& [_, net] : output_bindings()) nets.push_back(net);
  }
  return nets;
}

Component::StaticDeps DispatchComponent::static_deps() const {
  StaticDeps d;
  d.schedulable = true;
  // Two schedule actions: the decode step consumes the instruction token
  // and performs the deferred register-only pushes; the firing proper runs
  // after it. Unioned over the whole instruction table plus the default.
  d.has_decode = true;
  d.decode_requires.push_back(instr_net_);
  table_.for_each([&](const sfg::Sfg* s) {
    const PortTable& t = port_table(*s);
    add_deps(t, d);
    for (const auto& o : t.pre) d.decode_produces.push_back(o.net);
  });
  return d;
}

void DispatchComponent::collect_sfgs(std::vector<sfg::Sfg*>& out) const {
  table_.for_each([&](sfg::Sfg* s) { out.push_back(s); });
}

}  // namespace asicpp::sched
