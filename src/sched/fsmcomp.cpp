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
}

void TimedBase::bind_output(const std::string& port, Net& net) {
  if (!out_binds_.emplace(port, &net).second)
    throw std::logic_error("bind_output: port '" + port + "' already bound");
}

void TimedBase::static_requires(const sfg::Sfg& s, std::vector<const Net*>& req) const {
  for (const auto& in : s.inputs()) {
    for (const auto& b : in_binds_) {
      if (b.node == in) req.push_back(b.net);
    }
  }
}

void TimedBase::static_produces(const sfg::Sfg& s, bool needs_inputs,
                                std::vector<const Net*>& out) const {
  s.analyze();  // the needs_inputs classification is filled lazily
  for (const auto& o : s.outputs()) {
    if (o.needs_inputs != needs_inputs) continue;
    const auto it = out_binds_.find(o.port);
    if (it != out_binds_.end()) out.push_back(it->second);
  }
}

std::vector<const Net*> TimedBase::missing_inputs(const sfg::Sfg& s) const {
  std::vector<const Net*> missing;
  for (const auto& in : s.inputs()) {
    for (const auto& b : in_binds_) {
      if (b.node == in && !b.net->has_token()) missing.push_back(b.net);
    }
  }
  return missing;
}

void TimedBase::bound_outputs(const sfg::Sfg& s, std::vector<const Net*>& out) const {
  for (const auto& o : s.outputs()) {
    const auto it = out_binds_.find(o.port);
    if (it != out_binds_.end()) out.push_back(it->second);
  }
}

bool TimedBase::inputs_ready(sfg::Sfg& s) const {
  for (const auto& in : s.inputs()) {
    for (const auto& b : in_binds_) {
      if (b.node == in && !b.net->has_token()) return false;
    }
    // Inputs without a net binding are externally set; always available.
  }
  return true;
}

void TimedBase::load_inputs(sfg::Sfg& s) {
  for (const auto& in : s.inputs()) {
    for (const auto& b : in_binds_) {
      if (b.node == in)
        in->value = in->has_fmt ? b.net->token().cast(in->fmt) : b.net->token();
    }
  }
}

void TimedBase::push_outputs(sfg::Sfg& s, bool reg_only_phase) {
  for (const auto& o : s.outputs()) {
    if (o.needs_inputs == reg_only_phase) continue;
    const auto it = out_binds_.find(o.port);
    if (it != out_binds_.end()) it->second->put(o.expr->value);
  }
}

// --- FsmComponent ---

void FsmComponent::begin_cycle(std::uint64_t stamp) {
  pending_ = fsm_->select(stamp);
  fired_ = false;
}

void FsmComponent::produce_tokens(std::uint64_t stamp) {
  if (pending_ == nullptr) return;
  for (auto* s : pending_->actions) {
    s->eval_register_outputs(stamp);
    push_outputs(*s, /*reg_only_phase=*/true);
  }
}

bool FsmComponent::try_fire(std::uint64_t stamp) {
  if (done()) return false;
  for (auto* s : pending_->actions) {
    if (!inputs_ready(*s)) return false;
  }
  for (auto* s : pending_->actions) {
    load_inputs(*s);
    s->eval(stamp);
    push_outputs(*s, /*reg_only_phase=*/false);
  }
  fired_ = true;
  return true;
}

void FsmComponent::end_cycle(std::uint64_t) {
  if (pending_ != nullptr && fired_) {
    for (auto* s : pending_->actions) s->update_registers();
    fsm_->commit(*pending_);
  }
  pending_ = nullptr;
}

std::vector<const Net*> FsmComponent::waiting_nets() const {
  std::vector<const Net*> nets;
  if (pending_ == nullptr || fired_) return nets;
  for (const auto* s : pending_->actions) {
    for (const Net* n : missing_inputs(*s)) nets.push_back(n);
  }
  return nets;
}

std::vector<const Net*> FsmComponent::pending_output_nets() const {
  std::vector<const Net*> nets;
  if (pending_ == nullptr || fired_) return nets;
  for (const auto* s : pending_->actions) bound_outputs(*s, nets);
  return nets;
}

Component::StaticDeps FsmComponent::static_deps() const {
  StaticDeps d;
  d.schedulable = true;
  // Union over every transition: the order is valid whichever one phase 0
  // selects. Register-only (pre) outputs go out in phase 1 and impose no
  // ordering, so only needs_inputs products enter the graph.
  for (const auto& t : fsm_->transitions()) {
    for (const auto* s : t.actions) {
      static_requires(*s, d.fire_requires);
      static_produces(*s, /*needs_inputs=*/true, d.fire_produces);
    }
  }
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

void SfgComponent::begin_cycle(std::uint64_t) { fired_ = false; }

void SfgComponent::produce_tokens(std::uint64_t stamp) {
  sfg_->eval_register_outputs(stamp);
  push_outputs(*sfg_, /*reg_only_phase=*/true);
}

bool SfgComponent::try_fire(std::uint64_t stamp) {
  if (fired_ || !inputs_ready(*sfg_)) return false;
  load_inputs(*sfg_);
  sfg_->eval(stamp);
  push_outputs(*sfg_, /*reg_only_phase=*/false);
  fired_ = true;
  return true;
}

void SfgComponent::end_cycle(std::uint64_t) {
  if (fired_) sfg_->update_registers();
}

std::vector<const Net*> SfgComponent::waiting_nets() const {
  if (fired_) return {};
  return missing_inputs(*sfg_);
}

std::vector<const Net*> SfgComponent::pending_output_nets() const {
  std::vector<const Net*> nets;
  if (!fired_) bound_outputs(*sfg_, nets);
  return nets;
}

Component::StaticDeps SfgComponent::static_deps() const {
  StaticDeps d;
  d.schedulable = true;
  static_requires(*sfg_, d.fire_requires);
  static_produces(*sfg_, /*needs_inputs=*/true, d.fire_produces);
  return d;
}

// --- DispatchComponent ---

void DispatchComponent::add_instruction(long opcode, sfg::Sfg& s) {
  if (!table_.add(opcode, &s))
    throw std::logic_error("add_instruction: duplicate opcode " + std::to_string(opcode));
}

void DispatchComponent::begin_cycle(std::uint64_t) {
  selected_ = nullptr;
  fired_ = false;
}

void DispatchComponent::produce_tokens(std::uint64_t) {
  // Nothing: every output is gated behind the instruction token.
}

bool DispatchComponent::try_fire(std::uint64_t stamp) {
  if (fired_) return false;
  bool progress = false;
  if (selected_ == nullptr) {
    if (!instr_net_->has_token()) return false;
    const long opcode = std::lround(instr_net_->token().value());
    selected_ = table_.decode(opcode);
    if (selected_ == nullptr)
      throw std::logic_error("DispatchComponent '" + name() + "': unknown opcode " +
                             std::to_string(opcode) + " and no default");
    // Deferred token production: the register/constant-only outputs of the
    // decoded instruction go out immediately, so downstream blocks (e.g.
    // the RAM cells) are not starved while this SFG waits on data inputs.
    selected_->eval_register_outputs(stamp);
    push_outputs(*selected_, /*reg_only_phase=*/true);
    progress = true;
  }
  if (inputs_ready(*selected_)) {
    load_inputs(*selected_);
    selected_->eval(stamp);
    push_outputs(*selected_, /*reg_only_phase=*/false);
    fired_ = true;
    progress = true;
  }
  return progress;
}

void DispatchComponent::end_cycle(std::uint64_t) {
  if (fired_ && selected_ != nullptr) selected_->update_registers();
  selected_ = nullptr;
}

std::vector<const Net*> DispatchComponent::waiting_nets() const {
  if (fired_) return {};
  if (selected_ == nullptr) return {instr_net_};  // waiting on the instruction token
  return missing_inputs(*selected_);
}

std::vector<const Net*> DispatchComponent::pending_output_nets() const {
  std::vector<const Net*> nets;
  if (fired_) return nets;
  if (selected_ != nullptr) {
    bound_outputs(*selected_, nets);
  } else {
    for (const auto& [_, net] : out_binds_) nets.push_back(net);
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
    static_requires(*s, d.fire_requires);
    static_produces(*s, /*needs_inputs=*/true, d.fire_produces);
    static_produces(*s, /*needs_inputs=*/false, d.decode_produces);
  });
  return d;
}

void DispatchComponent::collect_sfgs(std::vector<sfg::Sfg*>& out) const {
  table_.for_each([&](sfg::Sfg* s) { out.push_back(s); });
}

}  // namespace asicpp::sched
