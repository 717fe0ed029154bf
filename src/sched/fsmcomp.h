// Timed components: FSM-controlled and instruction-dispatched blocks.
//
// `FsmComponent` is the paper's mixed control/data description — a Mealy
// FSM coupled to a datapath (section 3). Its transition is selected in
// phase 0 from registered conditions; the transition's SFGs are the marked
// SFGs of the cycle.
//
// `DispatchComponent` models the VLIW datapaths of Fig 5: a block whose
// behaviour for the cycle is selected by an *instruction token* arriving on
// the interconnect. It cannot select in phase 0 (the instruction is data),
// so it resolves during the evaluation phase — this is exactly why the
// evaluation phase is iterative.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fsm/fsm.h"
#include "sched/component.h"
#include "sched/net.h"
#include "sched/opcode_table.h"
#include "sfg/sfg.h"
#include "sfg/sig.h"

namespace asicpp::sched {

/// Shared port-binding plumbing for timed components.
class TimedBase : public Component {
 public:
  using Component::Component;

  struct InBind {
    sfg::NodePtr node;
    Net* net;
  };

  /// Feed input signal `in` from `net` each cycle.
  void bind_input(const sfg::Sig& in, Net& net);
  /// Put SFG output `port` onto `net` whenever a marked SFG computes it.
  void bind_output(const std::string& port, Net& net);

  /// Introspection for the compiled-code generator (sim/ and hdl/).
  const std::vector<InBind>& input_bindings() const { return in_binds_; }
  const std::map<std::string, Net*>& output_bindings() const { return out_binds_; }

 protected:

  /// Static-scheduling helpers: accumulate the bound input nets `s`
  /// declares, and the bound output nets of `s` on the phase selected by
  /// `needs_inputs` (true: phase-2 products; false: register-only outputs).
  void static_requires(const sfg::Sfg& s, std::vector<const Net*>& req) const;
  void static_produces(const sfg::Sfg& s, bool needs_inputs,
                       std::vector<const Net*>& out) const;

  /// Bound input nets declared by `s` that do not yet carry a token.
  std::vector<const Net*> missing_inputs(const sfg::Sfg& s) const;
  /// Bound output nets of `s`'s ports.
  void bound_outputs(const sfg::Sfg& s, std::vector<const Net*>& out) const;

  /// All bound inputs that `s` declares have tokens waiting.
  bool inputs_ready(sfg::Sfg& s) const;
  /// Copy net tokens into the input signals declared by `s`.
  void load_inputs(sfg::Sfg& s);
  /// Push computed outputs of `s` onto their nets; `reg_only_phase` selects
  /// which outputs (phase 1: input-independent; phase 2: the rest).
  void push_outputs(sfg::Sfg& s, bool reg_only_phase);

  std::vector<InBind> in_binds_;
  std::map<std::string, Net*> out_binds_;
};

/// Mealy FSM + datapath component (phase-0 transition selection).
class FsmComponent : public TimedBase {
 public:
  FsmComponent(std::string name, fsm::Fsm& f) : TimedBase(std::move(name)), fsm_(&f) {}

  void begin_cycle(std::uint64_t stamp) override;
  void produce_tokens(std::uint64_t stamp) override;
  bool try_fire(std::uint64_t stamp) override;
  bool done() const override { return fired_ || pending_ == nullptr; }
  bool must_fire() const override { return pending_ != nullptr && !fired_; }
  void end_cycle(std::uint64_t stamp) override;
  std::vector<const Net*> waiting_nets() const override;
  std::vector<const Net*> pending_output_nets() const override;
  StaticDeps static_deps() const override;
  void collect_sfgs(std::vector<sfg::Sfg*>& out) const override;
  void save_state(ckpt::Writer& w) const override;
  void restore_state(ckpt::Reader& r) override;

  fsm::Fsm& machine() const { return *fsm_; }
  bool fired() const { return fired_; }

 private:
  fsm::Fsm* fsm_;
  const fsm::Fsm::Transition* pending_ = nullptr;
  bool fired_ = false;
};

/// Always-on datapath: the same SFG executes every cycle.
class SfgComponent : public TimedBase {
 public:
  SfgComponent(std::string name, sfg::Sfg& s) : TimedBase(std::move(name)), sfg_(&s) {}

  void begin_cycle(std::uint64_t stamp) override;
  void produce_tokens(std::uint64_t stamp) override;
  bool try_fire(std::uint64_t stamp) override;
  bool done() const override { return fired_; }
  bool must_fire() const override { return !fired_; }
  void end_cycle(std::uint64_t stamp) override;
  std::vector<const Net*> waiting_nets() const override;
  std::vector<const Net*> pending_output_nets() const override;
  StaticDeps static_deps() const override;
  void collect_sfgs(std::vector<sfg::Sfg*>& out) const override {
    out.push_back(sfg_);
  }

  sfg::Sfg& graph() const { return *sfg_; }

 private:
  sfg::Sfg* sfg_;
  bool fired_ = false;
};

/// Instruction-dispatched datapath: the token on the instruction net picks
/// which SFG runs this cycle. Unlisted opcodes fall back to `set_default`
/// (typically a "nop" that freezes the datapath state, as during hold).
/// The token decodes as std::lround(value), so negative tokens and ties
/// that round onto an unlisted opcode take the default too.
class DispatchComponent : public TimedBase {
 public:
  using Table = OpcodeTable<sfg::Sfg*>;

  DispatchComponent(std::string name, Net& instr_net)
      : TimedBase(std::move(name)), instr_net_(&instr_net) {}

  /// Execute `s` when the instruction token equals `opcode`. Throws
  /// std::logic_error for a duplicate opcode, std::out_of_range for one
  /// outside [0, Table::kMaxOpcode].
  void add_instruction(long opcode, sfg::Sfg& s);
  void set_default(sfg::Sfg& s) { table_.set_default(&s); }

  std::size_t num_instructions() const { return table_.size(); }

  void begin_cycle(std::uint64_t stamp) override;
  void produce_tokens(std::uint64_t stamp) override;
  bool try_fire(std::uint64_t stamp) override;
  bool done() const override { return fired_; }
  bool must_fire() const override { return !fired_; }
  void end_cycle(std::uint64_t stamp) override;
  std::vector<const Net*> waiting_nets() const override;
  std::vector<const Net*> pending_output_nets() const override;
  StaticDeps static_deps() const override;
  void collect_sfgs(std::vector<sfg::Sfg*>& out) const override;

  Net& instruction_net() const { return *instr_net_; }
  const Table& instruction_table() const { return table_; }
  sfg::Sfg* default_instruction() const { return table_.default_value(); }

 private:
  Net* instr_net_;
  Table table_{nullptr};
  sfg::Sfg* selected_ = nullptr;
  bool fired_ = false;
};

}  // namespace asicpp::sched
