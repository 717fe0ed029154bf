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

#include "fixpt/format.h"
#include "fsm/fsm.h"
#include "sched/component.h"
#include "sched/net.h"
#include "sched/opcode_table.h"
#include "sfg/sfg.h"
#include "sfg/sig.h"

namespace asicpp::sched {

/// Shared port-binding plumbing for timed components.
///
/// What a firing reads and writes is resolved once into one port table per
/// SFG the component runs, and the firing path reaches a table by index.
/// Tables are built again, outside phase 2, after a bind_input/bind_output,
/// a change to the component's SFG set, or a change to any SFG's ports,
/// assignments, pass options or formats (sfg::Sfg::changes()).
class TimedBase : public Component {
 public:
  using Component::Component;

  struct InBind {
    sfg::NodePtr node;
    Net* net;
  };

  /// One SFG's ports as bound on this component.
  struct PortTable {
    sfg::Sfg* sfg = nullptr;
    /// A bound input: each binding of each declared input, in declaration
    /// then binding order, with the quantizer its load applies (when the
    /// input has a format).
    struct In {
      sfg::Node* node;
      Net* net;
      fixpt::Quantizer q;
      std::size_t input;  ///< index into sfg->inputs()
    };
    std::vector<In> ins;
    /// A bound output, in output order.
    struct Out {
      const sfg::Node* expr;
      Net* net;
      std::size_t output;  ///< index into sfg->outputs()
    };
    std::vector<Out> pre;   ///< register/constant-only outputs (phase 1)
    std::vector<Out> main;  ///< input-dependent outputs (phase 2)
  };

  /// Feed input signal `in` from `net` each cycle.
  void bind_input(const sfg::Sig& in, Net& net);
  /// Put SFG output `port` onto `net` whenever a marked SFG computes it.
  void bind_output(const std::string& port, Net& net);

  /// Introspection for the compiled-code generator (sim/ and hdl/).
  const std::vector<InBind>& input_bindings() const { return in_binds_; }
  const std::map<std::string, Net*>& output_bindings() const { return out_binds_; }

  /// The port table of `s`, one of the SFGs this component runs, built
  /// again first when the tables are out of date. Throws
  /// std::out_of_range for an SFG the component does not run.
  const PortTable& port_table(const sfg::Sfg& s) const;

 protected:
  /// Build the tables again when they are out of date. Serial callers only
  /// (phase 0, scheduling, post-mortems, compilation).
  void refresh_ports() const {
    if (ports_stale_ || ports_changes_ != sfg::Sfg::changes() || sfgs_added()) rebuild_ports();
  }
  /// Phase 0: refresh_ports(), then resolve each SFG's evaluation plan, so
  /// the firings of phase 2, which the sweep may retry, only read tables
  /// and plans.
  void prepare_ports() {
    refresh_ports();
    if (!ports_resolved_) resolve_ports();
  }
  /// The component's SFG set changed (an instruction was added).
  void ports_changed() const { ports_stale_ = true; }
  /// True when the component took on SFGs since the tables were built
  /// without calling ports_changed() (transitions added to an FSM). The
  /// components are final, so this check inlines into their begin_cycle.
  virtual bool sfgs_added() const { return false; }
  /// Hook run after the tables were built: map the component's own
  /// selection (FSM transitions, opcodes) to table indices.
  virtual void index_ports() const {}

  const PortTable& ports(std::size_t i) const { return ports_[i]; }
  /// Index of `s`'s table; -1 when the component does not run `s`.
  std::int32_t port_index(const sfg::Sfg* s) const;

  /// Every bound input of `t` carries a token.
  static bool ready(const PortTable& t) {
    for (const auto& in : t.ins)
      if (!in.net->has_token()) return false;
    return true;
  }
  /// Copy the net tokens into `t`'s input signals, quantized per format.
  static void load(const PortTable& t) {
    for (const auto& in : t.ins) {
      const fixpt::Fixed& tok = in.net->token();
      in.node->value = in.node->has_fmt
                           ? fixpt::Fixed::quantized(in.q(tok.value()), in.node->fmt)
                           : tok;
    }
  }
  /// Put computed outputs onto their nets.
  static void push(const std::vector<PortTable::Out>& outs) {
    for (const auto& o : outs) o.net->put(o.expr->value);
  }
  /// Append `t`'s bound input nets that carry no token.
  static void append_missing(const PortTable& t, std::vector<const Net*>& out);
  /// Append `t`'s bound output nets in output order (both phases).
  static void append_outputs(const PortTable& t, std::vector<const Net*>& out);
  /// Add `t` to `d`: its inputs as firing requirements, its phase-2
  /// outputs as products.
  static void add_deps(const PortTable& t, StaticDeps& d);

 private:
  PortTable build_table(sfg::Sfg& s) const;
  void rebuild_ports() const;
  void resolve_ports();

  std::vector<InBind> in_binds_;
  std::map<std::string, Net*> out_binds_;
  mutable std::vector<PortTable> ports_;
  mutable bool ports_stale_ = true;
  mutable std::uint64_t ports_changes_ = 0;  ///< sfg::Sfg::changes() at the build
  mutable bool ports_resolved_ = false;  ///< plans resolved since the last build
};

/// Mealy FSM + datapath component (phase-0 transition selection).
class FsmComponent final : public TimedBase {
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
  bool sfgs_added() const override {
    return trans_ports_.size() != fsm_->transitions().size();
  }
  void index_ports() const override;

  fsm::Fsm* fsm_;
  /// Per transition, the table index of each action SFG.
  mutable std::vector<std::vector<std::int32_t>> trans_ports_;
  const fsm::Fsm::Transition* pending_ = nullptr;
  const std::vector<std::int32_t>* pending_ports_ = nullptr;  ///< pending_'s tables
  bool fired_ = false;
};

/// Always-on datapath: the same SFG executes every cycle.
class SfgComponent final : public TimedBase {
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
  sfg::Sfg* sfg_;  ///< its table is ports(0)
  bool fired_ = false;
};

/// Instruction-dispatched datapath: the token on the instruction net picks
/// which SFG runs this cycle. Unlisted opcodes fall back to `set_default`
/// (typically a "nop" that freezes the datapath state, as during hold).
/// The token decodes as std::lround(value), so negative tokens and ties
/// that round onto an unlisted opcode take the default too.
class DispatchComponent final : public TimedBase {
 public:
  using Table = OpcodeTable<sfg::Sfg*>;

  DispatchComponent(std::string name, Net& instr_net)
      : TimedBase(std::move(name)), instr_net_(&instr_net) {}

  /// Execute `s` when the instruction token equals `opcode`. Throws
  /// std::logic_error for a duplicate opcode, std::out_of_range for one
  /// outside [0, Table::kMaxOpcode].
  void add_instruction(long opcode, sfg::Sfg& s);
  void set_default(sfg::Sfg& s) {
    table_.set_default(&s);
    ports_changed();
  }

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
  void index_ports() const override;

  Net* instr_net_;
  Table table_{nullptr};
  mutable OpcodeTable<std::int32_t> decode_{-1};  ///< opcode -> table index
  std::int32_t selected_ = -1;                    ///< table index, -1 before decode
  bool fired_ = false;
};

}  // namespace asicpp::sched
