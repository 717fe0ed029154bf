#include "sfg/sfg.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "opt/ir.h"
#include "opt/passes.h"
#include "opt/semantics.h"
#include "sfg/eval.h"

namespace asicpp::sfg {

/// What evaluation resolves once from the lowered form: the interior
/// outputs written back per phase, the register next-values, and every
/// register commit with its quantizer.
struct Sfg::Plan {
  struct Write {
    Node* node;
    std::size_t slot;
  };
  std::vector<Write> pre_outs;   ///< lowered only
  std::vector<Write> main_outs;  ///< lowered only
  std::vector<Write> nexts;      ///< lowered only
  struct Commit {
    Node* reg;
    fixpt::Quantizer q;
    bool has_fmt;
  };
  std::vector<Commit> commits;
};

Sfg::Sfg(std::string name) : name_(std::move(name)) {}
Sfg::~Sfg() = default;
Sfg::Sfg(Sfg&&) noexcept = default;
Sfg& Sfg::operator=(Sfg&&) noexcept = default;

namespace {

/// Collect every kInput leaf reachable from `n`.
void collect_inputs(const NodePtr& n, std::unordered_set<const Node*>& seen,
                    std::unordered_set<const Node*>& found) {
  if (!seen.insert(n.get()).second) return;
  if (n->op == Op::kInput) {
    found.insert(n.get());
    return;
  }
  for (const auto& a : n->args) collect_inputs(a, seen, found);
}

std::unordered_set<const Node*> reachable_inputs(const NodePtr& n) {
  std::unordered_set<const Node*> seen, found;
  collect_inputs(n, seen, found);
  return found;
}

/// Every node reachable from `n`, deduplicated across calls via `seen`.
void collect_nodes(const NodePtr& n, std::unordered_set<const Node*>& seen,
                   std::vector<const Node*>& order) {
  if (!seen.insert(n.get()).second) return;
  order.push_back(n.get());
  for (const auto& a : n->args) collect_nodes(a, seen, order);
}

bool is_bitwise(Op op) { return op == Op::kAnd || op == Op::kOr || op == Op::kXor; }

}  // namespace

Sfg& Sfg::in(const Sig& s) {
  if (!s.valid() || s.node()->op != Op::kInput)
    throw std::invalid_argument("Sfg::in: not an input signal");
  inputs_.push_back(s.node());
  analyzed_ = false;
  changed();
  return *this;
}

Sfg& Sfg::out(const std::string& port, const Sig& expr) {
  if (!expr.valid()) throw std::invalid_argument("Sfg::out: unconnected expression");
  outputs_.push_back(Output{port, expr.node(), false});
  analyzed_ = false;
  changed();
  return *this;
}

Sfg& Sfg::assign(const Reg& r, const Sig& expr) {
  if (!expr.valid()) throw std::invalid_argument("Sfg::assign: unconnected expression");
  assigns_.push_back(RegAssign{r.node(), expr.node()});
  analyzed_ = false;
  changed();
  return *this;
}

Sfg& Sfg::assign_node(NodePtr reg, NodePtr expr) {
  if (reg == nullptr || reg->op != Op::kReg)
    throw std::invalid_argument("Sfg::assign_node: not a registered signal");
  if (expr == nullptr)
    throw std::invalid_argument("Sfg::assign_node: unconnected expression");
  assigns_.push_back(RegAssign{std::move(reg), std::move(expr)});
  analyzed_ = false;
  changed();
  return *this;
}

void Sfg::set_pass_options(const opt::PassOptions& p) {
  if (popts_ == p) return;
  popts_ = p;
  changed();
}

void Sfg::invalidate_lowered() { changed(); }

void Sfg::changed() {
  lowered_.reset();
  plan_.reset();
  pre_stamp_ = 0;
  changes_.fetch_add(1, std::memory_order_relaxed);
}

const opt::LoweredSfg& Sfg::lowered() const {
  if (!lowered_) {
    auto l = std::make_unique<opt::LoweredSfg>(opt::lower(*this));
    opt::run_passes(*l, popts_);
    lowered_ = std::move(l);
  }
  return *lowered_;
}

const Sfg::Plan& Sfg::plan() const {
  if (plan_) return *plan_;
  analyze();
  auto p = std::make_unique<Plan>();
  for (const auto& a : assigns_)
    p->commits.push_back(Plan::Commit{a.reg.get(), fixpt::Quantizer(a.reg->fmt), a.reg->has_fmt});
  if (popts_.lower) {
    const opt::LoweredSfg& l = lowered();
    slots_.assign(l.ins.size(), 0.0);
    const auto slot = [](std::int32_t s) { return static_cast<std::size_t>(s); };
    // Leaf outputs keep their own value (inputs/registers are
    // authoritative); interior outputs get the result written back —
    // possibly from a redirected slot after simplification — so
    // output_value() and the net pushes observe the recursive walk's
    // protocol.
    for (const auto& o : l.outputs) {
      if (op_arity(o.node->op) == 0) continue;
      (o.needs_inputs ? p->main_outs : p->pre_outs)
          .push_back(Plan::Write{o.node.get(), slot(o.slot)});
    }
    for (const auto& a : l.assigns) p->nexts.push_back(Plan::Write{a.reg.get(), slot(a.slot)});
  }
  plan_ = std::move(p);
  return *plan_;
}

void Sfg::resolve() const { plan(); }

void Sfg::analyze() const {
  if (analyzed_) return;
  for (auto& o : outputs_) o.needs_inputs = depends_on_declared_input(o.expr);
  analyzed_ = true;
}

bool Sfg::depends_on_declared_input(const NodePtr& n) const {
  const auto found = reachable_inputs(n);
  return !found.empty();
}

void Sfg::check(diag::DiagEngine& de) {
  analyze();
  const std::string where = "sfg '" + name_ + "'";

  std::unordered_set<const Node*> declared;
  for (const auto& i : inputs_) declared.insert(i.get());

  // Reachable inputs across all outputs and register assignments.
  std::unordered_set<const Node*> used;
  for (const auto& o : outputs_) {
    for (const Node* i : reachable_inputs(o.expr)) used.insert(i);
  }
  for (const auto& a : assigns_) {
    for (const Node* i : reachable_inputs(a.expr)) used.insert(i);
  }

  for (const Node* i : used) {
    if (!declared.count(i))
      de.error("SFG-001", where,
               "dangling input: expression reads undeclared input '" + i->name + "'");
  }
  for (const auto& i : inputs_) {
    if (!used.count(i.get()))
      de.warning("SFG-002", where,
                 "dead code: input '" + i->name + "' is never used");
  }

  std::unordered_set<std::string> ports;
  for (const auto& o : outputs_) {
    if (!ports.insert(o.port).second)
      de.error("SFG-003", where, "duplicate output port '" + o.port + "'");
  }

  std::unordered_set<const Node*> targets;
  for (const auto& a : assigns_) {
    if (!targets.insert(a.reg.get()).second)
      de.error("SFG-004", where,
               "register '" + a.reg->name + "' assigned twice");
  }

  // Width lint over the whole expression DAG: bitwise operators silently
  // reinterpret the mantissa, so mixing declared widths is suspect;
  // assignments whose source carries a declared format wider than the
  // register's quantize away bits every cycle.
  std::unordered_set<const Node*> seen;
  std::vector<const Node*> nodes;
  for (const auto& o : outputs_) collect_nodes(o.expr, seen, nodes);
  for (const auto& a : assigns_) collect_nodes(a.expr, seen, nodes);
  for (const Node* n : nodes) {
    if (!is_bitwise(n->op) || n->args.size() < 2) continue;
    const Node* a = n->args[0].get();
    const Node* b = n->args[1].get();
    if (a->has_fmt && b->has_fmt && a->fmt.wl != b->fmt.wl) {
      auto leaf = [](const Node* x) {
        return x->name.empty() ? std::string(op_name(x->op)) : "'" + x->name + "'";
      };
      de.warning("SFG-005", where,
                 "width mismatch: bitwise " + std::string(op_name(n->op)) +
                     " mixes " + leaf(a) + " <" + std::to_string(a->fmt.wl) +
                     " bits> with " + leaf(b) + " <" + std::to_string(b->fmt.wl) +
                     " bits>");
    }
  }
  for (const auto& a : assigns_) {
    const Node* src = a.expr.get();
    if (src->has_fmt && a.reg->has_fmt && src->fmt.wl > a.reg->fmt.wl) {
      de.warning("SFG-005", where,
                 "width mismatch: expression <" + std::to_string(src->fmt.wl) +
                     " bits> assigned to register '" + a.reg->name + "' <" +
                     std::to_string(a.reg->fmt.wl) +
                     " bits> narrows on every cycle");
    }
  }

  // Clock-domain lint: every register read or written by one SFG must be
  // bound to the same clock, or the three-phase scheduler's register-update
  // phase commits them at inconsistent times.
  std::unordered_set<const Node*> reg_seen;
  std::vector<const Node*> clocked;
  auto collect_reg = [&](const Node* r) {
    if (r->op == Op::kReg && r->clk != nullptr && reg_seen.insert(r).second)
      clocked.push_back(r);
  };
  for (const Node* n : nodes) collect_reg(n);
  for (const auto& a : assigns_) collect_reg(a.reg.get());
  for (const Node* r : clocked) {
    if (r->clk != clocked.front()->clk)
      de.error("SFG-006", where,
               "multiple clocks: registers '" + clocked.front()->name + "' and '" +
                   r->name + "' are bound to different clock objects");
  }
}

void Sfg::set_input(const std::string& port, const fixpt::Fixed& v) {
  for (auto& i : inputs_) {
    if (i->name == port) {
      i->value = i->has_fmt ? v.cast(i->fmt) : v;
      return;
    }
  }
  throw std::out_of_range("Sfg::set_input: no input named '" + port + "'");
}

void Sfg::eval_register_outputs(std::uint64_t stamp) {
  if (popts_.lower) {
    const Plan& p = plan();
    opt::exec_lowered(*lowered_, slots_.data(), opt::Part::kPre);
    for (const auto& w : p.pre_outs) w.node->value = fixpt::Fixed(slots_[w.slot]);
    pre_stamp_ = stamp;
    return;
  }
  analyze();
  for (auto& o : outputs_) {
    if (!o.needs_inputs) asicpp::sfg::eval(o.expr, stamp);
  }
}

void Sfg::eval(std::uint64_t stamp) {
  if (popts_.lower) {
    const Plan& p = plan();
    if (pre_stamp_ == stamp) {
      opt::exec_lowered(*lowered_, slots_.data(), opt::Part::kMain);
    } else {
      opt::exec_lowered(*lowered_, slots_.data(), opt::Part::kAll);
      for (const auto& w : p.pre_outs) w.node->value = fixpt::Fixed(slots_[w.slot]);
    }
    for (const auto& w : p.main_outs) w.node->value = fixpt::Fixed(slots_[w.slot]);
    for (const auto& w : p.nexts) {
      w.node->next = fixpt::Fixed(slots_[w.slot]);
      w.node->next_set = true;
    }
    return;
  }
  analyze();
  for (auto& o : outputs_) asicpp::sfg::eval(o.expr, stamp);
  for (auto& a : assigns_) {
    a.reg->next = asicpp::sfg::eval(a.expr, stamp);
    a.reg->next_set = true;
  }
}

void Sfg::eval() { eval(new_eval_stamp()); }

fixpt::Fixed Sfg::output_value(const std::string& port) const {
  const auto it = std::find_if(outputs_.begin(), outputs_.end(),
                               [&](const Output& o) { return o.port == port; });
  if (it == outputs_.end())
    throw std::out_of_range("Sfg::output_value: no output named '" + port + "'");
  return it->expr->value;
}

void Sfg::update_registers() {
  for (const auto& c : plan().commits) {
    Node& r = *c.reg;
    if (!r.next_set) continue;
    r.value = c.has_fmt ? fixpt::Fixed::quantized(c.q(r.next.value()), r.fmt) : r.next;
    r.next_set = false;
  }
}

}  // namespace asicpp::sfg
