#include "opt/ir.h"

#include <ranges>
#include <stdexcept>
#include <unordered_map>

#include "opt/semantics.h"
#include "sfg/sfg.h"

namespace asicpp::opt {

namespace {

/// Iterative post-order lowering; memoized per node so shared
/// subexpressions get exactly one slot.
class Lowerer {
 public:
  explicit Lowerer(LoweredSfg& l) : l_(l) {}

  std::int32_t slot(const sfg::NodePtr& n) {
    const auto it = memo_.find(n.get());
    if (it != memo_.end()) return it->second;

    struct Frame {
      sfg::NodePtr node;
      std::size_t next_arg = 0;
    };
    std::vector<Frame> stack;
    stack.push_back(Frame{n});
    std::int32_t result = -1;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto mit = memo_.find(f.node.get());
      if (mit != memo_.end()) {
        result = mit->second;
        stack.pop_back();
        continue;
      }
      if (f.next_arg < f.node->args.size()) {
        const sfg::NodePtr& arg = f.node->args[f.next_arg++];
        if (!memo_.count(arg.get())) stack.push_back(Frame{arg});
        continue;
      }
      result = emit(f.node);
      stack.pop_back();
    }
    return result;
  }

 private:
  std::int32_t emit(const sfg::NodePtr& n) {
    LIns ins;
    ins.op = n->op;
    ins.origin = n;
    if (n->op == sfg::Op::kConst) {
      ins.cval = n->value.value();
    } else {
      std::int32_t* argv[3] = {&ins.a, &ins.b, &ins.c};
      if (n->args.size() > 3)
        throw std::logic_error("lower: node with more than 3 operands");
      for (std::size_t i = 0; i < n->args.size(); ++i)
        *argv[i] = memo_.at(n->args[i].get());
    }
    if (n->has_fmt) {
      ins.fmt = n->fmt;
      ins.has_fmt = true;
    }
    const auto s = static_cast<std::int32_t>(l_.ins.size());
    l_.ins.push_back(std::move(ins));
    memo_.emplace(n.get(), s);
    return s;
  }

  LoweredSfg& l_;
  std::unordered_map<const sfg::Node*, std::int32_t> memo_;
};

}  // namespace

void LoweredSfg::recompute_pre() {
  pre.clear();
  std::vector<char> mark(ins.size(), 0);
  std::vector<std::int32_t> work;
  for (const Out& o : outputs) {
    if (!o.needs_inputs && o.slot >= 0) work.push_back(o.slot);
  }
  while (!work.empty()) {
    const std::int32_t s = work.back();
    work.pop_back();
    if (mark[static_cast<std::size_t>(s)]) continue;
    mark[static_cast<std::size_t>(s)] = 1;
    const LIns& i = ins[static_cast<std::size_t>(s)];
    for (const std::int32_t a : {i.a, i.b, i.c})
      if (a >= 0) work.push_back(a);
  }
  main.clear();
  for (std::size_t s = 0; s < ins.size(); ++s)
    (mark[s] ? pre : main).push_back(static_cast<std::int32_t>(s));
}

void LoweredSfg::resolve_casts() {
  quantizers.clear();
  for (LIns& i : ins) i.q = i.op == sfg::Op::kCast ? quantizers.index(i.fmt) : -1;
}

LoweredSfg lower(const sfg::Sfg& s) {
  s.analyze();
  LoweredSfg l;
  Lowerer lw(l);
  for (const auto& o : s.outputs())
    l.outputs.push_back(
        LoweredSfg::Out{o.port, lw.slot(o.expr), o.needs_inputs, o.expr});
  for (const auto& a : s.reg_assigns())
    l.assigns.push_back(LoweredSfg::RegWrite{a.reg, lw.slot(a.expr)});
  l.recompute_pre();
  l.resolve_casts();
  l.stats.instrs_before = l.stats.instrs_after =
      static_cast<int>(l.ins.size());
  return l;
}

LoweredSfg lower_expr(const sfg::NodePtr& n) {
  LoweredSfg l;
  Lowerer lw(l);
  l.outputs.push_back(LoweredSfg::Out{"", lw.slot(n), false, n});
  l.recompute_pre();
  l.resolve_casts();
  l.stats.instrs_before = l.stats.instrs_after =
      static_cast<int>(l.ins.size());
  return l;
}

namespace {

// One pass of exec_lowered over the instruction indices `order` yields.
template <class Order>
void exec_in(const LoweredSfg& l, double* slots, const Order& order) {
  for (const auto k : order) {
    const auto s = static_cast<std::size_t>(k);
    const LIns& i = l.ins[s];
    switch (i.op) {
      case sfg::Op::kConst: slots[s] = i.cval; break;
      case sfg::Op::kInput:
      case sfg::Op::kReg: slots[s] = i.origin->value.value(); break;
      case sfg::Op::kCast: slots[s] = l.quantizers[i.q](slots[i.a]); break;
      default:
        slots[s] = apply_op_value(i.op, slots[i.a],
                                  i.b >= 0 ? slots[i.b] : 0.0,
                                  i.c >= 0 ? slots[i.c] : 0.0, i.fmt);
    }
  }
}

}  // namespace

void exec_lowered(const LoweredSfg& l, double* slots, Part part) {
  switch (part) {
    case Part::kAll: exec_in(l, slots, std::views::iota(std::size_t{0}, l.ins.size())); break;
    case Part::kPre: exec_in(l, slots, l.pre); break;
    case Part::kMain: exec_in(l, slots, l.main); break;
  }
}

std::vector<sfg::NodePtr> rebuild(const LoweredSfg& l,
                                  const std::string& prefix) {
  std::vector<sfg::NodePtr> nodes(l.ins.size());
  for (std::size_t s = 0; s < l.ins.size(); ++s) {
    const LIns& i = l.ins[s];
    if (i.is_leaf() && i.origin != nullptr) {
      nodes[s] = i.origin;
      continue;
    }
    if (i.op == sfg::Op::kConst) {
      // Pass-created constant with no source node.
      auto n = std::make_shared<sfg::Node>(sfg::Op::kConst);
      n->name = prefix + std::to_string(s);
      n->value = i.has_fmt ? fixpt::Fixed(i.cval, i.fmt)
                           : fixpt::Fixed(i.cval);
      n->fmt = i.fmt;
      n->has_fmt = i.has_fmt;
      nodes[s] = std::move(n);
      continue;
    }
    std::vector<sfg::NodePtr> args;
    for (const std::int32_t a : {i.a, i.b, i.c})
      if (a >= 0) args.push_back(nodes[static_cast<std::size_t>(a)]);
    // Unchanged instruction: keep the original node (stable codegen names,
    // and an identity round-trip returns the input graph).
    if (i.origin != nullptr && i.origin->op == i.op &&
        i.origin->args == args) {
      nodes[s] = i.origin;
      continue;
    }
    auto n = std::make_shared<sfg::Node>(i.op);
    n->name = prefix + std::to_string(s);
    n->args = std::move(args);
    n->fmt = i.fmt;
    n->has_fmt = i.has_fmt;
    nodes[s] = std::move(n);
  }
  return nodes;
}

}  // namespace asicpp::opt
