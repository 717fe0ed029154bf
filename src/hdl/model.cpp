#include "hdl/model.h"

#include <cctype>
#include <stdexcept>

#include "opt/ir.h"
#include "opt/passes.h"
#include "sfg/sig.h"

namespace asicpp::hdl {

std::string sanitize(const std::string& s) {
  std::string r;
  for (const char c : s)
    r += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  if (r.empty() || std::isdigit(static_cast<unsigned char>(r[0])) != 0) r = "s_" + r;
  return r;
}

namespace {

void merge_out_fmt(CompModel& m, const std::string& port, const fixpt::Format& f) {
  const auto it = m.out_fmt.find(port);
  if (it == m.out_fmt.end()) {
    m.out_fmt.emplace(port, f);
    m.out_ports.push_back(port);
    return;
  }
  fixpt::Format& g = it->second;
  const int frac = std::max(g.frac_bits(), f.frac_bits());
  g.is_signed = g.is_signed || f.is_signed;
  g.iwl = std::max(g.iwl, f.iwl);
  g.wl = g.iwl + frac + (g.is_signed ? 1 : 0);
}

/// Run the optimizer pipeline over `s` and, when it changed the graph,
/// materialize a rebuilt clone owned by the model. Returns the view the
/// generators should consume (the clone, or `s` when untouched).
sfg::Sfg* optimize_clone(CompModel& m, sfg::Sfg& s, const opt::PassOptions& passes) {
  if (!passes.lower) return &s;
  opt::LoweredSfg l = opt::lower(s);
  opt::run_passes(l, passes);
  // Deterministic per-graph prefix for pass-created nodes: the sanitized
  // SFG name plus the collection index (two same-named graphs must not
  // collide in the emitted HDL).
  const auto nodes =
      opt::rebuild(l, sanitize(s.name()) + "_" + std::to_string(m.opt_map.size()) + "_t");
  bool changed = false;
  for (const auto& o : l.outputs)
    changed = changed || nodes[static_cast<std::size_t>(o.slot)] != o.node;
  for (std::size_t i = 0; i < l.assigns.size(); ++i) {
    changed = changed || nodes[static_cast<std::size_t>(l.assigns[i].slot)] !=
                             s.reg_assigns()[i].expr;
  }
  if (!changed) return &s;
  auto clone = std::make_unique<sfg::Sfg>(s.name());
  for (const auto& i : s.inputs()) clone->in(sfg::Sig(i));
  for (const auto& o : l.outputs)
    clone->out(o.port, sfg::Sig(nodes[static_cast<std::size_t>(o.slot)]));
  for (const auto& a : l.assigns)
    clone->assign_node(a.reg, nodes[static_cast<std::size_t>(a.slot)]);
  sfg::Sfg* view = clone.get();
  m.owned.push_back(std::move(clone));
  return view;
}

sfg::Sfg* collect_sfg(CompModel& m, sfg::Sfg& s, const opt::PassOptions& passes) {
  const auto it = m.opt_map.find(&s);
  if (it != m.opt_map.end()) return it->second;
  sfg::Sfg* view = optimize_clone(m, s, passes);
  m.opt_map.emplace(&s, view);
  m.sfgs.push_back(view);
  view->analyze();
  sfg::infer_formats(*view, m.fmts);
  for (const auto& i : view->inputs()) {
    bool seen = false;
    for (const auto& k : m.inputs) seen = seen || (k == i);
    if (!seen) m.inputs.push_back(i);
  }
  for (const auto& o : view->outputs())
    merge_out_fmt(m, o.port, m.fmts.at(o.expr.get()));
  for (const auto& a : view->reg_assigns()) {
    bool seen = false;
    for (const auto& k : m.regs) seen = seen || (k == a.reg);
    if (!seen) m.regs.push_back(a.reg);
  }
  return view;
}

}  // namespace

CompModel build_component_model(sched::Component& comp,
                                const opt::PassOptions& passes) {
  CompModel m;
  m.name = sanitize(comp.name());
  if (auto* f = dynamic_cast<sched::FsmComponent*>(&comp)) {
    m.kind = CompModel::Kind::kFsm;
    m.fsm = &f->machine();
    for (const auto& t : m.fsm->transitions()) {
      for (auto* s : t.actions) collect_sfg(m, *s, passes);
      if (!t.guards.empty())
        sfg::infer_format(t.guards.front().expr().node(), m.fmts);
    }
    for (const auto& [p, n] : f->output_bindings()) m.out_binds.emplace(p, n);
    for (const auto& b : f->input_bindings()) m.in_binds.emplace_back(b.node, b.net);
  } else if (auto* s = dynamic_cast<sched::SfgComponent*>(&comp)) {
    m.kind = CompModel::Kind::kSfg;
    collect_sfg(m, s->graph(), passes);
    for (const auto& [p, n] : s->output_bindings()) m.out_binds.emplace(p, n);
    for (const auto& b : s->input_bindings()) m.in_binds.emplace_back(b.node, b.net);
  } else if (auto* d = dynamic_cast<sched::DispatchComponent*>(&comp)) {
    m.kind = CompModel::Kind::kDispatch;
    m.instr_port = sanitize("instr_" + d->instruction_net().name());
    for (const auto& [op, g] : d->instruction_table().entries())
      m.table.add(op, collect_sfg(m, *g, passes));
    if (d->default_instruction() != nullptr)
      m.table.set_default(collect_sfg(m, *d->default_instruction(), passes));
    for (const auto& [p, n] : d->output_bindings()) m.out_binds.emplace(p, n);
    for (const auto& b : d->input_bindings()) m.in_binds.emplace_back(b.node, b.net);
  } else {
    throw std::invalid_argument("build_component_model: untimed component '" +
                                comp.name() + "' has no structural image");
  }
  return m;
}

}  // namespace asicpp::hdl
