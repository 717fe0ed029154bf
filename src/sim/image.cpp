#include "sim/image.h"

#include <algorithm>
#include <unordered_map>

#include "ckpt/snapshot.h"
#include "diag/diag.h"
#include "opt/ir.h"
#include "opt/passes.h"
#include "sched/fsmcomp.h"
#include "sched/schedule.h"

namespace asicpp::sim {

using sfg::Node;
using sfg::NodePtr;
using sfg::Op;

class Image::Builder {
 public:
  Builder(Image& img, const opt::PassOptions& passes)
      : img_(img), popts_(passes) {}

  void build(const sched::CycleScheduler& sched);

 private:
  std::int32_t slot_of(const NodePtr& n);
  /// Global slot for each lowered-IR slot: leaves map onto their origin
  /// node's persistent slot (pass-created constants get a fresh slot
  /// pre-initialized to their value), interiors get fresh scratch slots.
  std::vector<std::int32_t> map_slots(const opt::LoweredSfg& l);
  Instr emit_ins(const opt::LoweredSfg& l, std::size_t idx,
                 const std::vector<std::int32_t>& g);
  std::int32_t compile_expr(const NodePtr& n, Tape& tape);
  std::int32_t net_id(const sched::Net* n) const;
  std::int32_t compile_sfg(sfg::Sfg& s, const sched::TimedBase& comp,
                           std::unordered_map<sfg::Sfg*, std::int32_t>& local);

  Image& img_;
  opt::PassOptions popts_;
  std::unordered_map<const Node*, std::int32_t> slots_;
  std::unordered_map<const sched::Net*, std::int32_t> net_map_;
};

std::int32_t Image::Builder::slot_of(const NodePtr& n) {
  const auto it = slots_.find(n.get());
  if (it != slots_.end()) return it->second;
  const auto slot = static_cast<std::int32_t>(img_.init_slots.size());
  img_.init_slots.push_back(n->value.value());
  slots_.emplace(n.get(), slot);
  if (n->op == Op::kReg) {
    img_.reg_slots.emplace(n->name, slot);
    img_.reg_inits.push_back(RegInit{slot, n->init});
  } else if (n->op == Op::kInput) {
    img_.input_slots.emplace(n->name, slot);
  }
  return slot;
}

std::vector<std::int32_t> Image::Builder::map_slots(
    const opt::LoweredSfg& l) {
  std::vector<std::int32_t> g(l.ins.size(), -1);
  for (std::size_t i = 0; i < l.ins.size(); ++i) {
    const opt::LIns& ins = l.ins[i];
    if (ins.is_leaf() && ins.origin != nullptr) {
      g[i] = slot_of(ins.origin);
    } else if (ins.is_leaf()) {
      // Pass-created constant: its slot is never written, so the initial
      // value is the value.
      g[i] = static_cast<std::int32_t>(img_.init_slots.size());
      img_.init_slots.push_back(ins.cval);
    } else {
      g[i] = static_cast<std::int32_t>(img_.init_slots.size());
      img_.init_slots.push_back(0.0);
    }
  }
  return g;
}

Instr Image::Builder::emit_ins(const opt::LoweredSfg& l,
                                        std::size_t idx,
                                        const std::vector<std::int32_t>& g) {
  const opt::LIns& i = l.ins[idx];
  const auto arg = [&](std::int32_t s) {
    return s >= 0 ? g[static_cast<std::size_t>(s)] : -1;
  };
  Instr ins = Instr::apply(i.op, g[idx], arg(i.a), arg(i.b), arg(i.c), i.fmt);
  if (i.op == Op::kCast) ins.q = img_.quantizers.index(i.fmt);
  return ins;
}

std::int32_t Image::Builder::compile_expr(const NodePtr& n, Tape& tape) {
  opt::LoweredSfg l = opt::lower_expr(n);
  opt::run_passes(l, popts_);
  img_.pass_stats += l.stats;
  const auto g = map_slots(l);
  for (std::size_t i = 0; i < l.ins.size(); ++i) {
    if (!l.ins[i].is_leaf()) tape.push_back(emit_ins(l, i, g));
  }
  return g[static_cast<std::size_t>(l.outputs.front().slot)];
}

std::int32_t Image::Builder::net_id(const sched::Net* n) const {
  const auto it = net_map_.find(n);
  if (it == net_map_.end())
    throw std::logic_error("CompiledSystem: component bound to unknown net");
  return it->second;
}

std::int32_t Image::Builder::compile_sfg(
    sfg::Sfg& s, const sched::TimedBase& comp,
    std::unordered_map<sfg::Sfg*, std::int32_t>& local) {
  const auto lit = local.find(&s);
  if (lit != local.end()) return lit->second;

  s.analyze();
  SfgCode code;

  // Lower the whole SFG once and run the pass pipeline over it; the tapes
  // below are straight re-emissions of the optimized IR.
  opt::LoweredSfg l = opt::lower(s);
  opt::run_passes(l, popts_);
  img_.pass_stats += l.stats;
  const auto g = map_slots(l);

  // Input plumbing: bound inputs load from net slots (quantized per the
  // declared format); unbound inputs refresh from the live node each cycle
  // so interpreted-style pokes keep working. The component's port table
  // lists each declared input's bindings in declaration order.
  const sched::TimedBase::PortTable& ports = comp.port_table(s);
  auto bind = ports.ins.begin();
  for (std::size_t k = 0; k < s.inputs().size(); ++k) {
    const NodePtr& in = s.inputs()[k];
    const std::int32_t in_slot = slot_of(in);
    if (bind == ports.ins.end() || bind->input != k) {
      img_.refresh.push_back(in_slot);
      continue;
    }
    for (; bind != ports.ins.end() && bind->input == k; ++bind) {
      const auto net_slot =
          img_.net_slots[static_cast<std::size_t>(net_id(bind->net))];
      Instr load = Instr::copy(in_slot, net_slot);
      if (in->has_fmt) {
        load = Instr::copy_q(in_slot, net_slot, in->fmt);
        load.q = img_.quantizers.index(in->fmt);
      }
      code.load_inputs.push_back(load);
      code.required_nets.push_back(net_id(bind->net));
    }
  }

  // Pre tape: the input-independent reachable subset, self-contained so it
  // can run in the token-production phase; main tape: everything else.
  // The pre phase always precedes main within one cycle and registers only
  // commit in phase 3, so pre-computed slots stay valid for main.
  std::vector<char> in_pre(l.ins.size(), 0);
  for (const auto idx : l.pre) in_pre[static_cast<std::size_t>(idx)] = 1;
  for (std::size_t i = 0; i < l.ins.size(); ++i) {
    if (l.ins[i].is_leaf()) continue;
    (in_pre[i] ? code.pre : code.main).push_back(emit_ins(l, i, g));
  }

  const auto pushes = [&](const std::vector<sched::TimedBase::PortTable::Out>& outs,
                          std::vector<SfgCode::Push>& to) {
    for (const auto& o : outs)
      to.push_back(SfgCode::Push{
          net_id(o.net), g[static_cast<std::size_t>(l.outputs[o.output].slot)]});
  };
  pushes(ports.pre, code.pre_pushes);
  pushes(ports.main, code.main_pushes);

  // Phase 3 commits in place, so a commit must not read another register's
  // current-value slot: an earlier commit may already have overwritten it
  // this cycle (b1 <- b0 after b0 <- rx). The main tape copies such
  // sources into scratch while every register still holds its old value.
  for (const auto& a : l.assigns) {
    std::int32_t src = g[static_cast<std::size_t>(a.slot)];
    const opt::LIns& from = l.ins[static_cast<std::size_t>(a.slot)];
    if (from.op == Op::kReg && from.origin != a.reg) {
      const auto tmp = static_cast<std::int32_t>(img_.init_slots.size());
      img_.init_slots.push_back(0.0);
      code.main.push_back(Instr::copy(tmp, src));
      src = tmp;
    }
    const std::int32_t q = a.reg->has_fmt ? img_.quantizers.index(a.reg->fmt) : -1;
    code.commits.push_back(SfgCode::Commit{slot_of(a.reg), src, a.reg->fmt, a.reg->has_fmt, q});
  }

  const auto id = static_cast<std::int32_t>(img_.sfgs.size());
  img_.sfgs.push_back(std::move(code));
  local.emplace(&s, id);
  return id;
}

void Image::Builder::build(const sched::CycleScheduler& sched) {
  img_.max_iters = sched.max_iterations();

  for (sched::Net* n : sched.all_nets()) {
    const auto id = static_cast<std::int32_t>(img_.net_slots.size());
    net_map_.emplace(n, id);
    img_.net_ids.emplace(n->name(), id);
    img_.net_names.push_back(n->name());
    img_.net_slots.push_back(static_cast<std::int32_t>(img_.init_slots.size()));
    img_.init_slots.push_back(n->last().value());
    img_.nets.push_back(n);
  }

  for (sched::Component* c : sched.components()) {
    Comp comp;
    comp.name = c->name();
    if (auto* f = dynamic_cast<sched::FsmComponent*>(c)) {
      comp.kind = Kind::kFsm;
      std::unordered_map<sfg::Sfg*, std::int32_t> local;
      const fsm::Fsm& m = f->machine();
      comp.by_state.resize(static_cast<std::size_t>(m.num_states()));
      for (const auto& t : m.transitions()) {
        GuardedTransition gt;
        gt.always = t.guards.empty();
        if (!gt.always)
          gt.guard_slot = compile_expr(t.guards.front().expr().node(), gt.guard);
        for (auto* s : t.actions) gt.sfgs.push_back(compile_sfg(*s, *f, local));
        gt.to = t.to;
        comp.by_state[static_cast<std::size_t>(t.from)].push_back(std::move(gt));
      }
      comp.start = m.current();
      comp.initial = m.initial_state();
    } else if (auto* s = dynamic_cast<sched::SfgComponent*>(c)) {
      comp.kind = Kind::kSfg;
      std::unordered_map<sfg::Sfg*, std::int32_t> local;
      comp.solo_sfg = compile_sfg(s->graph(), *s, local);
    } else if (auto* d = dynamic_cast<sched::DispatchComponent*>(c)) {
      comp.kind = Kind::kDispatch;
      std::unordered_map<sfg::Sfg*, std::int32_t> local;
      comp.instr_net = net_id(&d->instruction_net());
      for (const auto& [opcode, g] : d->instruction_table().entries())
        comp.table.add(opcode, compile_sfg(*g, *d, local));
      if (d->default_instruction() != nullptr)
        comp.table.set_default(compile_sfg(*d->default_instruction(), *d, local));
    } else if (auto* u = dynamic_cast<sched::UntimedComponent*>(c)) {
      comp.kind = Kind::kUntimed;
      comp.untimed = u;
      for (const sched::Net* n : u->input_nets()) comp.in_nets.push_back(net_id(n));
      for (const sched::Net* n : u->output_nets()) comp.out_nets.push_back(net_id(n));
    } else {
      throw ElabError(diag::Diagnostic{
          diag::Severity::kError, "SIM-001", "compiled simulator", diag::kNoCycle,
          "unsupported component '" + c->name() + "'", {}});
    }
    img_.comps.push_back(std::move(comp));
  }
}

std::shared_ptr<const Image> Image::compile(const sched::CycleScheduler& sched,
                                            const opt::PassOptions& passes) {
  auto img = std::make_shared<Image>();
  Builder(*img, passes).build(sched);
  img->build_schedule();
  img->compute_ir_hash();
  return img;
}

void Image::build_schedule() {
  // The compiled structures' action graph, laid out by the same helper as
  // sched::Schedule::build: one action per component, two for dispatch
  // (decode performs the deferred pre-pushes, the firing orders after it).
  // FSM pre-pushes run in phase 1 and impose no ordering, so only
  // main_pushes count as products there.
  std::vector<std::size_t> act_comp;
  std::vector<bool> act_decode;
  std::vector<std::vector<std::int32_t>> needs;
  std::vector<std::vector<std::int32_t>> produces;
  std::vector<int> after;
  std::vector<std::string> names;

  const auto dedup = [](std::vector<std::int32_t>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  // An SFG's required nets, and its phase-2 (main) products.
  const auto sfg_deps = [&](std::int32_t id, std::vector<std::int32_t>& req,
                            std::vector<std::int32_t>& prod) {
    const SfgCode& s = sfgs[static_cast<std::size_t>(id)];
    req.insert(req.end(), s.required_nets.begin(), s.required_nets.end());
    for (const auto& p : s.main_pushes) prod.push_back(p.net);
  };

  for (std::size_t i = 0; i < comps.size(); ++i) {
    const Comp& c = comps[i];
    names.push_back(c.name);
    std::vector<std::int32_t> req;
    std::vector<std::int32_t> prod;
    int decode_idx = -1;
    switch (c.kind) {
      case Kind::kFsm:
        for (const auto& st : c.by_state)
          for (const auto& gt : st)
            for (const auto id : gt.sfgs) sfg_deps(id, req, prod);
        break;
      case Kind::kSfg:
        sfg_deps(c.solo_sfg, req, prod);
        break;
      case Kind::kDispatch: {
        std::vector<std::int32_t> dprod;
        c.table.for_each([&](std::int32_t id) {
          sfg_deps(id, req, prod);
          for (const auto& p : sfgs[static_cast<std::size_t>(id)].pre_pushes)
            dprod.push_back(p.net);
        });
        dedup(dprod);
        decode_idx = static_cast<int>(act_comp.size());
        act_comp.push_back(i);
        act_decode.push_back(true);
        needs.push_back({c.instr_net});
        produces.push_back(std::move(dprod));
        after.push_back(-1);
        break;
      }
      case Kind::kUntimed:
        req = c.in_nets;
        prod = c.out_nets;
        break;
    }
    dedup(req);
    dedup(prod);
    act_comp.push_back(i);
    act_decode.push_back(false);
    needs.push_back(std::move(req));
    produces.push_back(std::move(prod));
    after.push_back(decode_idx);
  }

  build_parts(act_comp, needs, produces);
  sched::LevelOrder lo = sched::order_actions(needs, produces, after, act_comp, names);
  if (!lo.reason.empty()) {
    sched_reason = std::move(lo.reason);
    return;
  }
  level_order.reserve(lo.order.size());
  for (const int a : lo.order) {
    const auto k = static_cast<std::size_t>(a);
    level_order.push_back(SchedSlot{static_cast<std::int32_t>(act_comp[k]), act_decode[k]});
  }
  level_offsets = std::move(lo.offsets);
  sched_levels = static_cast<int>(level_offsets.size()) - 1;
  levelizable = true;
}

void Image::build_parts(const std::vector<std::size_t>& act_comp,
                        const std::vector<std::vector<std::int32_t>>& needs,
                        const std::vector<std::vector<std::int32_t>>& produces) {
  const std::size_t n = comps.size();
  // Component graph: a -> b when an action of `a` produces a net an action
  // of `b` needs (the action graph above with each component's actions
  // merged into one node).
  std::vector<std::vector<std::size_t>> producers(net_slots.size());
  for (std::size_t a = 0; a < act_comp.size(); ++a)
    for (const auto net : produces[a])
      producers[static_cast<std::size_t>(net)].push_back(act_comp[a]);
  std::vector<std::vector<std::size_t>> succ(n);
  for (std::size_t a = 0; a < act_comp.size(); ++a)
    for (const auto net : needs[a])
      for (const std::size_t from : producers[static_cast<std::size_t>(net)])
        if (from != act_comp[a]) succ[from].push_back(act_comp[a]);
  for (auto& s : succ) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }

  // Strongly connected groups (Tarjan, iterative), which come out in
  // reverse topological order: a group only depends on groups found after
  // it. A part may not split a group, or one of its walks would need
  // another part's result before that part has run.
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(n, kUnseen), low(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<std::size_t> stack;
  std::vector<std::pair<std::size_t, std::size_t>> walk;  // node, next edge
  std::vector<std::vector<std::int32_t>> groups;
  std::size_t counter = 0;
  const auto visit = [&](std::size_t v) {
    index[v] = low[v] = counter++;
    stack.push_back(v);
    on_stack[v] = 1;
    walk.emplace_back(v, 0);
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnseen) continue;
    visit(root);
    while (!walk.empty()) {
      const std::size_t v = walk.back().first;
      if (walk.back().second < succ[v].size()) {
        const std::size_t w = succ[v][walk.back().second++];
        if (index[w] == kUnseen)
          visit(w);
        else if (on_stack[w] != 0)
          low[v] = std::min(low[v], index[w]);
        continue;
      }
      walk.pop_back();
      if (!walk.empty())
        low[walk.back().first] = std::min(low[walk.back().first], low[v]);
      if (low[v] != index[v]) continue;
      std::vector<std::int32_t> g;
      std::size_t w;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[w] = 0;
        g.push_back(static_cast<std::int32_t>(w));
      } while (w != v);
      groups.push_back(std::move(g));
    }
  }
  std::reverse(groups.begin(), groups.end());

  // Weight: the instructions a component's code emits, a proxy for its
  // share of the host compile.
  const auto sfg_weight = [&](std::int32_t id) {
    const SfgCode& s = sfgs[static_cast<std::size_t>(id)];
    return 4 + s.pre.size() + s.main.size() + s.load_inputs.size() +
           s.commits.size() + s.pre_pushes.size() + s.main_pushes.size();
  };
  std::vector<std::size_t> weight(groups.size(), 0);
  std::size_t total = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const auto ci : groups[g]) {
      const Comp& c = comps[static_cast<std::size_t>(ci)];
      for (const auto& st : c.by_state)
        for (const auto& gt : st) weight[g] += 1 + gt.guard.size();
      for (const auto id : c.sfg_ids()) weight[g] += sfg_weight(id);
    }
    total += weight[g];
  }

  // Cut the topological sequence of groups into `count` runs of about equal
  // weight: a group joins the run its weight's midpoint falls in.
  const std::size_t count = std::clamp<std::size_t>(
      total / kPartWeight, 1, std::clamp<std::size_t>(groups.size(), 1, kMaxParts));
  parts.assign(count, {});
  std::size_t before = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::size_t k = std::min(
        count - 1, (2 * before + weight[g]) * count / (2 * std::max<std::size_t>(total, 1)));
    parts[k].insert(parts[k].end(), groups[g].begin(), groups[g].end());
    before += weight[g];
  }
  parts.erase(std::remove_if(parts.begin(), parts.end(),
                             [](const auto& p) { return p.empty(); }),
              parts.end());
  if (parts.empty()) parts.emplace_back();  // no components: one empty part
  for (auto& p : parts) std::sort(p.begin(), p.end());
}

std::vector<std::int32_t> Image::Comp::sfg_ids() const {
  std::vector<std::int32_t> ids;
  if (solo_sfg >= 0) ids.push_back(solo_sfg);
  for (const auto& st : by_state)
    for (const auto& gt : st) ids.insert(ids.end(), gt.sfgs.begin(), gt.sfgs.end());
  if (kind == Kind::kDispatch) table.for_each([&](std::int32_t id) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void Image::compute_ir_hash() {
  ckpt::Hasher h;
  h.str("compiled-system");
  h.u32(static_cast<std::uint32_t>(init_slots.size()));
  h.u32(static_cast<std::uint32_t>(net_names.size()));
  for (const auto& n : net_names) h.str(n);
  const auto hash_tape = [&h](const Tape& t) {
    h.u32(static_cast<std::uint32_t>(t.size()));
    for (const Instr& i : t) {
      h.u8(static_cast<std::uint8_t>(i.op));
      h.u8(i.quant ? 1 : 0);
      h.i32(i.dst).i32(i.a).i32(i.b).i32(i.c);
      h.fmt(i.fmt);
    }
  };
  h.u32(static_cast<std::uint32_t>(sfgs.size()));
  for (const SfgCode& s : sfgs) {
    hash_tape(s.pre);
    hash_tape(s.main);
    h.u32(static_cast<std::uint32_t>(s.commits.size()));
    for (const auto& c : s.commits) h.i32(c.dst).i32(c.src);
  }
  h.u32(static_cast<std::uint32_t>(comps.size()));
  for (const Comp& c : comps) {
    h.u8(static_cast<std::uint8_t>(c.kind));
    h.str(c.name);
    h.i32(c.initial);
    h.u32(static_cast<std::uint32_t>(c.by_state.size()));
    for (const auto& ts : c.by_state) {
      h.u32(static_cast<std::uint32_t>(ts.size()));
      for (const auto& gt : ts) {
        hash_tape(gt.guard);
        h.i32(gt.to);
        for (const auto id : gt.sfgs) h.i32(id);
      }
    }
  }
  ir_hash = h.digest();
}

std::size_t Image::footprint_bytes() const {
  std::size_t bytes = net_slots.capacity() * sizeof(std::int32_t);
  for (const auto& s : sfgs) {
    bytes += (s.pre.capacity() + s.main.capacity() + s.load_inputs.capacity()) * sizeof(Instr);
    bytes += s.required_nets.capacity() * sizeof(std::int32_t);
    bytes += (s.pre_pushes.capacity() + s.main_pushes.capacity()) * sizeof(SfgCode::Push);
    bytes += s.commits.capacity() * sizeof(SfgCode::Commit);
  }
  for (const auto& c : comps) {
    for (const auto& st : c.by_state)
      for (const auto& gt : st) bytes += gt.guard.capacity() * sizeof(Instr) + gt.sfgs.capacity() * 4;
    bytes += (c.in_nets.capacity() + c.out_nets.capacity()) * sizeof(std::int32_t);
    bytes += c.table.footprint_bytes();
  }
  return bytes;
}

}  // namespace asicpp::sim
