#include "sim/compiled.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "ckpt/snapshot.h"
#include "opt/ir.h"
#include "opt/passes.h"
#include "sched/schedule.h"

namespace asicpp::sim {

using sfg::Node;
using sfg::NodePtr;
using sfg::Op;

class CompiledSystem::Builder {
 public:
  Builder(CompiledSystem& sys, const opt::PassOptions& passes)
      : sys_(sys), popts_(passes) {}

  void build(const sched::CycleScheduler& sched);

 private:
  std::int32_t slot_of(const NodePtr& n);
  /// Global slot for each lowered-IR slot: leaves map onto their origin
  /// node's persistent slot (pass-created constants get a fresh slot
  /// pre-initialized to their value), interiors get fresh scratch slots.
  std::vector<std::int32_t> map_slots(const opt::LoweredSfg& l);
  static Instr emit_ins(const opt::LoweredSfg& l, std::size_t idx,
                        const std::vector<std::int32_t>& g);
  std::int32_t compile_expr(const NodePtr& n, Tape& tape);
  std::int32_t net_id(const sched::Net* n) const;
  std::int32_t compile_sfg(sfg::Sfg& s, const sched::TimedBase& comp,
                           std::unordered_map<sfg::Sfg*, std::int32_t>& local);

  CompiledSystem& sys_;
  opt::PassOptions popts_;
  std::unordered_map<const Node*, std::int32_t> slots_;
  std::unordered_map<const sched::Net*, std::int32_t> net_map_;
};

std::int32_t CompiledSystem::Builder::slot_of(const NodePtr& n) {
  const auto it = slots_.find(n.get());
  if (it != slots_.end()) return it->second;
  const auto slot = static_cast<std::int32_t>(sys_.slots_.size());
  sys_.slots_.push_back(n->value.value());
  slots_.emplace(n.get(), slot);
  if (n->op == Op::kReg) {
    sys_.reg_slots_.emplace(n->name, slot);
    sys_.reg_inits_.push_back(RegInit{slot, n->init});
  } else if (n->op == Op::kInput) {
    sys_.input_slots_.emplace(n->name, slot);
  }
  return slot;
}

std::vector<std::int32_t> CompiledSystem::Builder::map_slots(
    const opt::LoweredSfg& l) {
  std::vector<std::int32_t> g(l.ins.size(), -1);
  for (std::size_t i = 0; i < l.ins.size(); ++i) {
    const opt::LIns& ins = l.ins[i];
    if (ins.is_leaf() && ins.origin != nullptr) {
      g[i] = slot_of(ins.origin);
    } else if (ins.is_leaf()) {
      // Pass-created constant: its slot is never written, so the initial
      // value is the value.
      g[i] = static_cast<std::int32_t>(sys_.slots_.size());
      sys_.slots_.push_back(ins.cval);
    } else {
      g[i] = static_cast<std::int32_t>(sys_.slots_.size());
      sys_.slots_.push_back(0.0);
    }
  }
  return g;
}

Instr CompiledSystem::Builder::emit_ins(const opt::LoweredSfg& l,
                                        std::size_t idx,
                                        const std::vector<std::int32_t>& g) {
  const opt::LIns& i = l.ins[idx];
  const auto arg = [&](std::int32_t s) {
    return s >= 0 ? g[static_cast<std::size_t>(s)] : -1;
  };
  return Instr::apply(i.op, g[idx], arg(i.a), arg(i.b), arg(i.c), i.fmt);
}

std::int32_t CompiledSystem::Builder::compile_expr(const NodePtr& n, Tape& tape) {
  opt::LoweredSfg l = opt::lower_expr(n);
  opt::run_passes(l, popts_);
  sys_.pass_stats_ += l.stats;
  const auto g = map_slots(l);
  for (std::size_t i = 0; i < l.ins.size(); ++i) {
    if (!l.ins[i].is_leaf()) tape.push_back(emit_ins(l, i, g));
  }
  return g[static_cast<std::size_t>(l.outputs.front().slot)];
}

std::int32_t CompiledSystem::Builder::net_id(const sched::Net* n) const {
  const auto it = net_map_.find(n);
  if (it == net_map_.end())
    throw std::logic_error("CompiledSystem: component bound to unknown net");
  return it->second;
}

std::int32_t CompiledSystem::Builder::compile_sfg(
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
  sys_.pass_stats_ += l.stats;
  const auto g = map_slots(l);

  // Input plumbing: bound inputs load from net slots (quantized per the
  // declared format); unbound inputs refresh from the live node each cycle
  // so interpreted-style pokes keep working.
  const auto& binds = comp.input_bindings();
  for (const auto& in : s.inputs()) {
    const std::int32_t in_slot = slot_of(in);
    bool bound = false;
    for (const auto& b : binds) {
      if (b.node != in) continue;
      bound = true;
      const auto net_slot =
          sys_.net_slots_[static_cast<std::size_t>(net_id(b.net))];
      code.load_inputs.push_back(in->has_fmt
                                     ? Instr::copy_q(in_slot, net_slot, in->fmt)
                                     : Instr::copy(in_slot, net_slot));
      code.required_nets.push_back(net_id(b.net));
    }
    if (!bound) sys_.refresh_.push_back(InputRefresh{in, in_slot});
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

  const auto& outs = comp.output_bindings();
  for (const auto& o : l.outputs) {
    const auto bit = outs.find(o.port);
    if (bit == outs.end()) continue;
    auto& pushes = o.needs_inputs ? code.main_pushes : code.pre_pushes;
    pushes.push_back(
        SfgCode::Push{net_id(bit->second), g[static_cast<std::size_t>(o.slot)]});
  }

  for (const auto& a : l.assigns) {
    code.commits.push_back(SfgCode::Commit{slot_of(a.reg),
                                           g[static_cast<std::size_t>(a.slot)],
                                           a.reg->fmt, a.reg->has_fmt});
  }

  const auto id = static_cast<std::int32_t>(sys_.sfgs_.size());
  sys_.sfgs_.push_back(std::move(code));
  local.emplace(&s, id);
  return id;
}

void CompiledSystem::Builder::build(const sched::CycleScheduler& sched) {
  sys_.max_iters_ = sched.max_iterations();

  for (sched::Net* n : sched.all_nets()) {
    const auto id = static_cast<std::int32_t>(sys_.net_slots_.size());
    net_map_.emplace(n, id);
    sys_.net_ids_.emplace(n->name(), id);
    sys_.net_names_.push_back(n->name());
    sys_.net_slots_.push_back(static_cast<std::int32_t>(sys_.slots_.size()));
    sys_.slots_.push_back(n->last().value());
    sys_.ext_nets_.push_back(n);
    sys_.ext_net_slots_.push_back(sys_.net_slots_.back());
  }
  sys_.net_token_.assign(sys_.net_slots_.size(), 0);

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
      comp.state = m.current();
      comp.initial = m.initial_state();
    } else if (auto* s = dynamic_cast<sched::SfgComponent*>(c)) {
      comp.kind = Kind::kSfg;
      std::unordered_map<sfg::Sfg*, std::int32_t> local;
      comp.solo_sfg = compile_sfg(s->graph(), *s, local);
    } else if (auto* d = dynamic_cast<sched::DispatchComponent*>(c)) {
      comp.kind = Kind::kDispatch;
      std::unordered_map<sfg::Sfg*, std::int32_t> local;
      comp.instr_net = net_id(&d->instruction_net());
      for (const auto& [opcode, g] : d->instruction_table())
        comp.table.emplace(opcode, compile_sfg(*g, *d, local));
      if (d->default_instruction() != nullptr)
        comp.default_sfg = compile_sfg(*d->default_instruction(), *d, local);
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
    sys_.comps_.push_back(std::move(comp));
  }
}

CompiledSystem CompiledSystem::compile(const sched::CycleScheduler& sched,
                                       const opt::PassOptions& passes) {
  CompiledSystem sys;
  Builder(sys, passes).build(sched);
  sys.build_schedule();
  sys.compute_ir_hash();
  return sys;
}

void CompiledSystem::build_schedule() {
  // Mirror of sched::Schedule::build over the compiled structures: one
  // action per component, two for dispatch (decode performs the deferred
  // pre-pushes, the firing orders after it). FSM pre-pushes run in phase 1
  // and impose no ordering, so only main_pushes count as products there.
  std::vector<std::pair<std::int32_t, bool>> act;  // comp index, is_decode
  std::vector<std::vector<std::int32_t>> needs;
  std::vector<std::vector<std::int32_t>> produces;
  std::vector<int> after;

  const auto dedup = [](std::vector<std::int32_t>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  const auto sfg_needs = [&](std::int32_t id, std::vector<std::int32_t>& v) {
    for (const auto n : sfgs_[static_cast<std::size_t>(id)].required_nets) v.push_back(n);
  };
  const auto sfg_main_products = [&](std::int32_t id, std::vector<std::int32_t>& v) {
    for (const auto& p : sfgs_[static_cast<std::size_t>(id)].main_pushes) v.push_back(p.net);
  };
  const auto sfg_pre_products = [&](std::int32_t id, std::vector<std::int32_t>& v) {
    for (const auto& p : sfgs_[static_cast<std::size_t>(id)].pre_pushes) v.push_back(p.net);
  };

  for (std::size_t i = 0; i < comps_.size(); ++i) {
    const Comp& c = comps_[i];
    std::vector<std::int32_t> req;
    std::vector<std::int32_t> prod;
    int decode_idx = -1;
    switch (c.kind) {
      case Kind::kFsm:
        for (const auto& st : c.by_state) {
          for (const auto& gt : st) {
            for (const auto id : gt.sfgs) {
              sfg_needs(id, req);
              sfg_main_products(id, prod);
            }
          }
        }
        break;
      case Kind::kSfg:
        sfg_needs(c.solo_sfg, req);
        sfg_main_products(c.solo_sfg, prod);
        break;
      case Kind::kDispatch: {
        std::vector<std::int32_t> dprod;
        const auto each = [&](std::int32_t id) {
          sfg_needs(id, req);
          sfg_main_products(id, prod);
          sfg_pre_products(id, dprod);
        };
        for (const auto& [opcode, id] : c.table) {
          (void)opcode;
          each(id);
        }
        if (c.default_sfg >= 0) each(c.default_sfg);
        dedup(dprod);
        decode_idx = static_cast<int>(act.size());
        act.emplace_back(static_cast<std::int32_t>(i), true);
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
    act.emplace_back(static_cast<std::int32_t>(i), false);
    needs.push_back(std::move(req));
    produces.push_back(std::move(prod));
    after.push_back(decode_idx);
  }

  std::vector<int> cyc;
  const std::vector<int> levels = sched::levelize_actions(needs, produces, after, &cyc);
  if (levels.size() != act.size()) {
    std::string msg = "dependency cycle:";
    for (const int a : cyc) {
      const std::string& name = comps_[static_cast<std::size_t>(act[static_cast<std::size_t>(a)].first)].name;
      if (msg.rfind(name) == std::string::npos) msg += " " + name;
    }
    sched_reason_ = msg;
    return;
  }
  std::vector<int> idx(act.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](int a, int b) { return levels[a] < levels[b]; });
  level_order_.reserve(idx.size());
  for (const int i : idx) {
    level_order_.push_back(SchedSlot{act[static_cast<std::size_t>(i)].first,
                                     act[static_cast<std::size_t>(i)].second, levels[i]});
    sched_levels_ = std::max(sched_levels_, levels[i] + 1);
  }
  level_offsets_.assign(static_cast<std::size_t>(sched_levels_) + 1,
                        level_order_.size());
  for (std::size_t i = level_order_.size(); i-- > 0;)
    level_offsets_[static_cast<std::size_t>(level_order_[i].level)] = i;
  if (!level_offsets_.empty()) level_offsets_[0] = 0;
  levelizable_ = true;
}

bool CompiledSystem::comp_blocked(const Comp& c) const {
  switch (c.kind) {
    case Kind::kFsm: return c.pending != nullptr && !c.fired;
    case Kind::kUntimed: return false;  // opportunistic
    default: return !c.fired;
  }
}

std::vector<std::int32_t> CompiledSystem::comp_waiting_nets(const Comp& c) const {
  std::vector<std::int32_t> nets;
  const auto missing_of = [&](std::int32_t sfg_id) {
    for (const auto n : sfgs_[static_cast<std::size_t>(sfg_id)].required_nets) {
      if (!net_token_[static_cast<std::size_t>(n)]) nets.push_back(n);
    }
  };
  switch (c.kind) {
    case Kind::kFsm:
      if (c.pending != nullptr)
        for (const auto id : c.pending->sfgs) missing_of(id);
      break;
    case Kind::kSfg: missing_of(c.solo_sfg); break;
    case Kind::kDispatch:
      if (c.selected < 0) {
        if (!net_token_[static_cast<std::size_t>(c.instr_net)]) nets.push_back(c.instr_net);
      } else {
        missing_of(c.selected);
      }
      break;
    case Kind::kUntimed:
      for (const auto n : c.in_nets) {
        if (!net_token_[static_cast<std::size_t>(n)]) nets.push_back(n);
      }
      break;
  }
  return nets;
}

std::vector<std::int32_t> CompiledSystem::comp_pending_outputs(const Comp& c) const {
  std::vector<std::int32_t> nets;
  const auto pushes_of = [&](std::int32_t sfg_id) {
    const SfgCode& s = sfgs_[static_cast<std::size_t>(sfg_id)];
    for (const auto& p : s.pre_pushes) nets.push_back(p.net);
    for (const auto& p : s.main_pushes) nets.push_back(p.net);
  };
  switch (c.kind) {
    case Kind::kFsm:
      if (c.pending != nullptr)
        for (const auto id : c.pending->sfgs) pushes_of(id);
      break;
    case Kind::kSfg: pushes_of(c.solo_sfg); break;
    case Kind::kDispatch:
      if (c.selected >= 0) {
        pushes_of(c.selected);
      } else {
        for (const auto& [_, id] : c.table) pushes_of(id);
        if (c.default_sfg >= 0) pushes_of(c.default_sfg);
      }
      break;
    case Kind::kUntimed:
      nets = c.out_nets;
      break;
  }
  return nets;
}

diag::Diagnostic CompiledSystem::deadlock_postmortem() const {
  diag::Diagnostic d;
  d.severity = diag::Severity::kFatal;
  d.code = "SCHED-001";
  d.component = "compiled simulator";
  d.cycle = cycles_;

  std::vector<const Comp*> blocked;
  for (const auto& c : comps_) {
    if (comp_blocked(c)) blocked.push_back(&c);
  }

  std::string names;
  for (const auto* c : blocked) names += (names.empty() ? "" : ", ") + c->name;
  d.message = "combinational deadlock, unfired components: " + names;

  std::set<std::int32_t> involved;
  for (const auto* c : blocked) {
    std::string waits;
    for (const auto n : comp_waiting_nets(*c)) {
      involved.insert(n);
      waits += (waits.empty() ? "" : ", ") +
               ("'" + net_names_[static_cast<std::size_t>(n)] + "'");
    }
    d.note("component '" + c->name + "' waits on net" +
           (waits.empty() ? "s: (none — iteration bound too low?)" : "(s): " + waits));
  }

  std::vector<std::vector<int>> adj(blocked.size());
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    for (const auto n : comp_waiting_nets(*blocked[i])) {
      for (std::size_t j = 0; j < blocked.size(); ++j) {
        if (i == j) continue;
        for (const auto p : comp_pending_outputs(*blocked[j])) {
          if (p == n) adj[i].push_back(static_cast<int>(j));
        }
      }
    }
  }
  const auto cyc = diag::find_cycle(adj);
  if (!cyc.empty()) {
    std::string chain = blocked[static_cast<std::size_t>(cyc[0])]->name;
    for (std::size_t k = 1; k < cyc.size(); ++k) {
      const auto* from = blocked[static_cast<std::size_t>(cyc[k - 1])];
      const auto* to = blocked[static_cast<std::size_t>(cyc[k])];
      std::string via;
      for (const auto n : comp_waiting_nets(*from)) {
        for (const auto p : comp_pending_outputs(*to)) {
          if (p == n) via = net_names_[static_cast<std::size_t>(n)];
        }
      }
      chain += " -[" + via + "]-> " + to->name;
    }
    d.note("dependency cycle: " + chain);
  }

  for (const auto n : involved) {
    std::ostringstream os;
    os << "net '" << net_names_[static_cast<std::size_t>(n)] << "' last value = "
       << slots_[static_cast<std::size_t>(net_slots_[static_cast<std::size_t>(n)])]
       << (net_token_[static_cast<std::size_t>(n)] ? " (token present)"
                                                   : " (no token this cycle)");
    d.note(os.str());
  }
  return d;
}

void CompiledSystem::run_sfg_pre(std::int32_t id) {
  SfgCode& s = sfgs_[static_cast<std::size_t>(id)];
  exec(s.pre, slots_.data());
  ops_.add(s.pre.size());
  for (const auto& p : s.pre_pushes) {
    slots_[static_cast<std::size_t>(net_slots_[static_cast<std::size_t>(p.net)])] =
        slots_[static_cast<std::size_t>(p.src)];
    net_token_[static_cast<std::size_t>(p.net)] = 1;
  }
}

bool CompiledSystem::run_sfg_main(std::int32_t id) {
  SfgCode& s = sfgs_[static_cast<std::size_t>(id)];
  for (const auto n : s.required_nets) {
    if (!net_token_[static_cast<std::size_t>(n)]) return false;
  }
  exec(s.load_inputs, slots_.data());
  exec(s.main, slots_.data());
  ops_.add(s.load_inputs.size() + s.main.size());
  for (const auto& p : s.main_pushes) {
    slots_[static_cast<std::size_t>(net_slots_[static_cast<std::size_t>(p.net)])] =
        slots_[static_cast<std::size_t>(p.src)];
    net_token_[static_cast<std::size_t>(p.net)] = 1;
  }
  return true;
}

bool CompiledSystem::comp_try_fire(Comp& c) {
  switch (c.kind) {
    case Kind::kFsm: {
      if (c.fired || c.pending == nullptr) return false;
      for (const auto id : c.pending->sfgs) {
        const SfgCode& s = sfgs_[static_cast<std::size_t>(id)];
        for (const auto n : s.required_nets)
          if (!net_token_[static_cast<std::size_t>(n)]) return false;
      }
      for (const auto id : c.pending->sfgs) run_sfg_main(id);
      c.fired = true;
      return true;
    }
    case Kind::kSfg: {
      if (c.fired) return false;
      if (!run_sfg_main(c.solo_sfg)) return false;
      c.fired = true;
      return true;
    }
    case Kind::kDispatch: {
      if (c.fired) return false;
      bool progress = false;
      if (c.selected < 0) {
        if (!net_token_[static_cast<std::size_t>(c.instr_net)]) return false;
        const double v =
            slots_[static_cast<std::size_t>(net_slots_[static_cast<std::size_t>(c.instr_net)])];
        const long opcode = std::lround(v);
        const auto it = c.table.find(opcode);
        c.selected = (it != c.table.end()) ? it->second : c.default_sfg;
        if (c.selected < 0)
          throw std::logic_error("CompiledSystem '" + c.name + "': unknown opcode " +
                                 std::to_string(opcode) + " and no default");
        run_sfg_pre(c.selected);
        progress = true;
      }
      if (run_sfg_main(c.selected)) {
        c.fired = true;
        progress = true;
      }
      return progress;
    }
    case Kind::kUntimed: {
      if (c.fired) return false;
      for (const auto n : c.in_nets)
        if (!net_token_[static_cast<std::size_t>(n)]) return false;
      std::vector<fixpt::Fixed> in;
      in.reserve(c.in_nets.size());
      for (const auto n : c.in_nets)
        in.emplace_back(
            slots_[static_cast<std::size_t>(net_slots_[static_cast<std::size_t>(n)])]);
      const auto out = c.untimed->invoke(in);
      if (out.size() != c.out_nets.size())
        throw std::logic_error("CompiledSystem '" + c.name + "': untimed arity mismatch");
      for (std::size_t i = 0; i < out.size(); ++i) {
        const auto n = static_cast<std::size_t>(c.out_nets[i]);
        slots_[static_cast<std::size_t>(net_slots_[n])] = out[i].value();
        net_token_[n] = 1;
      }
      c.fired = true;
      return true;
    }
  }
  return false;
}

void CompiledSystem::cycle() {
  // Net reset + external drives (pins keep living on the sched::Net objects
  // so tests and benches can flip them between cycles).
  std::fill(net_token_.begin(), net_token_.end(), 0);
  for (std::size_t i = 0; i < ext_nets_.size(); ++i) {
    auto* n = const_cast<sched::Net*>(ext_nets_[i]);
    n->begin_cycle();
    if (n->has_token()) {
      slots_[static_cast<std::size_t>(ext_net_slots_[i])] = n->token().value();
      net_token_[i] = 1;
    }
  }
  for (const auto& r : refresh_) slots_[static_cast<std::size_t>(r.slot)] = r.node->value.value();

  // Phase 0: transition selection.
  for (auto& c : comps_) {
    c.fired = false;
    c.pending = nullptr;
    c.selected = -1;
    if (c.kind == Kind::kFsm) {
      for (const auto& gt : c.by_state[static_cast<std::size_t>(c.state)]) {
        if (gt.always) {
          c.pending = &gt;
          break;
        }
        exec(gt.guard, slots_.data());
        ops_.add(gt.guard.size());
        if (slots_[static_cast<std::size_t>(gt.guard_slot)] != 0.0) {
          c.pending = &gt;
          break;
        }
      }
    }
  }

  // Phase 1: token production.
  for (auto& c : comps_) {
    if (c.kind == Kind::kFsm && c.pending != nullptr) {
      for (const auto id : c.pending->sfgs) run_sfg_pre(id);
    } else if (c.kind == Kind::kSfg) {
      run_sfg_pre(c.solo_sfg);
    }
  }

  auto done = [](const Comp& c) {
    return c.kind == Kind::kFsm ? (c.fired || c.pending == nullptr) : c.fired;
  };
  const auto fire = [&](Comp& c) {
    if (!profile_) return comp_try_fire(c);
    const auto t0 = std::chrono::steady_clock::now();
    const bool f = comp_try_fire(c);
    auto& e = prof_[static_cast<std::size_t>(&c - comps_.data())];
    e.second +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (f) ++e.first;
    return f;
  };

  // Phase 2, levelized: one pass over the precomputed level order.
  bool need_iterative = true;
  bool walk_missed = false;
  if (mode_ != ScheduleMode::kIterative && levelizable_ && sched_failures_ < 2) {
    // Level-parallel walk: partition each level across the pool with a
    // barrier per level. Tapes within one level read slots written by
    // earlier levels and push disjoint nets, so the result is bit-identical
    // to the serial walk. Profiled runs stay serial (the timing table is
    // single-owner), as does a system already running on a pool lane.
    const bool par_walk =
        threads_ > 1 && !profile_ && !par::Pool::in_parallel_region();
    if (par_walk) {
      for (std::size_t l = 0; l + 1 < level_offsets_.size(); ++l) {
        const std::size_t b = level_offsets_[l], e = level_offsets_[l + 1];
        if (e - b < kMinParallelWidth) {
          for (std::size_t i = b; i < e; ++i) {
            Comp& c = comps_[static_cast<std::size_t>(level_order_[i].comp)];
            if (!done(c) && comp_try_fire(c)) fired_total_.add();
          }
        } else {
          par::Pool::shared().parallel_for(
              e - b,
              [&](std::size_t k) {
                Comp& c =
                    comps_[static_cast<std::size_t>(level_order_[b + k].comp)];
                if (!done(c) && comp_try_fire(c)) fired_total_.add();
              },
              threads_);
        }
      }
    } else {
      for (const auto& s : level_order_) {
        Comp& c = comps_[static_cast<std::size_t>(s.comp)];
        if (!done(c) && fire(c)) fired_total_.add();
      }
    }
    need_iterative = false;
    for (const auto& c : comps_) {
      if (comp_blocked(c)) {
        need_iterative = true;
        walk_missed = true;
        break;
      }
    }
    if (!need_iterative) {
      ++levelized_cycles_total_;
      sched_failures_ = 0;
    }
  } else if (mode_ == ScheduleMode::kLevelized && !levelizable_ && !sched002_reported_) {
    auto& d = diagnostics().warning(
        "SCHED-002", "compiled simulator",
        "levelized schedule requested but the system cannot be statically "
        "ordered (" + sched_reason_ + "); running iteratively");
    d.cycle = cycles_;
    sched002_reported_ = true;
  }

  // Phase 2, iterative evaluation (also the fallback after a missed walk).
  if (need_iterative) {
    int iters = walk_missed ? 1 : 0;
    for (;;) {
      bool progress = false;
      bool all_done = true;
      for (auto& c : comps_) {
        if (done(c)) continue;
        if (fire(c)) {
          progress = true;
          fired_total_.add();
        }
        if (!done(c)) all_done = false;
      }
      ++iters;
      if (iters > 1) ++retry_passes_total_;
      if (all_done) break;
      if (!progress || iters >= max_iters_) {
        bool any_blocked = false;
        for (const auto& c : comps_) {
          if (comp_blocked(c)) any_blocked = true;
        }
        if (any_blocked) {
          diag::Diagnostic d = deadlock_postmortem();
          diagnostics().report(d);
          throw sched::DeadlockError(std::move(d));
        }
        break;
      }
    }
    if (walk_missed) {
      ++sched_failures_;
      auto& d = diagnostics().warning(
          "SCHED-002", "compiled simulator",
          "schedule invalidated: the static level walk left components "
          "unfired; cycle recovered iteratively" +
              std::string(sched_failures_ >= 2 ? " (repeat miss — reverting to iterative mode)"
                                               : ""));
      d.cycle = cycles_;
    }
  }

  // Phase 3: register update + state commit.
  for (auto& c : comps_) {
    if (!c.fired) continue;
    std::vector<std::int32_t> ran;
    switch (c.kind) {
      case Kind::kFsm:
        ran.assign(c.pending->sfgs.begin(), c.pending->sfgs.end());
        c.state = c.pending->to;
        break;
      case Kind::kSfg: ran.push_back(c.solo_sfg); break;
      case Kind::kDispatch: ran.push_back(c.selected); break;
      case Kind::kUntimed: break;
    }
    for (const auto id : ran) {
      for (const auto& cm : sfgs_[static_cast<std::size_t>(id)].commits) {
        const double v = slots_[static_cast<std::size_t>(cm.src)];
        slots_[static_cast<std::size_t>(cm.dst)] =
            cm.has_fmt ? fixpt::quantize(v, cm.fmt) : v;
      }
    }
  }
  ++cycles_;
}

RunResult CompiledSystem::run(const RunOptions& opts) {
  struct Restore {
    CompiledSystem* s;
    diag::DiagEngine* diag;
    ScheduleMode mode;
    unsigned threads;
    ~Restore() {
      s->diag_ = diag;
      s->mode_ = mode;
      s->threads_ = threads;
      s->profile_ = false;
    }
  } restore{this, diag_, mode_, threads_};
  if (opts.diagnostics != nullptr) diag_ = opts.diagnostics;
  mode_ = opts.schedule;
  set_threads(opts.nthreads);
  profile_ = opts.profile;
  if (profile_) prof_.assign(comps_.size(), {0, 0.0});

  RunResult r = run_cycles(
      opts, "compiled simulator", diagnostics(), watchdog_tripped_,
      [&] {
        return CycleTotals{cycles_, fired_total_.get(), retry_passes_total_,
                           levelized_cycles_total_};
      },
      [&] { cycle(); });
  if (opts.profile) {
    r.timing.reserve(comps_.size());
    for (std::size_t i = 0; i < comps_.size(); ++i) {
      if (prof_[i].first == 0 && prof_[i].second == 0.0) continue;
      r.timing.push_back(ComponentTiming{comps_[i].name, prof_[i].first, prof_[i].second});
    }
  }
  return r;
}

CompiledSystem::Checkpoint CompiledSystem::save() const {
  Checkpoint cp;
  cp.slots = slots_;
  for (const auto& c : comps_) cp.states.push_back(c.kind == Kind::kFsm ? c.state : 0);
  cp.cycles = cycles_;
  return cp;
}

void CompiledSystem::restore(const Checkpoint& cp) {
  if (cp.slots.size() != slots_.size() || cp.states.size() != comps_.size())
    throw std::invalid_argument("CompiledSystem::restore: checkpoint from another system");
  slots_ = cp.slots;
  for (std::size_t i = 0; i < comps_.size(); ++i) {
    if (comps_[i].kind == Kind::kFsm) comps_[i].state = cp.states[i];
  }
  cycles_ = cp.cycles;
}

void CompiledSystem::reset() {
  for (const auto& r : reg_inits_) slots_[static_cast<std::size_t>(r.slot)] = r.init;
  for (auto& c : comps_) {
    if (c.kind == Kind::kFsm) c.state = c.initial;
  }
  cycles_ = 0;
}

void CompiledSystem::compute_ir_hash() {
  ckpt::Hasher h;
  h.str("compiled-system");
  h.u32(static_cast<std::uint32_t>(slots_.size()));
  h.u32(static_cast<std::uint32_t>(net_names_.size()));
  for (const auto& n : net_names_) h.str(n);
  const auto hash_tape = [&h](const Tape& t) {
    h.u32(static_cast<std::uint32_t>(t.size()));
    for (const Instr& i : t) {
      h.u8(static_cast<std::uint8_t>(i.op));
      h.u8(i.quant ? 1 : 0);
      h.i32(i.dst).i32(i.a).i32(i.b).i32(i.c);
      h.fmt(i.fmt);
    }
  };
  h.u32(static_cast<std::uint32_t>(sfgs_.size()));
  for (const SfgCode& s : sfgs_) {
    hash_tape(s.pre);
    hash_tape(s.main);
    h.u32(static_cast<std::uint32_t>(s.commits.size()));
    for (const auto& c : s.commits) h.i32(c.dst).i32(c.src);
  }
  h.u32(static_cast<std::uint32_t>(comps_.size()));
  for (const Comp& c : comps_) {
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
  ir_hash_ = h.digest();
}

void CompiledSystem::save_state(std::ostream& os) const {
  ckpt::Writer w(os);
  w.header(ckpt::EngineKind::kCompiledSystem, ir_hash_, cycles_);
  w.u32(static_cast<std::uint32_t>(slots_.size()));
  for (const double v : slots_) w.f64(v);
  w.u32(static_cast<std::uint32_t>(net_token_.size()));
  for (const std::uint8_t t : net_token_) w.u8(t);
  w.u32(static_cast<std::uint32_t>(comps_.size()));
  for (const Comp& c : comps_) {
    w.i32(c.kind == Kind::kFsm ? c.state : 0);
    w.u64(c.kind == Kind::kUntimed ? c.untimed->firings() : 0);
  }
  // Levelized-schedule cursor, mirroring the interpreted scheduler.
  w.i32(sched_failures_);
  w.u8(sched002_reported_ ? 1 : 0);
  w.end();
}

void CompiledSystem::restore_state_impl(std::istream& is) {
  ckpt::Reader r(is, "compiled simulator");
  const std::uint64_t cyc =
      r.header(ckpt::EngineKind::kCompiledSystem, ir_hash_);
  const std::size_t nslots = r.count(1u << 26);
  if (nslots != slots_.size()) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"snapshot carries " + std::to_string(nslots) +
            " slot(s), this image has " + std::to_string(slots_.size())});
  }
  for (double& v : slots_) v = r.f64();
  const std::size_t ntok = r.count(1u << 26);
  if (ntok != net_token_.size()) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"snapshot carries " + std::to_string(ntok) +
            " net token flag(s), this image has " +
            std::to_string(net_token_.size())});
  }
  for (std::uint8_t& t : net_token_) t = r.u8();
  const std::size_t ncomps = r.count(1u << 24);
  if (ncomps != comps_.size()) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"snapshot carries " + std::to_string(ncomps) +
            " component(s), this image has " + std::to_string(comps_.size())});
  }
  for (Comp& c : comps_) {
    const std::int32_t state = r.i32();
    const std::uint64_t firings = r.u64();
    if (c.kind == Kind::kFsm) {
      if (state < 0 ||
          static_cast<std::size_t>(state) >= c.by_state.size()) {
        r.fail("CKPT-004", "truncated or corrupt snapshot stream",
               {"component '" + c.name + "': FSM state index " +
                std::to_string(state) + " out of range"});
      }
      c.state = state;
    } else if (c.kind == Kind::kUntimed) {
      // The firing counter lives on the shared UntimedComponent; the
      // closure's captured state is out of scope (see sched/untimed.h).
      c.untimed->set_firings(static_cast<std::size_t>(firings));
    }
  }
  sched_failures_ = r.i32();
  sched002_reported_ = r.u8() != 0;
  r.end();
  cycles_ = cyc;
}

void CompiledSystem::restore_state(std::istream& is) {
  // Transactional: roll back to a pre-restore snapshot on any failure so a
  // bad stream leaves the simulator untouched.
  std::ostringstream backup;
  save_state(backup);
  try {
    restore_state_impl(is);
  } catch (...) {
    std::istringstream b(backup.str());
    restore_state_impl(b);
    throw;
  }
}

double CompiledSystem::net_value(const std::string& name) const {
  const auto it = net_ids_.find(name);
  if (it == net_ids_.end())
    throw std::out_of_range("CompiledSystem::net_value: no net '" + name + "'");
  return slots_[static_cast<std::size_t>(
      net_slots_[static_cast<std::size_t>(it->second)])];
}

double CompiledSystem::reg_value(const std::string& name) const {
  const auto it = reg_slots_.find(name);
  if (it == reg_slots_.end())
    throw std::out_of_range("CompiledSystem::reg_value: no register '" + name + "'");
  return slots_[static_cast<std::size_t>(it->second)];
}

void CompiledSystem::poke(const std::string& input_name, double v) {
  const auto it = input_slots_.find(input_name);
  if (it == input_slots_.end())
    throw std::out_of_range("CompiledSystem::poke: no input '" + input_name + "'");
  slots_[static_cast<std::size_t>(it->second)] = v;
  // Also update the refresh source so the poke persists across cycles.
  for (auto& r : refresh_) {
    if (r.slot == it->second) r.node->value = fixpt::Fixed(v);
  }
}

std::size_t CompiledSystem::footprint_bytes() const {
  std::size_t bytes = slots_.capacity() * sizeof(double) +
                      net_token_.capacity() + net_slots_.capacity() * sizeof(std::int32_t);
  for (const auto& s : sfgs_) {
    bytes += (s.pre.capacity() + s.main.capacity() + s.load_inputs.capacity()) * sizeof(Instr);
    bytes += s.required_nets.capacity() * sizeof(std::int32_t);
    bytes += (s.pre_pushes.capacity() + s.main_pushes.capacity()) * sizeof(SfgCode::Push);
    bytes += s.commits.capacity() * sizeof(SfgCode::Commit);
  }
  for (const auto& c : comps_) {
    for (const auto& st : c.by_state)
      for (const auto& gt : st) bytes += gt.guard.capacity() * sizeof(Instr) + gt.sfgs.capacity() * 4;
    bytes += (c.in_nets.capacity() + c.out_nets.capacity()) * sizeof(std::int32_t);
    bytes += c.table.size() * 24;
  }
  return bytes;
}

}  // namespace asicpp::sim
