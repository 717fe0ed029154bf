#include "synth/dpsynth.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "synth/qm.h"
#include "synth/wordnet.h"

namespace asicpp::synth {

using fixpt::Format;
using hdl::CompModel;
using netlist::GateType;
using sfg::Node;
using sfg::NodePtr;
using sfg::Op;

namespace {

bool shareable(Op op) { return op == Op::kAdd || op == Op::kSub || op == Op::kMul; }

const Format kInstrFmt{16, 15, true, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap};

Format merge_fmt(const Format& a, const Format& b) {
  Format r;
  r.is_signed = a.is_signed || b.is_signed;
  const int frac = std::max(a.frac_bits(), b.frac_bits());
  r.iwl = std::max(a.iwl, b.iwl);
  r.wl = r.iwl + frac + (r.is_signed ? 1 : 0);
  return r;
}

class CompSynth {
 public:
  CompSynth(CompModel model, netlist::Netlist& nl, const SynthOptions& opt,
            const std::map<std::string, Bus>* provided = nullptr,
            std::map<std::string, Bus>* captured = nullptr)
      : m_(std::move(model)), wb_(nl), opt_(opt), provided_(provided), captured_(captured) {}

  SynthReport run();

 private:
  struct Mode {
    std::int32_t sel = -1;           ///< select bit (gate id)
    std::vector<sfg::Sfg*> sfgs;     ///< SFGs active in this mode
    int to_state = -1;               ///< FSM destination state
  };

  struct Instance {
    const Node* node;
    int mode;
    int unit = -1;
  };

  struct Unit {
    Op op;
    std::vector<int> instances;
    bool built = false;
    Bus out;
  };

  const Format& fmt(const Node* n) const { return m_.fmts.at(n); }

  Bus leaf_bus(const NodePtr& n);
  Bus value_of(int mode, const NodePtr& n);
  std::int32_t bool_of(int mode, const NodePtr& n);

  void discover(int mode, const NodePtr& n,
                std::unordered_map<const Node*, bool>& seen);
  void collect_instance_deps(int inst, const NodePtr& n,
                             std::unordered_map<const Node*, bool>& seen);
  void bind_units();
  bool units_acyclic(std::vector<int>* cycle_unit);
  void build_unit(int u);

  void build_modes_and_selects();
  void build_fsm_selects();
  void build_outputs_and_regs();

  CompModel m_;
  WordBuilder wb_;
  SynthOptions opt_;
  const std::map<std::string, Bus>* provided_ = nullptr;
  std::map<std::string, Bus>* captured_ = nullptr;

  std::vector<Mode> modes_;
  std::vector<Instance> instances_;
  std::map<std::pair<const Node*, int>, int> inst_of_;  ///< (node, mode) -> instance
  std::vector<std::vector<int>> inst_deps_;             ///< instance -> instances
  std::vector<Unit> units_;

  std::unordered_map<const Node*, Bus> leaf_memo_;
  std::map<std::pair<const Node*, int>, Bus> memo_;

  // FSM state
  std::vector<std::int32_t> state_q_;   ///< state register bits
  std::vector<std::uint32_t> state_code_;  ///< encoding per state
  int state_bits_ = 0;
};

Bus CompSynth::leaf_bus(const NodePtr& n) {
  const auto it = leaf_memo_.find(n.get());
  if (it != leaf_memo_.end()) return it->second;
  Bus b;
  switch (n->op) {
    case Op::kInput:
      if (provided_ != nullptr && provided_->count(n->name)) {
        // Linked input: quantize the incoming bus into the declared
        // format, matching the interpreted token-load semantics.
        b = wb_.quantize(provided_->at(n->name), fmt(n.get()));
      } else {
        b = wb_.input(hdl::sanitize(n->name), fmt(n.get()));
      }
      break;
    case Op::kConst:
      b = wb_.constant(n->value.value(), fmt(n.get()));
      break;
    case Op::kReg:
      b = wb_.reg(n->has_fmt ? n->fmt : fmt(n.get()), n->init);
      break;
    default:
      throw std::logic_error("leaf_bus: not a leaf");
  }
  leaf_memo_.emplace(n.get(), b);
  return b;
}

std::int32_t CompSynth::bool_of(int mode, const NodePtr& n) {
  return wb_.nonzero(value_of(mode, n));
}

Bus CompSynth::value_of(int mode, const NodePtr& n) {
  switch (n->op) {
    case Op::kInput:
    case Op::kConst:
    case Op::kReg:
      return leaf_bus(n);
    default:
      break;
  }
  const auto key = std::make_pair(n.get(), mode);
  const auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;

  Bus r;
  const Format& f = fmt(n.get());

  const auto inst_it = inst_of_.find(key);
  if (inst_it != inst_of_.end()) {
    // Shared operator: route through the physical unit.
    Unit& u = units_[static_cast<std::size_t>(
        instances_[static_cast<std::size_t>(inst_it->second)].unit)];
    if (!u.built) build_unit(instances_[static_cast<std::size_t>(inst_it->second)].unit);
    r = wb_.align(u.out, f);
  } else {
    switch (n->op) {
      case Op::kAdd: r = wb_.add(value_of(mode, n->args[0]), value_of(mode, n->args[1]), f); break;
      case Op::kSub: r = wb_.sub(value_of(mode, n->args[0]), value_of(mode, n->args[1]), f); break;
      case Op::kMul: r = wb_.mul(value_of(mode, n->args[0]), value_of(mode, n->args[1]), f); break;
      case Op::kNeg: r = wb_.neg(value_of(mode, n->args[0]), f); break;
      case Op::kAnd:
        r = wb_.logic(GateType::kAnd, value_of(mode, n->args[0]), value_of(mode, n->args[1]), f);
        break;
      case Op::kOr:
        r = wb_.logic(GateType::kOr, value_of(mode, n->args[0]), value_of(mode, n->args[1]), f);
        break;
      case Op::kXor:
        r = wb_.logic(GateType::kXor, value_of(mode, n->args[0]), value_of(mode, n->args[1]), f);
        break;
      case Op::kNot: {
        const auto nz = bool_of(mode, n->args[0]);
        r.fmt = f;
        r.bits.push_back(wb_.netlist().add_gate(GateType::kNot, nz));
        break;
      }
      case Op::kShl: {
        // v * 2^n at unchanged fractional precision: mantissa shifts left.
        const Bus a = value_of(mode, n->args[0]);
        const int sh = static_cast<int>(n->args[1]->value.value());
        r.fmt = f;
        const std::int32_t s = a.fmt.is_signed ? a.bits.back() : wb_.zero();
        for (int i = 0; i < f.wl; ++i) {
          const int src = i - sh;
          if (src < 0)
            r.bits.push_back(wb_.zero());
          else if (src < a.width())
            r.bits.push_back(a.bits[static_cast<std::size_t>(src)]);
          else
            r.bits.push_back(s);
        }
        break;
      }
      case Op::kShr: {
        // v / 2^n: the binary point moves; the mantissa bits are unchanged.
        const Bus a = value_of(mode, n->args[0]);
        r.fmt = f;
        const std::int32_t s = a.fmt.is_signed ? a.bits.back() : wb_.zero();
        for (int i = 0; i < f.wl; ++i)
          r.bits.push_back(i < a.width() ? a.bits[static_cast<std::size_t>(i)] : s);
        break;
      }
      case Op::kMux: {
        const auto sel = bool_of(mode, n->args[0]);
        r = wb_.mux(sel, value_of(mode, n->args[1]), value_of(mode, n->args[2]), f);
        break;
      }
      case Op::kEq:
      case Op::kNe:
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe: {
        const Bus a = value_of(mode, n->args[0]);
        const Bus b = value_of(mode, n->args[1]);
        std::int32_t bit;
        switch (n->op) {
          case Op::kEq: bit = wb_.equal(a, b); break;
          case Op::kNe: bit = wb_.netlist().add_gate(GateType::kNot, wb_.equal(a, b)); break;
          case Op::kLt: bit = wb_.less(a, b); break;
          case Op::kGe: bit = wb_.netlist().add_gate(GateType::kNot, wb_.less(a, b)); break;
          case Op::kGt: bit = wb_.less(b, a); break;
          default: bit = wb_.netlist().add_gate(GateType::kNot, wb_.less(b, a)); break;
        }
        r.fmt = f;
        r.bits.push_back(bit);
        break;
      }
      case Op::kCast:
        r = wb_.quantize(value_of(mode, n->args[0]), f);
        break;
      default:
        throw std::logic_error("value_of: unhandled op");
    }
  }
  memo_.emplace(key, r);
  return r;
}

// --- instance discovery & binding ---

void CompSynth::discover(int mode, const NodePtr& n,
                         std::unordered_map<const Node*, bool>& seen) {
  switch (n->op) {
    case Op::kInput:
    case Op::kConst:
    case Op::kReg:
      return;
    default:
      break;
  }
  if (seen.count(n.get())) return;
  seen.emplace(n.get(), true);
  // Post-order: operands first, so instance ordinals follow topo order.
  for (const auto& a : n->args) discover(mode, a, seen);
  if (shareable(n->op)) {
    const auto key = std::make_pair(n.get(), mode);
    if (!inst_of_.count(key)) {
      inst_of_.emplace(key, static_cast<int>(instances_.size()));
      instances_.push_back(Instance{n.get(), mode, -1});
    }
  }
}

void CompSynth::collect_instance_deps(int inst, const NodePtr& n,
                                      std::unordered_map<const Node*, bool>& seen) {
  switch (n->op) {
    case Op::kInput:
    case Op::kConst:
    case Op::kReg:
      return;
    default:
      break;
  }
  if (seen.count(n.get())) return;
  seen.emplace(n.get(), true);
  const int mode = instances_[static_cast<std::size_t>(inst)].mode;
  if (shareable(n->op)) {
    const auto it = inst_of_.find({n.get(), mode});
    if (it != inst_of_.end() && it->second != inst) {
      inst_deps_[static_cast<std::size_t>(inst)].push_back(it->second);
      return;  // stop at shared boundaries
    }
  }
  for (const auto& a : n->args) collect_instance_deps(inst, a, seen);
}

bool CompSynth::units_acyclic(std::vector<int>* cycle_units) {
  const int nu = static_cast<int>(units_.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(nu));
  std::vector<int> indeg(static_cast<std::size_t>(nu), 0);
  std::vector<std::vector<bool>> has(static_cast<std::size_t>(nu),
                                     std::vector<bool>(static_cast<std::size_t>(nu), false));
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const int u = instances_[i].unit;
    for (const int d : inst_deps_[i]) {
      const int v = instances_[static_cast<std::size_t>(d)].unit;
      if (u == v) continue;  // same-unit dependency would itself be a cycle
      if (!has[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)]) {
        has[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] = true;
        adj[static_cast<std::size_t>(v)].push_back(u);
        ++indeg[static_cast<std::size_t>(u)];
      }
    }
  }
  // Same-unit instance dependencies are cycles, too.
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    for (const int d : inst_deps_[i]) {
      if (instances_[static_cast<std::size_t>(d)].unit == instances_[i].unit &&
          d != static_cast<int>(i)) {
        if (cycle_units != nullptr) *cycle_units = {instances_[i].unit};
        return false;
      }
    }
  }
  std::vector<int> q;
  for (int u = 0; u < nu; ++u)
    if (indeg[static_cast<std::size_t>(u)] == 0) q.push_back(u);
  int seen = 0;
  while (!q.empty()) {
    const int u = q.back();
    q.pop_back();
    ++seen;
    for (const int v : adj[static_cast<std::size_t>(u)])
      if (--indeg[static_cast<std::size_t>(v)] == 0) q.push_back(v);
  }
  if (seen == nu) return true;
  if (cycle_units != nullptr) {
    cycle_units->clear();
    for (int u = 0; u < nu; ++u)
      if (indeg[static_cast<std::size_t>(u)] > 0) cycle_units->push_back(u);
  }
  return false;
}

void CompSynth::bind_units() {
  // Greedy ordinal binding: j-th add of any mode shares the j-th adder.
  std::map<std::pair<int, int>, int> unit_key;  // (op, ordinal) -> unit
  std::map<std::pair<int, int>, int> counts;    // (op, mode) -> next ordinal
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    Instance& in = instances_[i];
    const int opi = static_cast<int>(in.node->op);
    const int ord = counts[{opi, in.mode}]++;
    const auto key = std::make_pair(opi, ord);
    auto it = unit_key.find(key);
    if (it == unit_key.end()) {
      it = unit_key.emplace(key, static_cast<int>(units_.size())).first;
      units_.push_back(Unit{in.node->op, {}, false, {}});
    }
    in.unit = it->second;
    units_[static_cast<std::size_t>(it->second)].instances.push_back(static_cast<int>(i));
  }

  // Repair combinational cycles by splitting instances off shared units.
  std::vector<int> cyc;
  int guard = 0;
  while (!units_acyclic(&cyc)) {
    if (++guard > static_cast<int>(instances_.size()) + 8)
      throw std::logic_error("bind_units: cycle repair did not converge");
    bool split = false;
    for (const int u : cyc) {
      Unit& unit = units_[static_cast<std::size_t>(u)];
      if (unit.instances.size() < 2) continue;
      const int moved = unit.instances.back();
      unit.instances.pop_back();
      const int nu = static_cast<int>(units_.size());
      units_.push_back(Unit{unit.op, {moved}, false, {}});
      instances_[static_cast<std::size_t>(moved)].unit = nu;
      split = true;
      break;
    }
    if (!split)
      throw std::logic_error("bind_units: irreducible combinational cycle");
  }
}

void CompSynth::build_unit(int ui) {
  Unit& u = units_[static_cast<std::size_t>(ui)];
  if (u.built) return;
  u.built = true;  // set first; acyclic binding guarantees no re-entry

  // Merge operand formats across instances.
  const Node* first = instances_[static_cast<std::size_t>(u.instances.at(0))].node;
  Format fa = fmt(first->args[0].get());
  Format fb = fmt(first->args[1].get());
  for (std::size_t k = 1; k < u.instances.size(); ++k) {
    const Node* n = instances_[static_cast<std::size_t>(u.instances[k])].node;
    fa = merge_fmt(fa, fmt(n->args[0].get()));
    fb = merge_fmt(fb, fmt(n->args[1].get()));
  }

  // Operand muxes: fold newest-first so instance 0 is the fallback.
  const auto operand = [&](int arg_idx, const Format& f) {
    const Instance& base = instances_[static_cast<std::size_t>(u.instances[0])];
    Bus acc = wb_.align(
        value_of(base.mode, base.node->args[static_cast<std::size_t>(arg_idx)]), f);
    for (std::size_t k = 1; k < u.instances.size(); ++k) {
      const Instance& in = instances_[static_cast<std::size_t>(u.instances[k])];
      const Bus v = value_of(in.mode, in.node->args[static_cast<std::size_t>(arg_idx)]);
      acc = wb_.mux(modes_[static_cast<std::size_t>(in.mode)].sel, wb_.align(v, f), acc, f);
    }
    return acc;
  };

  const Bus a = operand(0, fa);
  const Bus b = operand(1, fb);
  Format out;
  switch (u.op) {
    case Op::kAdd: out = fixpt::add_format(fa, fb); break;
    case Op::kSub:
      out = fixpt::add_format(fa, fb);
      if (!out.is_signed) {
        out.is_signed = true;
        out.wl += 1;
      }
      break;
    case Op::kMul: out = fixpt::mul_format(fa, fb); break;
    default: throw std::logic_error("build_unit: bad op");
  }
  switch (u.op) {
    case Op::kAdd: u.out = wb_.add(a, b, out); break;
    case Op::kSub: u.out = wb_.sub(a, b, out); break;
    default: u.out = wb_.mul(a, b, out); break;
  }
}

// --- control ---

void CompSynth::build_modes_and_selects() {
  switch (m_.kind) {
    case CompModel::Kind::kSfg: {
      Mode m;
      m.sel = wb_.one();
      m.sfgs = {m_.sfgs.front()};
      modes_.push_back(m);
      break;
    }
    case CompModel::Kind::kDispatch: {
      const Bus instr = (provided_ != nullptr && provided_->count("instr"))
                            ? wb_.quantize(provided_->at("instr"), kInstrFmt)
                            : wb_.input("instr", kInstrFmt);
      std::vector<std::int32_t> match_bits;
      for (const auto& [opcode, s] : m_.table.entries()) {
        Mode m;
        m.sel = wb_.equal(instr, wb_.constant(static_cast<double>(opcode), kInstrFmt));
        m.sfgs = {s};
        match_bits.push_back(m.sel);
        modes_.push_back(m);
      }
      if (m_.table.has_default()) {
        if (match_bits.empty())
          throw std::invalid_argument("synthesize_component: dispatch with no opcodes");
        std::int32_t any = match_bits.front();
        for (std::size_t i = 1; i < match_bits.size(); ++i)
          any = wb_.netlist().add_gate(GateType::kOr, any, match_bits[i]);
        Mode m;
        m.sel = wb_.netlist().add_gate(GateType::kNot, any);
        m.sfgs = {m_.table.default_value()};
        modes_.push_back(m);
      }
      break;
    }
    case CompModel::Kind::kFsm:
      build_fsm_selects();
      break;
  }
}

void CompSynth::build_fsm_selects() {
  const fsm::Fsm& f = *m_.fsm;
  const int ns = f.num_states();

  // State encoding.
  state_code_.resize(static_cast<std::size_t>(ns));
  switch (opt_.encoding) {
    case StateEncoding::kBinary:
      state_bits_ = 1;
      while ((1 << state_bits_) < ns) ++state_bits_;
      for (int s = 0; s < ns; ++s) state_code_[static_cast<std::size_t>(s)] = static_cast<std::uint32_t>(s);
      break;
    case StateEncoding::kGray:
      state_bits_ = 1;
      while ((1 << state_bits_) < ns) ++state_bits_;
      for (int s = 0; s < ns; ++s)
        state_code_[static_cast<std::size_t>(s)] = static_cast<std::uint32_t>(s ^ (s >> 1));
      break;
    case StateEncoding::kOneHot:
      state_bits_ = ns;
      for (int s = 0; s < ns; ++s) state_code_[static_cast<std::size_t>(s)] = 1u << s;
      break;
  }

  const Format bitf{1, 1, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap};
  const std::uint32_t init_code = state_code_[static_cast<std::size_t>(f.initial_state())];
  for (int b = 0; b < state_bits_; ++b) {
    const Bus q = wb_.reg(bitf, ((init_code >> b) & 1) ? 1.0 : 0.0);
    state_q_.push_back(q.bits[0]);
  }

  // Guard bits (synthesized in global mode -1; they read registers only).
  std::vector<std::int32_t> guard_bits;
  std::vector<int> guard_of_transition;
  for (const auto& t : f.transitions()) {
    if (t.guards.empty()) {
      guard_of_transition.push_back(-1);
    } else {
      guard_of_transition.push_back(static_cast<int>(guard_bits.size()));
      guard_bits.push_back(bool_of(-1, t.guards.front().expr().node()));
    }
  }

  const int ng = static_cast<int>(guard_bits.size());
  const int nt = static_cast<int>(f.transitions().size());

  // state_is(s): compare state register bits to the code.
  const auto state_is = [&](int s) {
    std::int32_t acc = -1;
    for (int b = 0; b < state_bits_; ++b) {
      const std::int32_t bit = ((state_code_[static_cast<std::size_t>(s)] >> b) & 1)
                                   ? state_q_[static_cast<std::size_t>(b)]
                                   : wb_.netlist().add_gate(GateType::kNot,
                                                            state_q_[static_cast<std::size_t>(b)]);
      acc = (acc < 0) ? bit : wb_.netlist().add_gate(GateType::kAnd, acc, bit);
    }
    return acc;
  };

  const bool use_qm = opt_.qm_controller && (state_bits_ + ng) <= 16;
  if (use_qm) {
    // Truth-table the priority selection over (guards, state bits).
    const int nin = state_bits_ + ng;
    std::vector<std::vector<std::uint32_t>> on(static_cast<std::size_t>(nt));
    std::vector<std::uint32_t> dc;
    for (std::uint32_t in = 0; in < (1u << nin); ++in) {
      const std::uint32_t scode = in & ((1u << state_bits_) - 1);
      int state = -1;
      for (int s = 0; s < ns; ++s)
        if (state_code_[static_cast<std::size_t>(s)] == scode) state = s;
      if (state < 0) {
        dc.push_back(in);
        continue;
      }
      for (int t = 0; t < nt; ++t) {
        const auto& tr = f.transitions()[static_cast<std::size_t>(t)];
        if (tr.from != state) continue;
        const int g = guard_of_transition[static_cast<std::size_t>(t)];
        const bool taken =
            (g < 0) || (((in >> (state_bits_ + g)) & 1) != 0);
        if (taken) {
          on[static_cast<std::size_t>(t)].push_back(in);
          break;  // priority: first matching transition wins
        }
      }
    }
    // Literal gates: inputs are state bits then guard bits.
    const auto input_bit = [&](int i) {
      return i < state_bits_ ? state_q_[static_cast<std::size_t>(i)]
                             : guard_bits[static_cast<std::size_t>(i - state_bits_)];
    };
    for (int t = 0; t < nt; ++t) {
      const auto cover = minimize(on[static_cast<std::size_t>(t)], dc, nin);
      std::int32_t sel;
      if (cover.empty()) {
        sel = wb_.zero();
      } else {
        sel = -1;
        for (const auto& cube : cover) {
          std::int32_t term = -1;
          for (int i = 0; i < nin; ++i) {
            if (!(cube.care & (1u << i))) continue;
            std::int32_t lit = input_bit(i);
            if (!(cube.value & (1u << i)))
              lit = wb_.netlist().add_gate(GateType::kNot, lit);
            term = (term < 0) ? lit : wb_.netlist().add_gate(GateType::kAnd, term, lit);
          }
          if (term < 0) term = wb_.one();  // universal cube
          sel = (sel < 0) ? term : wb_.netlist().add_gate(GateType::kOr, sel, term);
        }
      }
      Mode m;
      m.sel = sel;
      for (auto* s : f.transitions()[static_cast<std::size_t>(t)].actions)
        m.sfgs.push_back(&m_.optimized(*s));
      m.to_state = f.transitions()[static_cast<std::size_t>(t)].to;
      modes_.push_back(m);
    }
  } else {
    // Priority chain: sel_t = state_is(from) & guard & ~(earlier taken).
    std::vector<std::int32_t> taken_so_far(static_cast<std::size_t>(ns), -1);
    for (int t = 0; t < nt; ++t) {
      const auto& tr = f.transitions()[static_cast<std::size_t>(t)];
      std::int32_t sel = state_is(tr.from);
      const int g = guard_of_transition[static_cast<std::size_t>(t)];
      if (g >= 0)
        sel = wb_.netlist().add_gate(GateType::kAnd, sel, guard_bits[static_cast<std::size_t>(g)]);
      std::int32_t& prior = taken_so_far[static_cast<std::size_t>(tr.from)];
      if (prior >= 0) {
        sel = wb_.netlist().add_gate(
            GateType::kAnd, sel, wb_.netlist().add_gate(GateType::kNot, prior));
      }
      prior = (prior < 0) ? sel : wb_.netlist().add_gate(GateType::kOr, prior, sel);
      Mode m;
      m.sel = sel;
      for (auto* s : tr.actions) m.sfgs.push_back(&m_.optimized(*s));
      m.to_state = tr.to;
      modes_.push_back(m);
    }
  }

  // Next-state logic: mux chain, hold by default.
  for (int b = 0; b < state_bits_; ++b) {
    std::int32_t next = state_q_[static_cast<std::size_t>(b)];
    for (const auto& m : modes_) {
      const std::int32_t target =
          ((state_code_[static_cast<std::size_t>(m.to_state)] >> b) & 1) ? wb_.one() : wb_.zero();
      next = wb_.bit_mux(m.sel, target, next);
    }
    wb_.netlist().set_dff_input(state_q_[static_cast<std::size_t>(b)], next);
  }
}

void CompSynth::build_outputs_and_regs() {
  // Output ports: mux chain over producing modes, zero otherwise.
  for (const auto& port : m_.out_ports) {
    const Format& of = m_.out_fmt.at(port);
    Bus out = wb_.constant(0.0, of);
    for (std::size_t mi = 0; mi < modes_.size(); ++mi) {
      for (auto* s : modes_[mi].sfgs) {
        for (const auto& o : s->outputs()) {
          if (o.port != port) continue;
          const Bus v = value_of(static_cast<int>(mi), o.expr);
          out = wb_.mux(modes_[mi].sel, wb_.align(v, of), out, of);
        }
      }
    }
    if (captured_ != nullptr)
      (*captured_)[port] = out;
    else
      wb_.output(hdl::sanitize(port), out);
  }

  // Register next-values: quantize into the register format, hold default.
  for (const auto& rn : m_.regs) {
    const Bus q = leaf_bus(rn);
    Bus next = q;
    for (std::size_t mi = 0; mi < modes_.size(); ++mi) {
      for (auto* s : modes_[mi].sfgs) {
        for (const auto& a : s->reg_assigns()) {
          if (a.reg != rn) continue;
          const Bus v = value_of(static_cast<int>(mi), a.expr);
          const Bus qv = wb_.quantize(v, q.fmt);
          next = wb_.mux(modes_[mi].sel, qv, next, q.fmt);
        }
      }
    }
    wb_.set_next(q, next);
  }
}

SynthReport CompSynth::run() {
  SynthReport rep;
  const auto gates_before = wb_.netlist().num_gates();

  build_modes_and_selects();

  // Discover shareable instances per mode, in topological order (also done
  // without sharing, for the word-operator count in the report).
  for (std::size_t mi = 0; mi < modes_.size(); ++mi) {
    std::unordered_map<const Node*, bool> seen;
    for (auto* s : modes_[mi].sfgs) {
      for (const auto& o : s->outputs()) discover(static_cast<int>(mi), o.expr, seen);
      for (const auto& a : s->reg_assigns()) discover(static_cast<int>(mi), a.expr, seen);
    }
  }
  rep.word_ops = static_cast<int>(instances_.size());
  if (!opt_.share_operators) {
    instances_.clear();
    inst_of_.clear();
  }

  if (opt_.share_operators) {
    inst_deps_.resize(instances_.size());
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      std::unordered_map<const Node*, bool> seen;
      const Instance& in = instances_[i];
      for (const auto& a : in.node->args)
        collect_instance_deps(static_cast<int>(i), a, seen);
    }
    bind_units();
  }

  build_outputs_and_regs();

  rep.shared_units = opt_.share_operators ? static_cast<int>(units_.size()) : rep.word_ops;
  rep.gates = wb_.netlist().num_gates() - gates_before;
  if (provided_ == nullptr && captured_ == nullptr) {
    // Standalone synthesis owns the netlist; linked mode leaves the global
    // metrics to the system linker (placeholders may still be open here).
    rep.dffs = wb_.netlist().num_dff();
    rep.area = wb_.netlist().area();
    rep.depth = wb_.netlist().depth();
  }
  return rep;
}

}  // namespace

SynthReport synthesize_component(sched::Component& comp, netlist::Netlist& nl,
                                 const SynthOptions& opt) {
  return CompSynth(hdl::build_component_model(comp), nl, opt).run();
}

SynthReport synthesize_component_linked(sched::Component& comp, netlist::Netlist& nl,
                                        const SynthOptions& opt,
                                        const std::map<std::string, Bus>& provided,
                                        std::map<std::string, Bus>& outputs) {
  return CompSynth(hdl::build_component_model(comp), nl, opt, &provided, &outputs).run();
}

}  // namespace asicpp::synth
