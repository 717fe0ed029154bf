#include "verify/gen.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <random>
#include <set>
#include <sstream>

#include "ckpt/snapshot.h"
#include "fixpt/fixed.h"

namespace asicpp::verify {

using fixpt::Fixed;
using fixpt::Format;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;

namespace {

/// Format of the op-source phase register: 2 unsigned integer bits
/// wrapping at 4, so `phase + 1` is a modulo-4 counter.
const Format kPhaseFmt{2, 2, false, fixpt::Quant::kTruncate,
                       fixpt::Overflow::kWrap};

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Sig apply_op(const ExprSpec& e, const std::vector<Sig>& pool, const Format& f) {
  const Sig& a = pool[static_cast<std::size_t>(e.a)];
  const Sig& b = pool[static_cast<std::size_t>(e.b)];
  switch (e.op) {
    case OpKind::kAdd: return a + b;
    case OpKind::kSub: return a - b;
    case OpKind::kMulCast: return (a * b).cast(f);
    case OpKind::kMux: return mux(a > b, a, b);
    case OpKind::kNeg: return -a;
    case OpKind::kCmpXor: return (a == b) ^ (a < b);
    case OpKind::kCast: return a.cast(f);
  }
  return a;
}

}  // namespace

const char* op_name(OpKind op) {
  switch (op) {
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMulCast: return "mul";
    case OpKind::kMux: return "mux";
    case OpKind::kNeg: return "neg";
    case OpKind::kCmpXor: return "cmpxor";
    case OpKind::kCast: return "cast";
  }
  return "?";
}

const char* comp_kind_name(CompKind k) {
  switch (k) {
    case CompKind::kSfg: return "sfg";
    case CompKind::kFsm: return "fsm";
    case CompKind::kOpSource: return "opsource";
    case CompKind::kDispatch: return "dispatch";
    case CompKind::kAdapter: return "adapter";
    case CompKind::kUntimed: return "untimed";
  }
  return "?";
}

int CompSpec::pool_size() const {
  // The dispatcher's single input is the instruction net; it carries the
  // opcode, not data, and is not part of the expression pool.
  const std::size_t data_inputs = kind == CompKind::kDispatch ? 0 : inputs.size();
  return static_cast<int>(regs.size() + data_inputs + 2 + exprs.size());
}

bool Spec::has(CompKind k) const {
  for (const CompSpec& c : comps)
    if (c.kind == k) return true;
  return false;
}

std::vector<std::string> Spec::probes() const {
  std::vector<std::string> out;
  out.reserve(comps.size());
  for (const CompSpec& c : comps) out.push_back(net_name(c.net));
  return out;
}

std::string validate(const Spec& s) {
  if (s.wl < s.iwl + 3 || s.iwl < 2)
    return "format too narrow: wl=" + std::to_string(s.wl) +
           " iwl=" + std::to_string(s.iwl) + " (need wl >= iwl+3, iwl >= 2)";
  if (s.cycles == 0) return "cycles must be >= 1";
  if (s.comps.empty()) return "no components";

  std::set<int> nets;
  std::set<int> op_sources;
  // Adapter outputs are register-like: the net carries no token on cycle 0
  // (and an untimed block fed from such a net inherits the gap). A
  // must-fire timed component reading one deadlocks immediately, so only
  // tolerant consumers (adapter, untimed) may read "lazy" nets.
  std::set<int> lazy;
  int prev_net = -1;
  for (std::size_t i = 0; i < s.comps.size(); ++i) {
    const CompSpec& c = s.comps[i];
    const std::string who = "comp " + std::to_string(i) + " (net w" +
                            std::to_string(c.net) + ")";
    if (c.net <= prev_net) return who + ": net ids must be strictly ascending";
    prev_net = c.net;
    for (const int in : c.inputs)
      if (!nets.count(in)) return who + ": input net w" + std::to_string(in) +
                                  " is not an earlier component's net";
    const int pool = c.pool_size();
    const std::size_t data_inputs =
        c.kind == CompKind::kDispatch ? 0 : c.inputs.size();
    const int base = static_cast<int>(c.regs.size() + data_inputs) + 2;
    for (std::size_t e = 0; e < c.exprs.size(); ++e) {
      const int avail = base + static_cast<int>(e);
      if (c.exprs[e].a < 0 || c.exprs[e].a >= avail || c.exprs[e].b < 0 ||
          c.exprs[e].b >= avail)
        return who + ": expr " + std::to_string(e) + " operand out of range";
    }
    if (c.out < 0 || c.out >= pool) return who + ": out index out of range";
    if (c.out_alt < 0 || c.out_alt >= pool)
      return who + ": out_alt index out of range";
    for (const RegSpec& r : c.regs)
      if (r.next < 0 || r.next >= pool)
        return who + ": register next-value index out of range";
    switch (c.kind) {
      case CompKind::kSfg:
      case CompKind::kFsm:
        if (c.kind == CompKind::kFsm && c.regs.empty())
          return who + ": fsm needs at least one register";
        for (const int in : c.inputs)
          if (lazy.count(in))
            return who + ": timed component reads adapter-delayed net w" +
                   std::to_string(in) + " (deadlocks on cycle 0)";
        break;
      case CompKind::kOpSource:
        if (!c.inputs.empty()) return who + ": op source takes no inputs";
        op_sources.insert(c.net);
        break;
      case CompKind::kDispatch:
        if (c.inputs.size() != 1 || !op_sources.count(c.inputs[0]))
          return who + ": dispatch needs exactly one op-source input net";
        if (c.regs.empty())
          return who + ": dispatch needs at least one register";
        break;
      case CompKind::kAdapter:
      case CompKind::kUntimed:
        if (c.inputs.size() != 1)
          return who + ": adapter/untimed needs exactly one input net";
        if (c.kind == CompKind::kAdapter ||
            lazy.count(c.inputs[0]))
          lazy.insert(c.net);
        break;
    }
    nets.insert(c.net);
  }
  return {};
}

Spec generate(const GenConfig& cfg, unsigned seed) {
  std::mt19937 rng(seed * 2654435761u + 0x9e3779b9u);
  const auto pick = [&rng](int lo, int hi) {  // inclusive
    return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
  };

  Spec s;
  s.seed = seed;
  s.wl = pick(cfg.min_wl, cfg.max_wl);
  s.iwl = pick(2, std::min(4, s.wl - 3));
  s.cycles = static_cast<std::uint64_t>(
      pick(static_cast<int>(cfg.min_cycles), static_cast<int>(cfg.max_cycles)));

  const int ncomps = pick(cfg.min_comps, cfg.max_comps);
  std::vector<int> nets;          // all existing net ids
  std::vector<int> opcode_nets;   // op-source nets (only dispatchers read them)
  std::vector<int> data_nets;     // readable by every component kind
  std::vector<int> lazy_nets;     // adapter-delayed; tolerant consumers only
  int next_net = 0;
  const auto is_lazy = [&lazy_nets](int n) {
    return std::find(lazy_nets.begin(), lazy_nets.end(), n) != lazy_nets.end();
  };
  const auto tolerant_input = [&]() {  // any data or lazy net
    const std::size_t total = data_nets.size() + lazy_nets.size();
    const std::size_t i = rng() % total;
    return i < data_nets.size() ? data_nets[i]
                                : lazy_nets[i - data_nets.size()];
  };

  const auto fill_exprs = [&](CompSpec& c, int max_exprs) {
    const int nregs = static_cast<int>(c.regs.size());
    const int nin = static_cast<int>(
        c.kind == CompKind::kDispatch ? 0 : c.inputs.size());
    int pool = nregs + nin + 2;  // + constants 0.75 and -1.5
    const int nexpr = pick(2, std::max(2, max_exprs));
    for (int e = 0; e < nexpr; ++e) {
      ExprSpec ex;
      ex.op = static_cast<OpKind>(rng() % 7);
      ex.a = pick(0, pool - 1);
      ex.b = pick(0, pool - 1);
      c.exprs.push_back(ex);
      ++pool;
    }
    // Prefer deep expressions for the outputs so shrinking has work to do.
    c.out = pool - 1 - pick(0, std::min(3, pool - 1));
    c.out_alt = pool - 1 - pick(0, std::min(3, pool - 1));
    for (RegSpec& r : c.regs) r.next = pool - 1 - pick(0, std::min(4, pool - 1));
  };
  const Format sysfmt = s.fmt();
  const auto rand_init = [&] {
    return fixpt::quantize((static_cast<double>(pick(0, 12)) - 6.0) * 0.75,
                           sysfmt);
  };

  while (static_cast<int>(s.comps.size()) < ncomps) {
    const bool first = s.comps.empty();
    CompSpec c;
    c.net = next_net++;
    // Kind choice: the first component is always a register source so
    // every later component has a data net to read.
    int roll = first ? 0 : pick(0, 99);
    const bool budget2 = static_cast<int>(s.comps.size()) + 2 <= ncomps;
    if (!first && cfg.allow_dispatch && budget2 && roll >= 85) {
      // Paired op source + dispatcher.
      CompSpec src;
      src.kind = CompKind::kOpSource;
      src.net = c.net;
      s.comps.push_back(src);
      nets.push_back(src.net);
      opcode_nets.push_back(src.net);

      CompSpec dp;
      dp.kind = CompKind::kDispatch;
      dp.net = next_net++;
      dp.inputs = {src.net};  // instruction net; not part of the expr pool
      const int nregs = pick(1, 2);
      for (int r = 0; r < nregs; ++r) dp.regs.push_back({rand_init(), 0});
      fill_exprs(dp, 5);
      s.comps.push_back(dp);
      nets.push_back(dp.net);
      data_nets.push_back(dp.net);
      continue;
    }
    if (!first && cfg.allow_fsm && roll >= 70 && roll < 85) {
      c.kind = CompKind::kFsm;
      const int nregs = pick(1, 2);
      for (int r = 0; r < nregs; ++r) c.regs.push_back({rand_init(), 0});
      const int nin = pick(0, std::min(2, static_cast<int>(data_nets.size())));
      for (int k = 0; k < nin; ++k)
        c.inputs.push_back(data_nets[rng() % data_nets.size()]);
      c.guard_thresh = (static_cast<double>(pick(0, 16)) - 8.0) * 0.25;
      fill_exprs(c, 6);
    } else if (!first && cfg.allow_adapter && !data_nets.empty() && roll >= 60 &&
               roll < 70) {
      c.kind = CompKind::kAdapter;
      c.inputs = {tolerant_input()};
      const double gains[] = {0.5, 1.5, 2.0, -1.0, 0.625};
      c.gain = gains[rng() % 5];
      c.out = 0;
      c.out_alt = 0;
    } else if (!first && cfg.allow_untimed && !data_nets.empty() && roll >= 50 &&
               roll < 60) {
      c.kind = CompKind::kUntimed;
      c.inputs = {tolerant_input()};
      const double gains[] = {0.5, 1.5, 2.0, -1.0, 0.625};
      c.gain = gains[rng() % 5];
      c.out = 0;
      c.out_alt = 0;
    } else {
      c.kind = CompKind::kSfg;
      const bool source = first || data_nets.empty() || pick(0, 4) == 0;
      if (source) {
        const int nregs = pick(1, 2);
        for (int r = 0; r < nregs; ++r) c.regs.push_back({rand_init(), 0});
      } else {
        const int nin = pick(1, std::min(3, static_cast<int>(data_nets.size())));
        for (int k = 0; k < nin; ++k)
          c.inputs.push_back(data_nets[rng() % data_nets.size()]);
        if (pick(0, 2) == 0) c.regs.push_back({rand_init(), 0});
      }
      fill_exprs(c, cfg.max_exprs);
    }
    s.comps.push_back(c);
    nets.push_back(c.net);
    if (c.kind == CompKind::kAdapter ||
        (c.kind == CompKind::kUntimed && is_lazy(c.inputs[0])))
      lazy_nets.push_back(c.net);
    else
      data_nets.push_back(c.net);
  }
  return s;
}

// --- System materialization ------------------------------------------------

System::System(const Spec& spec) : spec_(spec) {
  const std::string err = validate(spec_);
  if (!err.empty())
    throw std::invalid_argument("verify::System: invalid spec: " + err);
  clk_ = std::make_unique<sfg::Clk>();
  sched_ = std::make_unique<sched::CycleScheduler>(*clk_);
  // Salt snapshots with the full spec text: the scheduler's own state hash
  // covers names and formats, so two structurally different specs with
  // identical naming would otherwise accept each other's snapshots.
  sched_->set_state_salt(ckpt::hash_string(to_text(spec_)));
  for (const CompSpec& c : spec_.comps) build_comp(c);
  // Register in reverse spec order so the iterative scheduler has to pay
  // retry passes that the level walk avoids (deterministic stand-in for
  // the shuffled registration of the original random-equivalence tests).
  for (auto it = comps_.rbegin(); it != comps_.rend(); ++it)
    sched_->add(**it);
}

void System::build_comp(const CompSpec& c) {
  const Format fmt = spec_.fmt();
  const std::string nn = spec_.net_name(c.net);

  if (c.kind == CompKind::kOpSource) {
    regs_.push_back(std::make_unique<Reg>(nn + "_phase", *clk_, kPhaseFmt, 0.0));
    Reg& phase = *regs_.back();
    sfgs_.push_back(std::make_unique<Sfg>(nn + "_src"));
    Sfg& s = *sfgs_.back();
    s.out("o", mux(phase.sig() > 1.5, Sig(1.0), Sig(2.0)).cast(fmt));
    s.assign(phase, (phase.sig() + 1.0).cast(kPhaseFmt));
    auto comp = std::make_unique<sched::SfgComponent>(nn, s);
    comp->bind_output("o", sched_->net(nn));
    comps_.push_back(std::move(comp));
    return;
  }
  if (c.kind == CompKind::kAdapter) {
    const double gain = c.gain;
    procs_.push_back(std::make_unique<df::FnProcess>(
        nn + "_proc", [gain](const std::vector<df::Token>& i,
                             std::vector<df::Token>& o) {
          o.push_back(i[0] * df::Token(gain));
        }));
    auto ad = std::make_unique<sched::DataflowAdapter>(nn, *procs_.back());
    ad->bind_input(sched_->net(spec_.net_name(c.inputs[0])));
    ad->bind_output(sched_->net(nn));
    comps_.push_back(std::move(ad));
    return;
  }
  if (c.kind == CompKind::kUntimed) {
    const double gain = c.gain;
    auto u = std::make_unique<sched::UntimedComponent>(
        nn, [gain, fmt](const std::vector<Fixed>& i, std::vector<Fixed>& o) {
          o.push_back(fixpt::quantize(i[0].value() * gain + 0.25, fmt));
        });
    u->bind_input(sched_->net(spec_.net_name(c.inputs[0])));
    u->bind_output(sched_->net(nn));
    comps_.push_back(std::move(u));
    return;
  }

  // Expression-pool kinds: kSfg, kFsm, kDispatch.
  std::vector<Sig> pool;
  std::vector<Reg*> myregs;
  for (std::size_t k = 0; k < c.regs.size(); ++k) {
    regs_.push_back(std::make_unique<Reg>(
        nn + "_r" + std::to_string(k), *clk_, fmt,
        fixpt::quantize(c.regs[k].init, fmt)));
    myregs.push_back(regs_.back().get());
    pool.push_back(regs_.back()->sig());
  }
  std::vector<Sig*> myins;
  if (c.kind != CompKind::kDispatch) {
    for (std::size_t k = 0; k < c.inputs.size(); ++k) {
      sigs_.push_back(std::make_unique<Sig>(
          Sig::input(nn + "_i" + std::to_string(k), fmt)));
      myins.push_back(sigs_.back().get());
      pool.push_back(*sigs_.back());
    }
  }
  pool.push_back(Sig(0.75));
  pool.push_back(Sig(-1.5));
  for (const ExprSpec& e : c.exprs) pool.push_back(apply_op(e, pool, fmt));

  const Sig out_main = pool[static_cast<std::size_t>(c.out)].cast(fmt);
  const Sig out_alt = pool[static_cast<std::size_t>(c.out_alt)].cast(fmt);

  const auto declare_ins = [&](Sfg& s) {
    for (const Sig* in : myins) s.in(*in);
  };
  // A next-value that is itself a register is assigned bare: every register
  // shares `fmt` and the commit quantizes anyway, and the bare leaf is the
  // register-to-register commit shape (a shift chain) engines must handle.
  const auto assign_regs = [&](Sfg& s) {
    for (std::size_t k = 0; k < myregs.size(); ++k) {
      const auto next = static_cast<std::size_t>(c.regs[k].next);
      s.assign(*myregs[k], next < myregs.size() ? pool[next] : pool[next].cast(fmt));
    }
  };
  // The alternate behaviour (FSM state B / dispatch opcode 2): negate the
  // first register, emit the alternate output.
  const auto assign_alt = [&](Sfg& s) {
    if (!myregs.empty()) s.assign(*myregs[0], (-pool[0]).cast(fmt));
  };
  const auto bind_all = [&](sched::TimedBase& comp) {
    for (std::size_t k = 0; k < myins.size(); ++k)
      comp.bind_input(*myins[k], sched_->net(spec_.net_name(c.inputs[k])));
    comp.bind_output("o", sched_->net(nn));
  };

  if (c.kind == CompKind::kSfg) {
    sfgs_.push_back(std::make_unique<Sfg>(nn + "_s"));
    Sfg& s = *sfgs_.back();
    declare_ins(s);
    s.out("o", out_main);
    assign_regs(s);
    auto comp = std::make_unique<sched::SfgComponent>(nn, s);
    bind_all(*comp);
    comps_.push_back(std::move(comp));
    return;
  }
  if (c.kind == CompKind::kFsm) {
    sfgs_.push_back(std::make_unique<Sfg>(nn + "_a"));
    Sfg& sa = *sfgs_.back();
    declare_ins(sa);
    sa.out("o", out_main);
    assign_regs(sa);
    sfgs_.push_back(std::make_unique<Sfg>(nn + "_b"));
    Sfg& sb = *sfgs_.back();
    declare_ins(sb);
    sb.out("o", out_alt);
    assign_alt(sb);
    fsms_.push_back(std::make_unique<fsm::Fsm>(nn + "_fsm"));
    fsm::Fsm& f = *fsms_.back();
    fsm::State a = f.initial("A");
    fsm::State b = f.state("B");
    a << fsm::cnd(myregs[0]->sig() < c.guard_thresh) << sa << a;
    a << fsm::always << sb << b;
    b << fsm::always << sa << a;
    auto comp = std::make_unique<sched::FsmComponent>(nn, f);
    bind_all(*comp);
    comps_.push_back(std::move(comp));
    return;
  }
  // kDispatch
  sfgs_.push_back(std::make_unique<Sfg>(nn + "_i1"));
  Sfg& s1 = *sfgs_.back();
  s1.out("o", out_main);
  assign_regs(s1);
  sfgs_.push_back(std::make_unique<Sfg>(nn + "_i2"));
  Sfg& s2 = *sfgs_.back();
  s2.out("o", out_alt);
  assign_alt(s2);
  auto dp = std::make_unique<sched::DispatchComponent>(
      nn, sched_->net(spec_.net_name(c.inputs[0])));
  dp->add_instruction(1, s1);
  dp->add_instruction(2, s2);
  dp->bind_output("o", sched_->net(nn));
  comps_.push_back(std::move(dp));
}

// --- serialization ---------------------------------------------------------

std::string to_text(const Spec& s) {
  std::ostringstream os;
  os << "spec wl=" << s.wl << " iwl=" << s.iwl << " cycles=" << s.cycles
     << " seed=" << s.seed << "\n";
  for (const CompSpec& c : s.comps) {
    os << "comp net=" << c.net << " kind=" << comp_kind_name(c.kind)
       << " inputs=[";
    for (std::size_t i = 0; i < c.inputs.size(); ++i)
      os << (i ? "," : "") << c.inputs[i];
    os << "] regs=[";
    for (std::size_t i = 0; i < c.regs.size(); ++i)
      os << (i ? "," : "") << "(" << fmt_double(c.regs[i].init) << ","
         << c.regs[i].next << ")";
    os << "] exprs=[";
    for (std::size_t i = 0; i < c.exprs.size(); ++i)
      os << (i ? "," : "") << "(" << op_name(c.exprs[i].op) << ","
         << c.exprs[i].a << "," << c.exprs[i].b << ")";
    os << "] out=" << c.out << " alt=" << c.out_alt
       << " thresh=" << fmt_double(c.guard_thresh)
       << " gain=" << fmt_double(c.gain) << "\n";
  }
  return os.str();
}

namespace {

bool parse_op(const std::string& s, OpKind* op) {
  for (OpKind k : {OpKind::kAdd, OpKind::kSub, OpKind::kMulCast, OpKind::kMux,
                   OpKind::kNeg, OpKind::kCmpXor, OpKind::kCast}) {
    if (s == op_name(k)) {
      *op = k;
      return true;
    }
  }
  return false;
}

bool parse_comp_kind(const std::string& s, CompKind* kind) {
  for (CompKind k : {CompKind::kSfg, CompKind::kFsm, CompKind::kOpSource,
                     CompKind::kDispatch, CompKind::kAdapter,
                     CompKind::kUntimed}) {
    if (s == comp_kind_name(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

/// "key=value" tokens of a spec-text line, after the leading record word.
class FieldParser {
 public:
  FieldParser(const std::string& line, int lineno) : ls_(line), lineno_(lineno) {
    ls_ >> record_;
  }

  const std::string& record() const { return record_; }

  /// Next token, which must be `key=`; returns the value part.
  std::string expect(const std::string& key) {
    std::string tok;
    if (!(ls_ >> tok) || tok.rfind(key + "=", 0) != 0)
      throw fail("expected field '" + key + "='");
    return tok.substr(key.size() + 1);
  }

  long expect_int(const std::string& key) { return to_int(expect(key), key); }

  double expect_double(const std::string& key) {
    const std::string v = expect(key);
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (end == nullptr || *end != '\0')
      throw fail("field '" + key + "' has malformed number '" + v + "'");
    return d;
  }

  /// `key=[...]` — returns the bracket body.
  std::string expect_list(const std::string& key) {
    const std::string v = expect(key);
    if (v.size() < 2 || v.front() != '[' || v.back() != ']')
      throw fail("field '" + key + "' is not a [...] list");
    return v.substr(1, v.size() - 2);
  }

  long to_int(const std::string& v, const std::string& what) const {
    char* end = nullptr;
    const long n = std::strtol(v.c_str(), &end, 10);
    if (v.empty() || end == nullptr || *end != '\0')
      throw fail("field '" + what + "' has malformed integer '" + v + "'");
    return n;
  }

  std::runtime_error fail(const std::string& why) const {
    return std::runtime_error("spec text line " + std::to_string(lineno_) +
                              ": " + why);
  }

 private:
  std::istringstream ls_;
  std::string record_;
  int lineno_;
};

/// "a,b,c" → {"a","b","c"}; empty body → {}.
std::vector<std::string> split_csv(const std::string& body) {
  std::vector<std::string> out;
  if (body.empty()) return out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= body.size(); ++i) {
    if (i == body.size() || body[i] == ',') {
      out.push_back(body.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

/// "(a,b),(c,d)" → {"a,b", "c,d"}; empty body → {}.
std::vector<std::string> split_groups(const std::string& body,
                                      const FieldParser& fp,
                                      const std::string& what) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < body.size()) {
    if (body[i] != '(') throw fp.fail("malformed " + what + " list");
    const std::size_t close = body.find(')', i);
    if (close == std::string::npos) throw fp.fail("malformed " + what + " list");
    out.push_back(body.substr(i + 1, close - i - 1));
    i = close + 1;
    if (i < body.size()) {
      if (body[i] != ',') throw fp.fail("malformed " + what + " list");
      ++i;
    }
  }
  return out;
}

}  // namespace

Spec from_text(const std::string& text) {
  Spec s;
  bool header = false;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    FieldParser fp(line, lineno);
    if (fp.record() == "spec") {
      if (header) throw fp.fail("duplicate 'spec' header");
      s.wl = static_cast<int>(fp.expect_int("wl"));
      s.iwl = static_cast<int>(fp.expect_int("iwl"));
      s.cycles = static_cast<std::uint64_t>(fp.expect_int("cycles"));
      s.seed = static_cast<unsigned>(fp.expect_int("seed"));
      header = true;
    } else if (fp.record() == "comp") {
      if (!header) throw fp.fail("'comp' before the 'spec' header");
      CompSpec c;
      c.net = static_cast<int>(fp.expect_int("net"));
      const std::string kind = fp.expect("kind");
      if (!parse_comp_kind(kind, &c.kind))
        throw fp.fail("unknown component kind '" + kind + "'");
      for (const std::string& tok : split_csv(fp.expect_list("inputs")))
        c.inputs.push_back(static_cast<int>(fp.to_int(tok, "inputs")));
      for (const std::string& g :
           split_groups(fp.expect_list("regs"), fp, "regs")) {
        const auto parts = split_csv(g);
        if (parts.size() != 2) throw fp.fail("malformed regs entry");
        RegSpec r;
        char* end = nullptr;
        r.init = std::strtod(parts[0].c_str(), &end);
        if (end == nullptr || *end != '\0')
          throw fp.fail("malformed regs init '" + parts[0] + "'");
        r.next = static_cast<int>(fp.to_int(parts[1], "regs"));
        c.regs.push_back(r);
      }
      for (const std::string& g :
           split_groups(fp.expect_list("exprs"), fp, "exprs")) {
        const auto parts = split_csv(g);
        if (parts.size() != 3) throw fp.fail("malformed exprs entry");
        ExprSpec e;
        if (!parse_op(parts[0], &e.op))
          throw fp.fail("unknown op '" + parts[0] + "'");
        e.a = static_cast<int>(fp.to_int(parts[1], "exprs"));
        e.b = static_cast<int>(fp.to_int(parts[2], "exprs"));
        c.exprs.push_back(e);
      }
      c.out = static_cast<int>(fp.expect_int("out"));
      c.out_alt = static_cast<int>(fp.expect_int("alt"));
      c.guard_thresh = fp.expect_double("thresh");
      c.gain = fp.expect_double("gain");
      s.comps.push_back(std::move(c));
    } else {
      throw fp.fail("unknown record '" + fp.record() + "'");
    }
  }
  if (!header)
    throw std::runtime_error("spec text: missing 'spec' header line");
  const std::string err = validate(s);
  if (!err.empty()) throw std::runtime_error("spec text: " + err);
  return s;
}

void emit_spec_cpp(const Spec& s, const std::string& var, std::ostream& os) {
  os << "  Spec " << var << ";\n"
     << "  " << var << ".wl = " << s.wl << ";\n"
     << "  " << var << ".iwl = " << s.iwl << ";\n"
     << "  " << var << ".cycles = " << s.cycles << ";\n"
     << "  " << var << ".seed = " << s.seed << "u;\n";
  const auto kind_token = [](CompKind k) {
    switch (k) {
      case CompKind::kSfg: return "CompKind::kSfg";
      case CompKind::kFsm: return "CompKind::kFsm";
      case CompKind::kOpSource: return "CompKind::kOpSource";
      case CompKind::kDispatch: return "CompKind::kDispatch";
      case CompKind::kAdapter: return "CompKind::kAdapter";
      case CompKind::kUntimed: return "CompKind::kUntimed";
    }
    return "CompKind::kSfg";
  };
  const auto op_token = [](OpKind op) {
    switch (op) {
      case OpKind::kAdd: return "OpKind::kAdd";
      case OpKind::kSub: return "OpKind::kSub";
      case OpKind::kMulCast: return "OpKind::kMulCast";
      case OpKind::kMux: return "OpKind::kMux";
      case OpKind::kNeg: return "OpKind::kNeg";
      case OpKind::kCmpXor: return "OpKind::kCmpXor";
      case OpKind::kCast: return "OpKind::kCast";
    }
    return "OpKind::kAdd";
  };
  for (const CompSpec& c : s.comps) {
    os << "  {\n    CompSpec c;\n"
       << "    c.kind = " << kind_token(c.kind) << ";\n"
       << "    c.net = " << c.net << ";\n";
    if (!c.inputs.empty()) {
      os << "    c.inputs = {";
      for (std::size_t i = 0; i < c.inputs.size(); ++i)
        os << (i ? ", " : "") << c.inputs[i];
      os << "};\n";
    }
    for (const RegSpec& r : c.regs)
      os << "    c.regs.push_back({" << fmt_double(r.init) << ", " << r.next
         << "});\n";
    for (const ExprSpec& e : c.exprs)
      os << "    c.exprs.push_back({" << op_token(e.op) << ", " << e.a << ", "
         << e.b << "});\n";
    os << "    c.out = " << c.out << ";\n"
       << "    c.out_alt = " << c.out_alt << ";\n";
    if (c.kind == CompKind::kFsm)
      os << "    c.guard_thresh = " << fmt_double(c.guard_thresh) << ";\n";
    if (c.kind == CompKind::kAdapter || c.kind == CompKind::kUntimed)
      os << "    c.gain = " << fmt_double(c.gain) << ";\n";
    os << "    " << var << ".comps.push_back(c);\n  }\n";
  }
}

}  // namespace asicpp::verify
