// Edge cases every engine must agree on:
//   - the generated unit's quantizer (opt::cpp_quantize_expr): constant
//     form inside the Quantizer's exact domain, ldexp form outside it, and
//     the jit and standalone traces bit-identical to the compiled tape;
//   - instruction tokens off a dispatch table (negative, past the largest
//     opcode, in a hole, lround ties) on every engine;
//   - untimed closures that fill the wrong number of outputs.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "batch/batch.h"
#include "engine/engine.h"
#include "jit/jit.h"
#include "opt/semantics.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sfg/clk.h"
#include "sfg/sfg.h"
#include "sim/compiled.h"

namespace asicpp {
namespace {

using fixpt::Fixed;
using fixpt::Format;
using fixpt::Overflow;
using fixpt::Quant;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;
using Trace = std::vector<std::vector<double>>;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
const Format kCount{16, 15, true, Quant::kTruncate, Overflow::kWrap};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string tmp_path(const std::string& leaf) {
  const char* t = std::getenv("TMPDIR");
  return std::string(t != nullptr ? t : "/tmp") + "/" + leaf;
}

/// Content-addressed, so the tests of this file share it safely.
const std::string kStore = tmp_path("asicpp_edges_store");

/// Build and run the standalone simulator of `cs` (emit_cpp). Returns the
/// watched values per cycle; a non-zero exit throws std::logic_error
/// carrying the simulator's output.
Trace run_cppgen(const sim::CompiledSystem& cs, const std::vector<std::string>& watch,
                 std::uint64_t cycles, const std::string& tag) {
  const std::string base = tmp_path("asicpp_edges_" + tag + "_" + std::to_string(getpid()));
  {
    std::ofstream os(base + ".cpp");
    cs.emit_cpp(os, watch, cycles);
  }
  std::string out;
  if (jit::run_command({"c++", "-O2", "-std=c++17", "-w", "-o", base, base + ".cpp"}, &out) != 0)
    throw std::runtime_error("standalone simulator failed to compile:\n" + out);
  out.clear();
  const int st = jit::run_command({base}, &out);
  std::remove((base + ".cpp").c_str());
  std::remove(base.c_str());
  if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) throw std::logic_error(out);
  Trace t;
  std::istringstream is(out);
  std::string line;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    std::vector<double> row;
    for (std::size_t i = 0; i < watch.size() && std::getline(is, line); ++i)
      row.push_back(std::strtod(line.c_str(), nullptr));
    t.push_back(std::move(row));
  }
  return t;
}

/// A stimulus component: register `k` counts cycles and output port `port`
/// carries values[k] (the last value once k runs past the list).
void add_stimulus(Sfg& s, Reg& k, const std::string& port, const std::vector<double>& values) {
  Sig v(values.back());
  for (std::size_t i = values.size(); i-- > 0;)
    v = mux(k.sig() == static_cast<double>(i), Sig(values[i]), v);
  s.out(port, v);
}

// --- the emitted quantizer -------------------------------------------------

/// Every round/saturate pair, signed and unsigned, wl 1..70 with iwl below
/// zero, inside and above wl, plus formats off the exact domain: 2^wl
/// overflows (wl 1030), or 2^±frac is not a normal double (|frac| > 1022).
std::vector<Format> edge_formats() {
  std::vector<Format> fs;
  for (const Quant q : {Quant::kTruncate, Quant::kRound})
    for (const Overflow o : {Overflow::kSaturate, Overflow::kWrap})
      for (const bool s : {false, true}) {
        for (const int wl : {1, 2, 3, 7, 8, 16, 31, 32, 33, 52, 53, 54, 63, 64, 65, 70})
          for (const int iwl : {-3, wl / 2, wl + 2}) fs.push_back(Format{wl, iwl, s, q, o});
        for (const auto& [wl, iwl] : {std::pair{1030, 10}, {8, -1030}, {8, 1040}})
          fs.push_back(Format{wl, iwl, s, q, o});
      }
  return fs;
}

/// Stimulus (x, y): each format quantizes x * lsb + y * max, so one list
/// lands on every format's ties, bounds and wrap edges. x carries the
/// ties (and the values one ulp either side of one), NaN and ±inf.
const std::vector<std::pair<double, double>> kQuantStim = {
    {0.0, 0.0},   {-0.0, -0.0}, {0.5, 0.0},   {std::nextafter(0.5, 0.0), 0.0},
    {std::nextafter(0.5, 1.0), 0.0},          {1.5, 0.0},  {-0.5, 0.0},
    {-1.5, 0.0},  {-2.5, 0.0},  {3.25, 0.0},  {0.0, 1.0},  {0.5, 1.0},
    {1.0, 1.0},   {-1.0, -1.0}, {-1.5, -1.0}, {-2.0, -1.0}, {0.75, 3.0},
    {0.25, -3.0}, {0.5, 1e6},   {0.0, -1e12}, {kNaN, 0.0}, {-kNaN, 0.0},
    {kInf, 0.0},  {-kInf, 0.0}};

/// One cast, one register commit and one input load per format.
struct QuantUnit {
  sfg::Clk clk;
  sched::CycleScheduler sched{clk};
  std::vector<Format> formats = edge_formats();
  std::vector<std::unique_ptr<Sfg>> sfgs;
  std::vector<std::unique_ptr<Reg>> regs;
  std::vector<std::unique_ptr<sched::SfgComponent>> comps;
  std::vector<std::string> watch;

  Sfg& sfg(const std::string& name) {
    sfgs.push_back(std::make_unique<Sfg>(name));
    return *sfgs.back();
  }
  sched::SfgComponent& comp(const std::string& name, Sfg& s) {
    comps.push_back(std::make_unique<sched::SfgComponent>(name, s));
    return *comps.back();
  }

  QuantUnit() {
    Reg& k = *regs.emplace_back(std::make_unique<Reg>("k", clk, kCount, 0.0));
    Sfg& stim = sfg("stim");
    std::vector<double> xs, ys;
    for (const auto& [x, y] : kQuantStim) {
      xs.push_back(x);
      ys.push_back(y);
    }
    add_stimulus(stim, k, "x", xs);
    add_stimulus(stim, k, "y", ys);
    stim.assign(k, k + 1.0);
    auto& src = comp("src", stim);
    src.bind_output("x", sched.net("x"));
    src.bind_output("y", sched.net("y"));
    sched.add(src);

    // Eight groups of one generator and one loader each.
    const std::size_t per_group = formats.size() / 8;
    for (std::size_t g = 0; g < 8; ++g) {
      const std::string gs = std::to_string(g);
      Sfg& gen = sfg("gen" + gs);
      Sfg& load = sfg("load" + gs);
      const Sig x = Sig::input("x" + gs), y = Sig::input("y" + gs);
      gen.in(x).in(y);
      auto& cgen = comp("gen" + gs, gen);
      auto& cload = comp("load" + gs, load);
      cgen.bind_input(x, sched.net("x"));
      cgen.bind_input(y, sched.net("y"));
      for (std::size_t j = g * per_group; j < (g + 1) * per_group; ++j) {
        const Format& f = formats[j];
        const std::string js = std::to_string(j);
        const double a = std::isfinite(f.lsb()) && f.lsb() > 0 ? f.lsb() : 1.0;
        const double b = std::isfinite(f.max_value()) ? f.max_value() : 0x1p1000;
        const Sig v = x * a + y * b;
        Reg& r = *regs.emplace_back(std::make_unique<Reg>("r" + js, clk, f, 0.0));
        gen.out("v" + js, v).out("c" + js, v.cast(f)).out("r" + js, r.sig()).assign(r, v);
        const Sig l = Sig::input("l" + js, f);
        load.in(l).out("l" + js, l);
        cload.bind_input(l, sched.net("v" + js));
        for (const char* p : {"v", "c", "r", "l"}) {
          (p == std::string("l") ? cload : cgen).bind_output(p + js, sched.net(p + js));
          if (*p != 'v') watch.push_back(p + js);
        }
      }
      sched.add(cgen);
      sched.add(cload);
    }
  }
};

// The literals the generated unit quantizes with are the format's
// constants to the last bit: 2^frac, 2^-frac, the mantissa bounds and 2^wl
// in each exact-domain format's helper; frac, max_value(), min_value() and
// 2^wl in each q_ldexp() call. Any one moved by an ulp fails here.
TEST(EmittedQuantizer, LiteralsAreTheFormatConstantsBitForBit) {
  const auto lit = [](const std::string& t) {
    if (t == "__builtin_inf()") return kInf;
    if (t == "-__builtin_inf()") return -kInf;
    if (t == "__builtin_nan(\"\")") return kNaN;
    if (t == "-__builtin_nan(\"\")") return -kNaN;
    return std::strtod(t.c_str(), nullptr);
  };
  // The comma-separated arguments between `open` and `close`.
  const auto args = [](const std::string& e, const std::string& open, const std::string& close) {
    std::vector<std::string> out;
    const std::size_t b = e.find(open) + open.size(), c = e.find(close, b);
    std::istringstream is(e.substr(b, c - b));
    for (std::string a; std::getline(is, a, ',');) out.push_back(a.substr(a.find_first_not_of(' ')));
    return out;
  };
  std::set<std::string> names;
  std::size_t exact = 0, off = 0;
  for (const Format& f : edge_formats()) {
    const std::string e = opt::cpp_quantize_expr("v", f);
    const std::string modes = std::string(f.quant == Quant::kRound ? "1" : "0") + "," +
                              (f.ovf == Overflow::kSaturate ? "1" : "0");
    const int frac = f.frac_bits();
    std::vector<std::string> got;
    std::vector<double> want;
    if (fixpt::Quantizer(f).exact()) {
      const std::string name = opt::cpp_quantizer_name(f);
      EXPECT_TRUE(names.insert(name).second) << name;
      ASSERT_EQ(e, name + "(v)");
      const std::string def = opt::cpp_quantizer_def(f);
      ASSERT_EQ(def.rfind("__attribute__((noinline)) static double " + name + "(double v)", 0), 0u)
          << def;
      got = args(def, "QConst{", "});");
      ASSERT_EQ(got.size(), 7u) << def;
      EXPECT_EQ(got[5] + "," + got[6], modes) << def;
      got.resize(5);
      want = {std::ldexp(1.0, frac), std::ldexp(1.0, -frac),
              std::ldexp(f.max_value(), frac), std::ldexp(f.min_value(), frac),
              std::ldexp(1.0, f.wl)};
      ++exact;
    } else {
      ASSERT_EQ(e.rfind("q_ldexp(v, ", 0), 0u) << e;
      got = args(e + ";", "(", ");");
      ASSERT_EQ(got.size(), 7u) << e;
      EXPECT_EQ(got[1], std::to_string(frac)) << e;
      EXPECT_EQ(got[4] + "," + got[5], modes) << e;
      got = {got[2], got[3], got[6]};
      want = {f.max_value(), f.min_value(), std::ldexp(1.0, f.wl)};
      ++off;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      const double v = lit(got[i]);
      EXPECT_TRUE(same_bits(v, want[i]) || (std::isnan(v) && std::isnan(want[i])))
          << f.to_string() << " constant " << i << ": " << got[i] << " != " << std::hexfloat
          << want[i];
    }
  }
  EXPECT_EQ(exact, 8u * 48u);
  EXPECT_EQ(off, 8u * 3u);
}

// Casts, register commits and input loads over every edge format: the jit
// and the standalone simulator reproduce the compiled tape bit for bit
// (NaN signs and -0.0 included), and the tape matches fixpt::quantize.
TEST(EmittedQuantizer, JitAndCppgenMatchTheTapeBitForBit) {
  QuantUnit u;
  const opt::PassOptions raw = opt::PassOptions::raw();  // keep every quantize
  sim::CompiledSystem tape = sim::CompiledSystem::compile(u.sched, raw);
  jit::JitOptions jo;
  jo.cache_dir = kStore;
  sim::CompiledSystem js = jit::compile(u.sched, raw, jo);
  ASSERT_TRUE(js.native()) << "host compiler unavailable";
  const std::uint64_t cycles = kQuantStim.size() + 2;
  const Trace gen = run_cppgen(sim::CompiledSystem::compile(u.sched, raw), u.watch,
                               cycles, "quant");
  ASSERT_EQ(gen.size(), cycles);

  std::size_t nans = 0;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    tape.cycle();
    js.cycle();
    ASSERT_EQ(gen[c].size(), u.watch.size()) << "cycle " << c;
    for (std::size_t i = 0; i < u.watch.size(); ++i) {
      const std::string& n = u.watch[i];
      const double want = tape.net_value(n);
      nans += std::isnan(want) ? 1 : 0;
      ASSERT_TRUE(same_bits(js.net_value(n), want))
          << "jit, cycle " << c << " net " << n << ": " << std::hexfloat
          << js.net_value(n) << " vs tape " << want;
      ASSERT_TRUE(same_bits(gen[c][i], want))
          << "cppgen, cycle " << c << " net " << n << ": " << std::hexfloat << gen[c][i]
          << " vs tape " << want;
    }
    for (std::size_t j = 0; j < u.formats.size(); ++j) {
      const std::string js_ = std::to_string(j);
      const double want = fixpt::quantize(tape.net_value("v" + js_), u.formats[j]);
      ASSERT_TRUE(same_bits(tape.net_value("c" + js_), want))
          << u.formats[j].to_string() << " cycle " << c;
    }
  }
  EXPECT_GT(nans, 0u);  // the NaN and wrapped-infinity rows reached the nets
}

// --- dispatch decode -------------------------------------------------------

/// A dispatch component with opcodes 1, 2 and 4 (a hole at 3) and,
/// optionally, a default. Each instruction SFG drives its id onto "sel"
/// at decode, adds it to a shared accumulator, and drives data + id onto
/// "res"; the default's id is 9. A stimulus component feeds `tokens` to
/// the instruction net, one per cycle, and the cycle count to "data".
struct DecodeUnit {
  sfg::Clk clk;
  sched::CycleScheduler sched{clk};
  Reg k{"k", clk, kCount, 0.0};
  Reg acc{"acc", clk, kCount, 0.0};
  Sfg stim{"stim"};
  sched::SfgComponent src{"src", stim};
  sched::DispatchComponent dp{"dp", sched.net("instr")};
  std::vector<std::unique_ptr<Sfg>> ops;
  Sig data = Sig::input("data", kCount);

  DecodeUnit(const std::vector<double>& tokens, bool with_default) {
    add_stimulus(stim, k, "instr", tokens);
    stim.out("data", k.sig() * 10.0).assign(k, k + 1.0);
    src.bind_output("instr", sched.net("instr"));
    src.bind_output("data", sched.net("data"));
    for (const int id : {1, 2, 4, 9}) {
      if (id == 9 && !with_default) break;
      Sfg& s = *ops.emplace_back(std::make_unique<Sfg>("op" + std::to_string(id)));
      s.in(data).out("sel", Sig(static_cast<double>(id))).out("res", data + id);
      s.assign(acc, acc + static_cast<double>(id));
      if (id == 9) {
        dp.set_default(s);
      } else {
        dp.add_instruction(id, s);
      }
    }
    dp.bind_input(data, sched.net("data"));
    dp.bind_output("sel", sched.net("sel"));
    dp.bind_output("res", sched.net("res"));
    sched.add(dp);
    sched.add(src);
  }
};

const std::vector<std::string> kEngines = {"iterative", "levelized", "compiled",
                                           "jit",       "batched",   "cppgen"};

/// Run `cycles` cycles of `sched` on engine `name` and return the watched
/// nets per cycle. Batched runs three lanes and checks they agree.
Trace run_engine(const std::string& name, sched::CycleScheduler& sched,
                 const std::vector<std::string>& watch, std::uint64_t cycles) {
  Trace t;
  if (name == "cppgen")
    return run_cppgen(sim::CompiledSystem::compile(sched), watch, cycles, "decode");
  if (name == "batched") {
    batch::BatchedSystem bs = batch::BatchedSystem::compile(sched, 3);
    for (std::uint64_t c = 0; c < cycles; ++c) {
      bs.cycle();
      std::vector<double> row;
      for (const std::string& n : watch) {
        row.push_back(bs.net_value(0, n));
        for (unsigned l = 1; l < 3; ++l) EXPECT_EQ(bs.net_value(l, n), row.back());
      }
      t.push_back(std::move(row));
    }
    return t;
  }
  engine::TraceOptions opts;
  opts.store_dir = kStore;
  const auto inst = engine::Registry::global().at(name).bind(sched, opts);
  for (std::uint64_t c = 0; c < cycles; ++c) {
    inst->cycle();
    std::vector<double> row;
    for (const std::string& n : watch) row.push_back(inst->probe(n));
    t.push_back(std::move(row));
  }
  return t;
}

TEST(DispatchDecode, OffTableTokensSelectTheDefaultOnEveryEngine) {
  // lround ties go away from zero: 2.5 -> 3 (a hole), -0.5 -> -1, while
  // 3.5 -> 4, 1.5 -> 2 and 0.5 -> 1 are listed opcodes.
  const std::vector<double> tokens = {1,   2,   4,    3,   0,   -1,  -7,  5,     1e12,
                                      2.5, -0.5, 3.5, 1.5, 0.5, 4.4, 65536, 70000, 1};
  std::vector<double> want;
  for (const double tok : tokens) {
    const long op = std::lround(tok);
    want.push_back(op == 1 || op == 2 || op == 4 ? static_cast<double>(op) : 9.0);
  }
  const std::vector<std::string> watch = {"sel", "res"};
  Trace ref;
  for (const std::string& e : kEngines) {
    DecodeUnit u(tokens, /*with_default=*/true);
    const Trace t = run_engine(e, u.sched, watch, tokens.size());
    ASSERT_EQ(t.size(), tokens.size()) << e;
    for (std::size_t c = 0; c < tokens.size(); ++c) {
      ASSERT_EQ(t[c].size(), 2u) << e;
      EXPECT_EQ(t[c][0], want[c]) << e << " token " << tokens[c];
      EXPECT_EQ(t[c][1], 10.0 * static_cast<double>(c) + want[c]) << e << " token " << tokens[c];
    }
    if (ref.empty()) ref = t;
    EXPECT_EQ(t, ref) << e;
  }
}

// Without a default, a token off the table stops every engine with the
// text CppGen.UnknownOpcodeWithoutDefaultFails pins.
TEST(DispatchDecode, OffTableTokenWithoutDefaultFailsOnEveryEngine) {
  for (const double tok : {3.0, -1.0, 5.0, 2.5}) {
    const std::string text =
        "unknown opcode " + std::to_string(std::lround(tok)) + " and no default";
    for (const std::string& e : kEngines) {
      DecodeUnit u({tok}, /*with_default=*/false);
      try {
        run_engine(e, u.sched, {"sel"}, 1);
        ADD_FAILURE() << e << " accepted token " << tok;
      } catch (const std::logic_error& ex) {
        EXPECT_NE(std::string(ex.what()).find(text), std::string::npos)
            << e << ": " << ex.what();
      }
    }
  }
}

TEST(DispatchDecode, OpcodesOutsideTheTableRangeAreRejected) {
  sfg::Clk clk;
  sched::CycleScheduler sched(clk);
  Sfg a("a"), b("b");
  sched::DispatchComponent dp("dp", sched.net("instr"));
  EXPECT_THROW(dp.add_instruction(-1, a), std::out_of_range);
  EXPECT_THROW(dp.add_instruction(65536, a), std::out_of_range);
  dp.add_instruction(0, a);
  dp.add_instruction(65535, b);
  EXPECT_THROW(dp.add_instruction(0, b), std::logic_error);
  EXPECT_EQ(dp.num_instructions(), 2u);
}

TEST(OpcodeTable, HolesAndOutOfRangeDecodeToTheDefault) {
  sched::OpcodeTable<int> t(-1);
  EXPECT_TRUE(t.add(4, 40));
  EXPECT_TRUE(t.add(1, 10));
  EXPECT_FALSE(t.add(4, 41));
  EXPECT_EQ(t.decode(1), 10);
  EXPECT_EQ(t.decode(4), 40);
  for (const long op : {-1L, 0L, 2L, 3L, 5L, 1L << 40}) EXPECT_EQ(t.decode(op), -1) << op;
  EXPECT_FALSE(t.has_default());
  t.set_default(7);
  for (const long op : {-1L, 0L, 2L, 3L, 5L}) EXPECT_EQ(t.decode(op), 7) << op;
  EXPECT_EQ(t.decode(4), 40);
  std::vector<int> seen;
  t.for_each([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{10, 40, 7}));
}

// --- untimed firings -------------------------------------------------------

// A closure that fills two outputs for one bound net throws on the compiled
// engines as it does on the interpreted one (SchedEdge.UntimedArityMismatchThrows).
TEST(UntimedArity, WrongOutputCountThrowsOnCompiledEngines) {
  for (const std::string e : {"compiled", "jit", "batched"}) {
    for (const std::size_t n : {0u, 2u}) {
      sfg::Clk clk;
      sched::CycleScheduler sched(clk);
      sched::UntimedComponent bad(
          "bad", [n](const std::vector<Fixed>& in, std::vector<Fixed>& out) {
            out.assign(n, in[0]);
          });
      bad.bind_input(sched.net("i"));
      bad.bind_output(sched.net("o"));
      sched.add(bad);
      sched.net("i").drive(Fixed(1.0));
      EXPECT_THROW(run_engine(e, sched, {"o"}, 1), std::logic_error) << e << " n=" << n;
    }
  }
}

// The component-owned buffers: a steady-state firing reuses them, and the
// closure sees its inputs in binding order on every engine.
TEST(UntimedArity, BuffersCarryInputsInBindingOrder) {
  for (const std::string e : {"iterative", "compiled", "jit", "batched"}) {
    sfg::Clk clk;
    sched::CycleScheduler sched(clk);
    sched::UntimedComponent sub(
        "sub", [](const std::vector<Fixed>& in, std::vector<Fixed>& out) {
          out.push_back(in[0] - in[1]);
          out.push_back(in[1] - in[0]);
        });
    sub.bind_input(sched.net("a"));
    sub.bind_input(sched.net("b"));
    sub.bind_output(sched.net("d"));
    sub.bind_output(sched.net("e"));
    sched.add(sub);
    sched.net("a").drive(Fixed(5.0));
    sched.net("b").drive(Fixed(2.0));
    const Trace t = run_engine(e, sched, {"d", "e"}, 3);
    for (const auto& row : t) EXPECT_EQ(row, (std::vector<double>{3.0, -3.0})) << e;
  }
}

}  // namespace
}  // namespace asicpp
