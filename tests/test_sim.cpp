#include <random>

#include <gtest/gtest.h>

#include "fsm/fsm.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sim/compiled.h"
#include "sim/recorder.h"
#include "sim/tape.h"

namespace asicpp::sim {
namespace {

using fixpt::Fixed;
using fixpt::Format;
using fsm::Fsm;
using fsm::State;
using fsm::always;
using fsm::cnd;
using sched::CycleScheduler;
using sched::DispatchComponent;
using sched::FsmComponent;
using sched::SfgComponent;
using sched::UntimedComponent;
using sfg::Clk;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;

const Format kFmt{24, 15, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};

TEST(Tape, ExecBasicOps) {
  // slots: 0=a, 1=b, 2..: results
  std::vector<double> s{5.0, 3.0, 0, 0, 0, 0};
  Tape t;
  t.push_back(Instr::apply(sfg::Op::kAdd, 2, 0, 1));
  t.push_back(Instr::apply(sfg::Op::kMul, 3, 2, 2));
  t.push_back(Instr::apply(sfg::Op::kMux, 4, 0, 2, 3));
  const Format f7{7, 6, true, fixpt::Quant::kTruncate, fixpt::Overflow::kSaturate};
  t.push_back(Instr::apply(sfg::Op::kCast, 5, 3, -1, -1, f7));
  t.back().q = 0;  // quantizes through entry 0 of the table below
  const std::vector<fixpt::Quantizer> quantizers{fixpt::Quantizer(f7)};
  exec(t, s.data(), quantizers.data());
  EXPECT_DOUBLE_EQ(s[2], 8.0);
  EXPECT_DOUBLE_EQ(s[3], 64.0);
  EXPECT_DOUBLE_EQ(s[4], 8.0);
  EXPECT_DOUBLE_EQ(s[5], 63.0);  // saturated to the 7-bit signed-integer max
}

// Shared fixture: a producer/consumer system, compiled before any run so
// compiled and interpreted replay from the same state.
struct ProdCons {
  Clk clk;
  Reg counter{"counter", clk, kFmt, 0.0};
  Sfg prod{"prod"};
  SfgComponent cprod{"prod", prod};
  Sig x = Sig::input("x", kFmt);
  Sfg cons{"cons"};
  SfgComponent ccons{"cons", cons};
  CycleScheduler sched{clk};

  ProdCons() {
    prod.out("o", counter.sig()).assign(counter, counter + 1.0);
    cons.in(x).out("y", x * 2.0 + 1.0);
    cprod.bind_output("o", sched.net("data"));
    ccons.bind_input(x, sched.net("data"));
    ccons.bind_output("y", sched.net("out"));
    sched.add(cprod);
    sched.add(ccons);
  }
};

TEST(CompiledSystem, MatchesInterpretedCycleByCycle) {
  ProdCons sys;
  CompiledSystem cs = CompiledSystem::compile(sys.sched);

  std::vector<double> interp;
  for (int i = 0; i < 20; ++i) {
    sys.sched.cycle();
    interp.push_back(sys.sched.net("out").last().value());
  }
  for (int i = 0; i < 20; ++i) {
    cs.cycle();
    EXPECT_DOUBLE_EQ(cs.net_value("out"), interp[static_cast<std::size_t>(i)]) << i;
  }
  EXPECT_EQ(cs.cycles(), 20u);
}

TEST(CompiledSystem, ResetRestoresRegisters) {
  ProdCons sys;
  CompiledSystem cs = CompiledSystem::compile(sys.sched);
  cs.run(RunOptions{}.for_cycles(7));
  EXPECT_DOUBLE_EQ(cs.reg_value("counter"), 7.0);
  cs.reset();
  EXPECT_DOUBLE_EQ(cs.reg_value("counter"), 0.0);
  EXPECT_EQ(cs.cycles(), 0u);
  cs.run(RunOptions{}.for_cycles(3));
  EXPECT_DOUBLE_EQ(cs.reg_value("counter"), 3.0);
}

TEST(CompiledSystem, CompileMidRunContinuesBitIdentically) {
  ProdCons sys;
  sys.sched.run(RunOptions{}.for_cycles(5));  // advance interpreted state first
  CompiledSystem cs = CompiledSystem::compile(sys.sched);
  sys.sched.cycle();
  cs.cycle();
  EXPECT_DOUBLE_EQ(cs.net_value("out"), sys.sched.net("out").last().value());
  EXPECT_DOUBLE_EQ(cs.reg_value("counter"), sys.counter.read().value());
}

TEST(CompiledSystem, FsmWithGuardsMatchesInterpreted) {
  Clk clk;
  Reg mode("mode", clk, Format{1, 1, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap}, 0.0);
  Reg acc("acc", clk, kFmt, 0.0);
  Sfg up("up"), down("down");
  up.assign(acc, acc + 3.0).assign(mode, Sig(1.0) + 0.0).out("o", acc.sig());
  down.assign(acc, acc - 1.0).assign(mode, Sig(0.0) + 0.0).out("o", acc.sig());
  Fsm f("f");
  State s = f.initial("s");
  s << !cnd(mode) << up << s;
  s << cnd(mode) << down << s;
  FsmComponent comp("f", f);
  CycleScheduler sched(clk);
  comp.bind_output("o", sched.net("o"));
  sched.add(comp);

  CompiledSystem cs = CompiledSystem::compile(sched);
  std::vector<double> interp;
  for (int i = 0; i < 16; ++i) {
    sched.cycle();
    interp.push_back(sched.net("o").last().value());
  }
  for (int i = 0; i < 16; ++i) {
    cs.cycle();
    EXPECT_DOUBLE_EQ(cs.net_value("o"), interp[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(CompiledSystem, DispatchAndUntimedRamMatchInterpreted) {
  Clk clk;
  Reg phase("phase", clk, Format{1, 1, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap}, 0.0);
  Reg addr("addr", clk, Format{8, 8, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap}, 0.0);
  Sfg emit_w("emit_w"), emit_r("emit_r");
  emit_w.out("instr", Sig(1.0) + 0.0).out("addr", addr.sig()).assign(phase, Sig(1.0) + 0.0);
  emit_r.out("instr", Sig(2.0) + 0.0)
      .out("addr", addr.sig())
      .assign(phase, Sig(0.0) + 0.0)
      .assign(addr, addr + 1.0);
  Fsm ctl("ctl");
  State s = ctl.initial("s");
  s << !cnd(phase) << emit_w << s;
  s << cnd(phase) << emit_r << s;
  FsmComponent cctl("ctl", ctl);

  Sig dp_addr = Sig::input("dp_addr", kFmt);
  Sig rdata = Sig::input("rdata", kFmt);
  Reg acc("acc", clk, kFmt, 0.0);
  Sfg wr("wr"), rd("rd");
  wr.in(dp_addr).out("wdata", dp_addr * 10.0).out("we", Sig(1.0) + 0.0);
  rd.in(rdata)
      .out("wdata", Sig(0.0) + 0.0)
      .out("we", Sig(0.0) + 0.0)
      .assign(acc, acc + rdata);
  CycleScheduler sched(clk);
  DispatchComponent dp("dp", sched.net("instr"));
  dp.add_instruction(1, wr);
  dp.add_instruction(2, rd);
  dp.bind_input(dp_addr, sched.net("addr"));
  dp.bind_input(rdata, sched.net("rdata"));
  dp.bind_output("wdata", sched.net("wdata"));
  dp.bind_output("we", sched.net("we"));

  std::vector<double> storage(256, 0.0);
  UntimedComponent ram("ram", [&storage](const std::vector<Fixed>& in, std::vector<Fixed>& out) {
    const bool we = in[0].value() != 0.0;
    const auto a = static_cast<std::size_t>(in[1].value());
    out.push_back(Fixed(storage[a]));
    if (we) storage[a] = in[2].value();
  });
  ram.bind_input(sched.net("we"));
  ram.bind_input(sched.net("addr"));
  ram.bind_input(sched.net("wdata"));
  ram.bind_output(sched.net("rdata"));

  cctl.bind_output("instr", sched.net("instr"));
  cctl.bind_output("addr", sched.net("addr"));
  sched.add(cctl);
  sched.add(dp);
  sched.add(ram);

  // Interpreted run on a fresh copy is impractical (closures share
  // storage), so: compiled first (snapshot), interpreted second, comparing
  // final state via a second compiled replay is circular. Instead compile,
  // run compiled 8 cycles, check against the hand-computed expectation the
  // interpreted test (test_sched) already validated.
  CompiledSystem cs = CompiledSystem::compile(sched);
  cs.run(RunOptions{}.for_cycles(8));
  EXPECT_DOUBLE_EQ(storage[1], 10.0);
  EXPECT_DOUBLE_EQ(storage[3], 30.0);
  EXPECT_DOUBLE_EQ(cs.reg_value("acc"), 60.0);
}

TEST(CompiledSystem, PokeUnboundInput) {
  Clk clk;
  Sig gain = Sig::input("gain", kFmt);  // never bound to a net
  Reg r("r", clk, kFmt, 1.0);
  Sfg s("s");
  s.in(gain).assign(r, r * gain).out("o", r.sig());
  SfgComponent c("c", s);
  CycleScheduler sched(clk);
  c.bind_output("o", sched.net("o"));
  sched.add(c);
  s.set_input("gain", Fixed(2.0));

  CompiledSystem cs = CompiledSystem::compile(sched);
  cs.run(RunOptions{}.for_cycles(3));
  EXPECT_DOUBLE_EQ(cs.reg_value("r"), 8.0);
  cs.poke("gain", 3.0);
  cs.run(RunOptions{}.for_cycles(1));
  EXPECT_DOUBLE_EQ(cs.reg_value("r"), 24.0);
}

TEST(CompiledSystem, ExternalDriveVisible) {
  Clk clk;
  Sig pin = Sig::input("pin", kFmt);
  Reg r("r", clk, kFmt, 0.0);
  Sfg s("s");
  s.in(pin).assign(r, r + pin);
  SfgComponent c("c", s);
  CycleScheduler sched(clk);
  c.bind_input(pin, sched.net("pin"));
  sched.add(c);
  sched.net("pin").drive(Fixed(2.0));

  CompiledSystem cs = CompiledSystem::compile(sched);
  cs.run(RunOptions{}.for_cycles(3));
  EXPECT_DOUBLE_EQ(cs.reg_value("r"), 6.0);
  sched.net("pin").drive(Fixed(5.0));  // flip the pin mid-run
  cs.run(RunOptions{}.for_cycles(1));
  EXPECT_DOUBLE_EQ(cs.reg_value("r"), 11.0);
}

TEST(CompiledSystem, DeadlockDetected) {
  Clk clk;
  Sig a = Sig::input("a", kFmt);
  Sfg sa("sa");
  sa.in(a).out("oa", a + 1.0);
  SfgComponent ca("ca", sa);
  Sig b = Sig::input("b", kFmt);
  Sfg sb("sb");
  sb.in(b).out("ob", b + 1.0);
  SfgComponent cb("cb", sb);
  CycleScheduler sched(clk);
  ca.bind_input(a, sched.net("b2a"));
  ca.bind_output("oa", sched.net("a2b"));
  cb.bind_input(b, sched.net("a2b"));
  cb.bind_output("ob", sched.net("b2a"));
  sched.add(ca);
  sched.add(cb);
  CompiledSystem cs = CompiledSystem::compile(sched);
  EXPECT_THROW(cs.cycle(), sched::DeadlockError);
}

TEST(CompiledSystem, FootprintAndOpsNonZero) {
  ProdCons sys;
  CompiledSystem cs = CompiledSystem::compile(sys.sched);
  EXPECT_GT(cs.footprint_bytes(), 0u);
  cs.run(RunOptions{}.for_cycles(10));
  EXPECT_GT(cs.ops_retired(), 0u);
}

TEST(CompiledSystem, UnknownNetOrRegThrows) {
  ProdCons sys;
  CompiledSystem cs = CompiledSystem::compile(sys.sched);
  EXPECT_THROW(cs.net_value("nope"), std::out_of_range);
  EXPECT_THROW(cs.reg_value("nope"), std::out_of_range);
  EXPECT_THROW(cs.poke("nope", 0.0), std::out_of_range);
}

TEST(Recorder, CapturesWatchedNets) {
  ProdCons sys;
  Recorder rec(sys.sched);
  rec.watch("out");
  rec.watch("data");
  sys.sched.run(RunOptions{}.for_cycles(4));
  EXPECT_EQ(rec.cycles_recorded(), 4u);
  const auto& t = rec.trace("out");
  ASSERT_EQ(t.values.size(), 4u);
  EXPECT_DOUBLE_EQ(t.values[0], 1.0);   // 0*2+1
  EXPECT_DOUBLE_EQ(t.values[3], 7.0);   // 3*2+1
  EXPECT_TRUE(t.valid[0]);
  EXPECT_THROW(rec.trace("nope"), std::out_of_range);
  rec.clear();
  EXPECT_EQ(rec.cycles_recorded(), 0u);
}

// Property: random expression systems — interpreted and compiled agree on
// every cycle, including fixed-point quantization at casts and registers.
class RandomSystemEquiv : public ::testing::TestWithParam<int> {};

TEST_P(RandomSystemEquiv, InterpretedEqualsCompiled) {
  const int seed = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed));
  Clk clk;
  CycleScheduler sched(clk);

  const Format narrow{10 + seed % 8, 4, true, fixpt::Quant::kRound,
                      fixpt::Overflow::kSaturate};
  Reg r1("r1", clk, narrow, 1.0);
  Reg r2("r2", clk, kFmt, -2.0);

  // Random expression over r1, r2 and constants.
  std::vector<Sig> pool{r1.sig(), r2.sig(), Sig(0.5), Sig(-3.0)};
  auto pick = [&]() { return pool[rng() % pool.size()]; };
  for (int i = 0; i < 12; ++i) {
    const int op = static_cast<int>(rng() % 7);
    Sig a = pick(), b = pick();
    switch (op) {
      case 0: pool.push_back(a + b); break;
      case 1: pool.push_back(a - b); break;
      case 2: pool.push_back(a * b); break;
      case 3: pool.push_back(mux(a > b, a, b)); break;
      case 4: pool.push_back(a.cast(narrow)); break;
      case 5: pool.push_back(a << static_cast<int>(rng() % 3)); break;
      default: pool.push_back((a == b) ^ (a < b)); break;
    }
  }
  Sfg s("rand");
  s.out("o", pool.back());
  s.assign(r1, mux(pool.back() > 100.0, Sig(1.0) + 0.0, r1 + 0.25));
  s.assign(r2, pool[pool.size() - 2] + 0.125);
  SfgComponent c("c", s);
  c.bind_output("o", sched.net("o"));
  sched.add(c);

  CompiledSystem cs = CompiledSystem::compile(sched);
  for (int i = 0; i < 32; ++i) {
    sched.cycle();
    cs.cycle();
    EXPECT_DOUBLE_EQ(cs.net_value("o"), sched.net("o").last().value())
        << "seed=" << seed << " cycle=" << i;
    EXPECT_DOUBLE_EQ(cs.reg_value("r1"), r1.read().value());
    EXPECT_DOUBLE_EQ(cs.reg_value("r2"), r2.read().value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystemEquiv, ::testing::Range(0, 12));

}  // namespace
}  // namespace asicpp::sim
