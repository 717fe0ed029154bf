// Edge cases and failure paths across modules.
#include <cmath>

#include <gtest/gtest.h>

#include "eventsim/kernel.h"
#include "netlist/equiv.h"
#include "fsm/fsm.h"
#include "netlist/netsim.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sim/compiled.h"
#include "sfg/clk.h"
#include "synth/qm.h"
#include "synth/wordnet.h"

namespace asicpp {
namespace {

using fixpt::Fixed;
using fixpt::Format;
using fsm::Fsm;
using fsm::State;
using fsm::always;
using fsm::cnd;
using sfg::Clk;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;

const Format kF{10, 4, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};
const Format kBitF{1, 1, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap};

// --- compiled simulation corner cases ---

TEST(CompiledEdge, FsmStallCycleMatchesInterpreted) {
  // No transition fires while the flag is down: both simulators must idle
  // without deadlock and resume identically when the flag rises.
  Clk clk;
  sched::CycleScheduler sched(clk);
  Reg go("go", clk, kBitF, 0.0);
  Reg count("count", clk, kF, 0.0);
  Sfg bump("bump"), arm("arm");
  bump.assign(count, count + 1.0).out("o", count.sig());
  Fsm f("stall");
  State s = f.initial("s");
  s << cnd(go) << bump << s;  // only guarded transitions: stalls when !go
  sched::FsmComponent comp("stall", f);
  comp.bind_output("o", sched.net("o"));
  sched.add(comp);

  sim::CompiledSystem cs = sim::CompiledSystem::compile(sched);
  for (int c = 0; c < 3; ++c) {
    sched.cycle();
    cs.cycle();
  }
  EXPECT_DOUBLE_EQ(count.read().value(), 0.0);
  EXPECT_DOUBLE_EQ(cs.reg_value("count"), 0.0);
  go.node()->value = Fixed(1.0);  // poke the interpreted register...
  cs.reset();                     // ...and restart compiled from inits
  // Compiled snapshots at compile time, so instead verify the stall path
  // then the running path on a fresh compile.
  sched.cycle();
  EXPECT_DOUBLE_EQ(count.read().value(), 1.0);
  sim::CompiledSystem cs2 = sim::CompiledSystem::compile(sched);
  cs2.run(RunOptions{}.for_cycles(4));
  EXPECT_DOUBLE_EQ(cs2.reg_value("count"), 5.0);
}

TEST(CompiledEdge, TwoFsmsHandshakeAcrossNets) {
  // Producer FSM alternates request; consumer FSM acks; both compiled.
  Clk clk;
  sched::CycleScheduler sched(clk);
  Reg preq("preq", clk, kBitF, 0.0);
  Reg pcount("pcount", clk, kF, 0.0);
  Sig ack_in = Sig::input("ack_in", kBitF);
  Sfg p_send("p_send"), p_wait("p_wait");
  p_send.out("req", Sig(1.0) + 0.0).assign(preq, Sig(1.0) + 0.0);
  // Keep the request asserted while sampling the ack (Mealy: the ack this
  // cycle answers the request this cycle).
  p_wait.in(ack_in).out("req", Sig(1.0) + 0.0).assign(preq, Sig(0.0) + 0.0)
      .assign(pcount, pcount + ack_in);
  Fsm pf("producer");
  State p0 = pf.initial("idle");
  State p1 = pf.state("sent");
  p0 << always << p_send << p1;
  p1 << always << p_wait << p0;
  sched::FsmComponent cp("producer", pf);
  cp.bind_input(ack_in, sched.net("ack"));
  cp.bind_output("req", sched.net("req"));

  Sig req_in = Sig::input("req_in", kBitF);
  Sfg c_echo("c_echo");
  c_echo.in(req_in).out("ack", req_in);
  sched::SfgComponent cc("consumer", c_echo);
  cc.bind_input(req_in, sched.net("req"));
  cc.bind_output("ack", sched.net("ack"));

  sched.add(cp);
  sched.add(cc);
  sim::CompiledSystem cs = sim::CompiledSystem::compile(sched);
  for (int c = 0; c < 20; ++c) {
    sched.cycle();
    cs.cycle();
    ASSERT_DOUBLE_EQ(cs.reg_value("pcount"), pcount.read().value()) << c;
    ASSERT_DOUBLE_EQ(cs.net_value("ack"), sched.net("ack").last().value()) << c;
  }
  EXPECT_GT(pcount.read().value(), 0.0);
}

TEST(CompiledEdge, LogicAndNotFlagsMatchInterpreted) {
  Clk clk;
  sched::CycleScheduler sched(clk);
  Reg a("a", clk, kBitF, 1.0), b("b", clk, kBitF, 0.0);
  Reg r("r", clk, Format{8, 8, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap}, 5.0);
  Sfg s("flags");
  s.assign(a, ~cnd(a).expr())
      .assign(b, cnd(a).expr() & (~cnd(b).expr()))
      .assign(r, (r ^ 3.0) | 8.0)
      .out("o", (a.sig() | b.sig()) ^ (a.sig() & b.sig()));
  sched::SfgComponent comp("flags", s);
  comp.bind_output("o", sched.net("o"));
  sched.add(comp);
  sim::CompiledSystem cs = sim::CompiledSystem::compile(sched);
  for (int c = 0; c < 16; ++c) {
    sched.cycle();
    cs.cycle();
    ASSERT_DOUBLE_EQ(cs.net_value("o"), sched.net("o").last().value()) << c;
    ASSERT_DOUBLE_EQ(cs.reg_value("r"), r.read().value()) << c;
  }
}

// --- word builder corner cases ---

TEST(WordEdge, QuantizeNarrowSourceWithHugeDrop) {
  // Drop more fractional bits than the source has: result collapses to
  // sign/zero, exactly like fixpt::quantize.
  const Format from{4, 1, true, fixpt::Quant::kTruncate, fixpt::Overflow::kSaturate};
  const Format to{4, 3, true, fixpt::Quant::kTruncate, fixpt::Overflow::kSaturate};
  netlist::Netlist nl;
  synth::WordBuilder wb(nl);
  const synth::Bus a = wb.input("a", from);
  wb.output("q", wb.quantize(a, to));
  netlist::LevelizedSim sim(nl);
  for (int m = -8; m < 8; ++m) {
    netlist::set_bus(sim, "a", 4, m);
    sim.settle();
    const double v = std::ldexp(static_cast<double>(m), -from.frac_bits());
    const double expect = fixpt::quantize(v, to);
    EXPECT_EQ(netlist::read_bus(sim, "q", 4, true),
              static_cast<long long>(std::llround(std::ldexp(expect, to.frac_bits()))))
        << "m=" << m;
  }
}

TEST(WordEdge, UnsignedToSignedAndBack) {
  const Format uns{6, 6, false, fixpt::Quant::kTruncate, fixpt::Overflow::kSaturate};
  const Format sgn{5, 4, true, fixpt::Quant::kTruncate, fixpt::Overflow::kSaturate};
  netlist::Netlist nl;
  synth::WordBuilder wb(nl);
  const synth::Bus a = wb.input("a", uns);
  const synth::Bus b = wb.input("b", sgn);
  wb.output("u2s", wb.quantize(a, sgn));
  wb.output("s2u", wb.quantize(b, uns));
  netlist::LevelizedSim sim(nl);
  for (int va = 0; va < 64; va += 7) {
    for (int vb = -16; vb < 16; vb += 5) {
      netlist::set_bus(sim, "a", 6, va);
      netlist::set_bus(sim, "b", 5, vb);
      sim.settle();
      EXPECT_EQ(netlist::read_bus(sim, "u2s", 5, true),
                static_cast<long long>(fixpt::quantize(va, sgn)))
          << va;
      EXPECT_EQ(netlist::read_bus(sim, "s2u", 6, false),
                static_cast<long long>(fixpt::quantize(vb, uns)))
          << vb;
    }
  }
}

TEST(WordEdge, WideRegisterRejected) {
  netlist::Netlist nl;
  synth::WordBuilder wb(nl);
  const Format wide{70, 30, true, fixpt::Quant::kTruncate, fixpt::Overflow::kSaturate};
  EXPECT_THROW(wb.reg(wide, 0.0), std::invalid_argument);
  EXPECT_THROW(wb.constant(1.0, wide), std::invalid_argument);
}

// --- QM bounds ---

TEST(QmEdge, RejectsTooManyVariables) {
  EXPECT_THROW(synth::minimize({0}, {}, 21), std::invalid_argument);
  EXPECT_THROW(synth::minimize({0}, {}, -1), std::invalid_argument);
}

TEST(QmEdge, SingleMintermSingleCube) {
  const auto cover = synth::minimize({5}, {}, 3);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].literals(), 3);
  EXPECT_TRUE(synth::eval_cover(cover, 5));
  EXPECT_FALSE(synth::eval_cover(cover, 4));
}

// --- scheduler / net misc ---

TEST(SchedEdge, UntimedArityMismatchThrows) {
  Clk clk;
  sched::CycleScheduler sched(clk);
  sched::UntimedComponent bad("bad", [](const std::vector<Fixed>& in, std::vector<Fixed>& out) {
    out = {in[0], in[0]};  // two outputs for one net
  });
  bad.bind_input(sched.net("i"));
  bad.bind_output(sched.net("o"));
  sched.add(bad);
  sched.net("i").drive(Fixed(1.0));
  EXPECT_THROW(sched.cycle(), std::logic_error);
}

TEST(SchedEdge, BindErrors) {
  Clk clk;
  sched::CycleScheduler sched(clk);
  Sfg s("s");
  sched::SfgComponent c("c", s);
  Sig notin = Sig(1.0) + 2.0;
  EXPECT_THROW(c.bind_input(notin, sched.net("n")), std::invalid_argument);
  c.bind_output("o", sched.net("n"));
  EXPECT_THROW(c.bind_output("o", sched.net("m")), std::logic_error);
}

TEST(EventsimEdge, NegedgeDetection) {
  eventsim::Kernel k;
  auto& clk = k.signal("clk", 1.0);
  int falls = 0;
  auto& p = k.process("p", [&] {
    if (clk.negedge()) ++falls;
  });
  k.sensitize(p, clk);
  k.settle();
  clk.write(0.0);
  k.settle();
  clk.write(1.0);
  k.settle();
  clk.write(0.0);
  k.settle();
  EXPECT_EQ(falls, 2);
}

TEST(FixptEdge, FormatToStringAndWrapUnsigned) {
  const Format f{8, 8, false, fixpt::Quant::kRound, fixpt::Overflow::kWrap};
  EXPECT_EQ(f.to_string(), "ufix<8,8,rnd,wrap>");
  // Negative value wraps into the unsigned range.
  EXPECT_DOUBLE_EQ(fixpt::quantize(-1.0, f), 255.0);
  EXPECT_DOUBLE_EQ(fixpt::quantize(-257.0, f), 255.0);
}

TEST(FixptEdge, RoundHalfBehaviour) {
  const Format f{8, 7, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};
  // std::round semantics: half away from zero.
  EXPECT_DOUBLE_EQ(fixpt::quantize(2.5, f), 3.0);
  EXPECT_DOUBLE_EQ(fixpt::quantize(-2.5, f), -3.0);
  EXPECT_DOUBLE_EQ(fixpt::quantize(3.5, f), 4.0);
}

}  // namespace
}  // namespace asicpp
