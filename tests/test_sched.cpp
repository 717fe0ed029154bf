#include <gtest/gtest.h>

#include "fsm/fsm.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sfg/clk.h"

namespace asicpp::sched {
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

const Format kFmt{24, 15, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};

TEST(Net, TokenLifecycle) {
  Net n("n");
  EXPECT_FALSE(n.has_token());
  n.put(Fixed(3.0));
  EXPECT_TRUE(n.has_token());
  EXPECT_DOUBLE_EQ(n.token().value(), 3.0);
  EXPECT_THROW(n.put(Fixed(4.0)), std::logic_error);  // bus conflict
  n.begin_cycle();
  EXPECT_FALSE(n.has_token());
  EXPECT_DOUBLE_EQ(n.last().value(), 3.0);  // probe survives
}

TEST(Net, ExternalDriveReArmsEveryCycle) {
  Net n("pin");
  n.drive(Fixed(1.0));
  n.begin_cycle();
  EXPECT_TRUE(n.has_token());
  n.begin_cycle();
  EXPECT_TRUE(n.has_token());
  n.release();
  n.begin_cycle();
  EXPECT_FALSE(n.has_token());
}

// A register-only producer feeding a combinational consumer: data crosses
// the interconnect within a single cycle via the token-production phase.
TEST(CycleScheduler, ProducerConsumerSingleCycleFlow) {
  Clk clk;
  Reg counter("counter", clk, kFmt, 0.0);
  Sfg prod("prod");
  prod.out("o", counter.sig()).assign(counter, counter + 1.0);
  SfgComponent cprod("prod", prod);

  Sig x = Sig::input("x", kFmt);
  Sfg cons("cons");
  cons.in(x).out("y", x * 2.0);
  SfgComponent ccons("cons", cons);

  CycleScheduler sched(clk);
  cprod.bind_output("o", sched.net("data"));
  ccons.bind_input(x, sched.net("data"));
  ccons.bind_output("y", sched.net("out"));
  sched.add(cprod);
  sched.add(ccons);

  for (int i = 0; i < 5; ++i) {
    const auto stats = sched.cycle();
    EXPECT_EQ(stats.fired_components, 2);
    EXPECT_DOUBLE_EQ(sched.net("out").last().value(), 2.0 * i);
  }
  EXPECT_EQ(sched.cycles(), 5u);
}

// Registration order must not change results: the consumer registered
// first simply fires in a later sweep of the same cycle.
TEST(CycleScheduler, OrderIndependence) {
  for (const bool consumer_first : {false, true}) {
    Clk clk;
    Reg counter("counter", clk, kFmt, 0.0);
    Sfg prod("prod");
    prod.out("o", counter.sig()).assign(counter, counter + 1.0);
    SfgComponent cprod("prod", prod);
    Sig x = Sig::input("x", kFmt);
    Sfg cons("cons");
    cons.in(x).out("y", x * 2.0);
    SfgComponent ccons("cons", cons);

    CycleScheduler sched(clk);
    cprod.bind_output("o", sched.net("data"));
    ccons.bind_input(x, sched.net("data"));
    ccons.bind_output("y", sched.net("out"));
    if (consumer_first) {
      sched.add(ccons);
      sched.add(cprod);
    } else {
      sched.add(cprod);
      sched.add(ccons);
    }
    sched.run(RunOptions{}.for_cycles(4));
    EXPECT_DOUBLE_EQ(sched.net("out").last().value(), 6.0) << consumer_first;
  }
}

// The Fig 6 scenario: three components in a circular dependency —
// comp1 (timed, register-only output), comp2 (timed, combinational), and
// comp3 (untimed) closing the loop back into comp1. The token-production
// phase creates the initial token, so the loop resolves without data-flow
// buffers.
TEST(CycleScheduler, Fig6CircularTimedUntimedLoop) {
  Clk clk;
  // comp1: out1 = state (registered); state' = f(in1)
  Reg state("state", clk, kFmt, 1.0);
  Sig in1 = Sig::input("in1", kFmt);
  Sfg s1("s1");
  s1.in(in1).out("out1", state.sig()).assign(state, in1 + 0.5);
  SfgComponent c1("comp1", s1);

  // comp2: out2 = in2 * 2 (combinational)
  Sig in2 = Sig::input("in2", kFmt);
  Sfg s2("s2");
  s2.in(in2).out("out2", in2 * 2.0);
  SfgComponent c2("comp2", s2);

  // comp3: untimed, out3 = in3 + 1
  UntimedComponent c3("comp3", [](const std::vector<Fixed>& in, std::vector<Fixed>& out) {
    out.push_back(in[0] + Fixed(1.0));
  });

  CycleScheduler sched(clk);
  c1.bind_output("out1", sched.net("n12"));
  c2.bind_input(in2, sched.net("n12"));
  c2.bind_output("out2", sched.net("n23"));
  c3.bind_input(sched.net("n23"));
  c3.bind_output(sched.net("n31"));
  c1.bind_input(in1, sched.net("n31"));
  sched.add(c1);
  sched.add(c2);
  sched.add(c3);

  // Cycle 0: out1 = 1 (init), out2 = 2, out3 = 3, state' = 3.5.
  auto st = sched.cycle();
  EXPECT_GE(st.eval_iterations, 1);
  EXPECT_DOUBLE_EQ(sched.net("n31").last().value(), 3.0);
  // Cycle 1: out1 = 3.5, out2 = 7, out3 = 8.
  sched.cycle();
  EXPECT_DOUBLE_EQ(sched.net("n31").last().value(), 8.0);
  EXPECT_EQ(c3.firings(), 2u);
}

// A genuine combinational loop: two combinational components feeding each
// other. No token production is possible; the scheduler must report
// deadlock rather than spin.
TEST(CycleScheduler, CombinationalLoopDetected) {
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

  EXPECT_THROW(sched.cycle(), DeadlockError);
}

TEST(CycleScheduler, UnfedUntimedBlockIsNotDeadlock) {
  Clk clk;
  UntimedComponent lonely("lonely", [](const std::vector<Fixed>& in, std::vector<Fixed>& out) {
    out.push_back(in[0]);
  });
  CycleScheduler sched(clk);
  lonely.bind_input(sched.net("never"));
  lonely.bind_output(sched.net("out"));
  sched.add(lonely);
  EXPECT_NO_THROW(sched.cycle());
  EXPECT_EQ(lonely.firings(), 0u);
}

// An FSM component driving a dispatch-controlled datapath, RAM attached as
// an untimed block — the DECT structure in miniature (section 4).
TEST(CycleScheduler, ControllerDispatchRamRoundTrip) {
  Clk clk;

  // Controller: alternates opcode 1 (write ramp to RAM) / 2 (read back).
  Reg phase("phase", clk, Format{1, 1, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap}, 0.0);
  Reg addr("addr", clk, Format{8, 8, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap}, 0.0);
  Sfg emit_w("emit_w"), emit_r("emit_r");
  emit_w.out("instr", Sig(1.0) + 0.0)
      .out("addr", addr.sig())
      .assign(phase, Sig(1.0) + 0.0);
  emit_r.out("instr", Sig(2.0) + 0.0)
      .out("addr", addr.sig())
      .assign(phase, Sig(0.0) + 0.0)
      .assign(addr, addr + 1.0);
  Fsm ctl("ctl");
  State s = ctl.initial("s");
  s << !cnd(phase) << emit_w << s;
  s << cnd(phase) << emit_r << s;
  FsmComponent cctl("ctl", ctl);

  // Datapath: opcode 1 (write) emits we=1 and wdata = addr*10; opcode 2
  // (read) emits we=0/wdata=0 and accumulates the RAM read data. The
  // wdata/we outputs of the read instruction are constant-only, so the
  // dispatch component pushes them at decode time — that is what lets the
  // datapath<->RAM loop resolve within the cycle.
  Sig dp_addr = Sig::input("dp_addr", kFmt);
  Sig rdata = Sig::input("rdata", kFmt);
  Reg acc("acc", clk, kFmt, 0.0);
  Sfg wr("wr"), rd("rd");
  wr.in(dp_addr)
      .out("wdata", dp_addr * 10.0)
      .out("we", Sig(1.0) + 0.0);
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

  // RAM as untimed block: always returns the stored value at addr
  // (read-before-write), then stores when we=1.
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

  // 4 write/read pairs: writes store 10*k at address k, reads accumulate.
  sched.run(RunOptions{}.for_cycles(8));
  EXPECT_DOUBLE_EQ(storage[0], 0.0);
  EXPECT_DOUBLE_EQ(storage[1], 10.0);
  EXPECT_DOUBLE_EQ(storage[2], 20.0);
  EXPECT_DOUBLE_EQ(storage[3], 30.0);
  EXPECT_DOUBLE_EQ(acc.read().value(), 0.0 + 10.0 + 20.0 + 30.0);
  EXPECT_EQ(ram.firings(), 8u);
}

TEST(CycleScheduler, DispatchUnknownOpcodeNeedsDefault) {
  Clk clk;
  CycleScheduler sched(clk);
  Reg one("one", clk, kFmt, 5.0);
  Sfg emit("emit");
  emit.out("instr", one.sig());
  SfgComponent src("src", emit);
  src.bind_output("instr", sched.net("instr"));

  Sfg act("act");
  Reg mark("mark", clk, kFmt, 0.0);
  act.assign(mark, mark + 1.0);
  DispatchComponent dp("dp", sched.net("instr"));
  dp.add_instruction(1, act);
  sched.add(src);
  sched.add(dp);

  EXPECT_THROW(sched.cycle(), std::logic_error);  // opcode 5, no default

  Sfg nop("nop");
  Reg nops("nops", clk, kFmt, 0.0);
  nop.assign(nops, nops + 1.0);
  dp.set_default(nop);
  EXPECT_NO_THROW(sched.cycle());
  EXPECT_DOUBLE_EQ(nops.read().value(), 1.0);
}

TEST(CycleScheduler, MonitorsSeeEveryCycle) {
  Clk clk;
  Reg r("r", clk, kFmt, 0.0);
  Sfg s("s");
  s.assign(r, r + 1.0);
  SfgComponent c("c", s);
  CycleScheduler sched(clk);
  sched.add(c);
  std::vector<std::uint64_t> seen;
  sched.on_cycle_end([&](std::uint64_t cyc) { seen.push_back(cyc); });
  sched.run(RunOptions{}.for_cycles(3));
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 1u);
  EXPECT_EQ(seen[2], 3u);
  EXPECT_DOUBLE_EQ(r.read().value(), 3.0);
}

TEST(CycleScheduler, MaxIterationsBoundsEvaluation) {
  // Chain src -> A -> B registered in reverse order needs 2 evaluation
  // sweeps; with the cap at 1 the iterative scheduler must declare deadlock
  // even though progress was still being made. (The levelized schedule is
  // immune — see the companion assertions at the end.)
  Clk clk;
  CycleScheduler sched(clk);
  sched.set_schedule_mode(ScheduleMode::kIterative);
  sched.set_max_iterations(1);
  Reg counter("counter", clk, kFmt, 0.0);
  Sfg src("src");
  src.out("o", counter.sig()).assign(counter, counter + 1.0);
  SfgComponent csrc("src", src);
  Sig xa = Sig::input("xa", kFmt);
  Sfg a("a");
  a.in(xa).out("o", xa + 1.0);
  SfgComponent ca("ca", a);
  Sig xb = Sig::input("xb", kFmt);
  Sfg b("b");
  b.in(xb).out("o", xb + 1.0);
  SfgComponent cb("cb", b);
  csrc.bind_output("o", sched.net("n0"));
  ca.bind_input(xa, sched.net("n0"));
  ca.bind_output("o", sched.net("n1"));
  cb.bind_input(xb, sched.net("n1"));
  cb.bind_output("o", sched.net("n2"));
  sched.add(cb);
  sched.add(ca);
  sched.add(csrc);
  EXPECT_THROW(sched.cycle(), DeadlockError);
  sched.set_max_iterations(8);
  EXPECT_NO_THROW(sched.cycle());
  EXPECT_DOUBLE_EQ(sched.net("n2").last().value(), counter.read().value() - 1.0 + 2.0);

  // The static level walk fires the whole chain in a single pass, so even
  // the pathological iteration cap of 1 completes the cycle.
  sched.set_schedule_mode(ScheduleMode::kAuto);
  sched.set_max_iterations(1);
  CycleScheduler::CycleStats st{};
  EXPECT_NO_THROW(st = sched.cycle());
  EXPECT_TRUE(st.levelized);
  EXPECT_EQ(st.eval_iterations, 1);
}

// Property: an N-stage combinational pipeline settles in one cycle and the
// scheduler needs at most N evaluation sweeps (worst-case registration
// order) — the iterative evaluation phase at work.
class PipelineDepth : public ::testing::TestWithParam<int> {};

TEST_P(PipelineDepth, SettlesWithinDepthSweeps) {
  const int n = GetParam();
  Clk clk;
  CycleScheduler sched(clk);

  Reg seed("seed", clk, kFmt, 1.0);
  Sfg src("src");
  src.out("o", seed.sig()).assign(seed, seed + 1.0);
  SfgComponent csrc("src", src);
  csrc.bind_output("o", sched.net("s0"));

  std::vector<std::unique_ptr<Sfg>> sfgs;
  std::vector<std::unique_ptr<SfgComponent>> comps;
  for (int i = 0; i < n; ++i) {
    Sig x = Sig::input("x" + std::to_string(i), kFmt);
    auto s = std::make_unique<Sfg>("st" + std::to_string(i));
    s->in(x).out("o", x + 1.0);
    auto c = std::make_unique<SfgComponent>("c" + std::to_string(i), *s);
    c->bind_input(x, sched.net("s" + std::to_string(i)));
    c->bind_output("o", sched.net("s" + std::to_string(i + 1)));
    sfgs.push_back(std::move(s));
    comps.push_back(std::move(c));
  }
  // Register in reverse order: worst case for sweep convergence.
  for (int i = n - 1; i >= 0; --i) sched.add(*comps[static_cast<std::size_t>(i)]);
  sched.add(csrc);

  const auto stats = sched.cycle();
  EXPECT_LE(stats.eval_iterations, n + 1);
  EXPECT_DOUBLE_EQ(sched.net("s" + std::to_string(n)).last().value(), 1.0 + n);
}

INSTANTIATE_TEST_SUITE_P(Depths, PipelineDepth, ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace asicpp::sched
