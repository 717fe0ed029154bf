// The levelized static schedule (src/sched/schedule.*) and the unified
// RunOptions/RunResult engine API shared by CycleScheduler, CompiledSystem
// and DynamicScheduler.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "df/dynsched.h"
#include "df/process.h"
#include "sched/cyclesched.h"
#include "sched/dfadapter.h"
#include "sched/fsmcomp.h"
#include "sched/schedule.h"
#include "sched/untimed.h"
#include "sfg/clk.h"
#include "sim/compiled.h"

namespace asicpp::sched {
namespace {

using fixpt::Fixed;
using fixpt::Format;
using sfg::Clk;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;

const Format kF{16, 7, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};

// --- levelize_actions: the graph kernel ---

TEST(Levelize, ChainGetsIncreasingLevels) {
  // Action 0 produces net 0; action 1 consumes it and produces net 1;
  // action 2 consumes net 1.
  const std::vector<std::vector<std::int32_t>> needs{{}, {0}, {1}};
  const std::vector<std::vector<std::int32_t>> produces{{0}, {1}, {}};
  const std::vector<int> after{-1, -1, -1};
  const auto lv = levelize_actions(needs, produces, after);
  ASSERT_EQ(lv.size(), 3u);
  EXPECT_EQ(lv[0], 0);
  EXPECT_EQ(lv[1], 1);
  EXPECT_EQ(lv[2], 2);
}

TEST(Levelize, IndependentActionsShareLevelZero) {
  const std::vector<std::vector<std::int32_t>> needs{{}, {}, {}};
  const std::vector<std::vector<std::int32_t>> produces{{0}, {1}, {}};
  const auto lv = levelize_actions(needs, produces, {-1, -1, -1});
  ASSERT_EQ(lv.size(), 3u);
  EXPECT_EQ(lv[0], 0);
  EXPECT_EQ(lv[1], 0);
  EXPECT_EQ(lv[2], 0);
}

TEST(Levelize, CycleIsDetectedAndExtracted) {
  // 0 needs net 1 and produces net 0; 1 needs net 0 and produces net 1.
  const std::vector<std::vector<std::int32_t>> needs{{1}, {0}};
  const std::vector<std::vector<std::int32_t>> produces{{0}, {1}};
  std::vector<int> cyc;
  const auto lv = levelize_actions(needs, produces, {-1, -1}, &cyc);
  EXPECT_TRUE(lv.empty());
  EXPECT_GE(cyc.size(), 2u);
}

TEST(Levelize, AfterEdgeOrdersDecodeBeforeFire) {
  // Action 1 must run after action 0 even with no net dependency
  // (a dispatch component's decode -> fire pair).
  const std::vector<std::vector<std::int32_t>> needs{{}, {}};
  const std::vector<std::vector<std::int32_t>> produces{{}, {}};
  const auto lv = levelize_actions(needs, produces, {-1, 0});
  ASSERT_EQ(lv.size(), 2u);
  EXPECT_GT(lv[1], lv[0]);
}

// --- Schedule::build over real components ---

// A three-stage pipeline deliberately added in reverse dependency order:
// the iterative scheduler needs one sweep per stage, the level walk one
// pass total.
struct ReversePipe {
  Clk clk;
  CycleScheduler sched{clk};
  Reg seed{"seed", clk, kF, 1.0};
  Sig xa = Sig::input("xa", kF);
  Sig xb = Sig::input("xb", kF);
  Sfg ssrc{"ssrc"}, sa{"sa"}, sb{"sb"};
  SfgComponent csrc{"src", ssrc}, ca{"a", sa}, cb{"b", sb};

  ReversePipe() {
    ssrc.out("o", seed.sig()).assign(seed, seed + 1.0);
    sa.in(xa).out("o", xa + 1.0);
    sb.in(xb).out("o", xb * 2.0);
    csrc.bind_output("o", sched.net("n0"));
    ca.bind_input(xa, sched.net("n0"));
    ca.bind_output("o", sched.net("n1"));
    cb.bind_input(xb, sched.net("n1"));
    cb.bind_output("o", sched.net("n2"));
    sched.add(cb);
    sched.add(ca);
    sched.add(csrc);
  }
};

TEST(Schedule, BuildOrdersProducersBeforeConsumers) {
  ReversePipe p;
  const Schedule& s = p.sched.schedule();
  ASSERT_TRUE(s.valid()) << s.reason();
  EXPECT_EQ(s.component_count(), 3u);
  int pos_a = -1, pos_b = -1;
  for (std::size_t i = 0; i < s.order().size(); ++i) {
    if (s.order()[i].comp == &p.ca) pos_a = static_cast<int>(i);
    if (s.order()[i].comp == &p.cb) pos_b = static_cast<int>(i);
  }
  ASSERT_GE(pos_a, 0);
  ASSERT_GE(pos_b, 0);
  EXPECT_LT(pos_a, pos_b);  // a produces what b consumes
  EXPECT_GE(s.levels(), 2);
}

TEST(Schedule, LevelWalkFiresPipelineInOnePass) {
  ReversePipe p;
  const auto st = p.sched.cycle();
  EXPECT_TRUE(st.levelized);
  EXPECT_EQ(st.eval_iterations, 1);
  EXPECT_EQ(st.fired_components, 3);

  // The same cycle iteratively: the reverse add order costs one extra
  // sweep per pipeline stage.
  p.sched.set_schedule_mode(ScheduleMode::kIterative);
  const auto st2 = p.sched.cycle();
  EXPECT_FALSE(st2.levelized);
  EXPECT_GT(st2.eval_iterations, 1);
  EXPECT_EQ(st2.fired_components, 3);
}

TEST(Schedule, LevelizedAndIterativeTracesAgree) {
  ReversePipe lev, it;
  lev.sched.set_schedule_mode(ScheduleMode::kLevelized);
  it.sched.set_schedule_mode(ScheduleMode::kIterative);
  for (int c = 0; c < 16; ++c) {
    lev.sched.cycle();
    it.sched.cycle();
    for (const char* n : {"n0", "n1", "n2"}) {
      ASSERT_EQ(lev.sched.net(n).has_token(), it.sched.net(n).has_token())
          << "net " << n << " cycle " << c;
      ASSERT_DOUBLE_EQ(lev.sched.net(n).last().value(), it.sched.net(n).last().value())
          << "net " << n << " cycle " << c;
    }
  }
}

TEST(Schedule, AddComponentInvalidatesSchedule) {
  ReversePipe p;
  ASSERT_TRUE(p.sched.schedule().valid());
  EXPECT_TRUE(p.sched.cycle().levelized);

  // A new consumer on the end of the pipe: add() must invalidate and the
  // next cycle re-levelize with the longer chain.
  Sig xc = Sig::input("xc", kF);
  Sfg sc{"sc"};
  sc.in(xc).out("o", xc - 1.0);
  SfgComponent cc{"c", sc};
  cc.bind_input(xc, p.sched.net("n2"));
  cc.bind_output("o", p.sched.net("n3"));
  p.sched.add(cc);

  const auto st = p.sched.cycle();
  EXPECT_TRUE(st.levelized);
  EXPECT_EQ(st.fired_components, 4);
  EXPECT_GE(p.sched.schedule().levels(), 3);
  EXPECT_FALSE(p.sched.diagnostics().has("SCHED-002"));
}

// Re-binding a component after levelization without telling the scheduler:
// the stale walk misses, the cycle recovers iteratively with a SCHED-002
// warning, and the next cycle runs on a fresh level order.
TEST(Schedule, StaleWalkMissReportsSched002AndRelevelizes) {
  Clk clk;
  CycleScheduler sched(clk);
  Reg seed("seed", clk, kF, 1.0);

  Sfg sa{"sa"};
  sa.out("m1", seed.sig())
      .out("m2", seed.sig() + 0.5)
      .assign(seed, seed + 1.0);
  SfgComponent ca{"a", sa};
  ca.bind_output("m1", sched.net("m1"));
  ca.bind_output("m2", sched.net("m2"));

  Sig xb1 = Sig::input("xb1", kF);
  Sig xb2 = Sig::input("xb2", kF);
  Sfg sb{"sb"};
  sb.in(xb1).in(xb2).out("o", xb1 + xb2);
  SfgComponent cb{"b", sb};
  cb.bind_input(xb1, sched.net("m1"));
  cb.bind_output("o", sched.net("n2"));
  sched.net("xb2_ext").drive(Fixed(0.25));
  cb.bind_input(xb2, sched.net("xb2_ext"));

  Sig xc = Sig::input("xc", kF);
  Sfg scg{"sc"};
  scg.in(xc).out("late", xc * 2.0);
  SfgComponent cc{"c", scg};
  cc.bind_input(xc, sched.net("m2"));
  cc.bind_output("late", sched.net("late"));

  sched.add(ca);
  sched.add(cb);
  sched.add(cc);

  // First cycle levelizes cleanly: b and c both sit at level 0 (all their
  // inputs are register-only or external), b walks before c.
  EXPECT_TRUE(sched.cycle().levelized);
  EXPECT_FALSE(sched.diagnostics().has("SCHED-002"));

  // Now point b's second input at c's output. The cached order still walks
  // b before c, so the walk leaves b unfired; the iterative sweep recovers
  // the cycle and the schedule is marked stale.
  cb.bind_input(xb2, sched.net("late"));
  const auto miss = sched.cycle();
  EXPECT_FALSE(miss.levelized);
  EXPECT_EQ(miss.fired_components, 3);  // recovered, nothing lost
  ASSERT_TRUE(sched.diagnostics().has("SCHED-002"));
  EXPECT_EQ(sched.diagnostics().find("SCHED-002")->severity, diag::Severity::kWarning);

  // The rebuilt order puts c before b and the walk is clean again.
  const auto fixed = sched.cycle();
  EXPECT_TRUE(fixed.levelized);
  EXPECT_EQ(fixed.fired_components, 3);
}

// Two components feeding each other, named `x` and `y`, optionally behind
// a consumer of the loop registered first.
struct NamedLoop {
  Clk clk;
  CycleScheduler sched{clk};
  Sig ix = Sig::input("ix", kF);
  Sig iy = Sig::input("iy", kF);
  Sig is = Sig::input("is", kF);
  Sfg sx{"sx"}, sy{"sy"}, ss{"ss"};
  SfgComponent cx, cy, sink{"sink", ss};

  NamedLoop(const char* x, const char* y, bool sink_first) : cx(x, sx), cy(y, sy) {
    sx.in(ix).out("o", ix + 1.0);
    sy.in(iy).out("o", iy + 1.0);
    ss.in(is).out("o", is * 2.0);
    cx.bind_input(ix, sched.net("yx"));
    cx.bind_output("o", sched.net("xy"));
    cy.bind_input(iy, sched.net("xy"));
    cy.bind_output("o", sched.net("yx"));
    sink.bind_input(is, sched.net("xy"));
    sink.bind_output("o", sched.net("out"));
    if (sink_first) sched.add(sink);
    sched.add(cx);
    sched.add(cy);
  }
};

// The cycle reason names every component on the cycle once, whatever the
// names and the registration order: `cycle` and `end` are substrings of
// "dependency cycle:", and `a` of `ab`, which a substring dedupe used to
// drop; and a consumer of the loop registered first used to leave the
// cycle search at a dead end.
TEST(Schedule, CycleReasonNamesEachComponentOnce) {
  for (const auto& [x, y] : {std::pair{"cycle", "end"}, std::pair{"ab", "a"}}) {
    for (const bool sink_first : {false, true}) {
      NamedLoop l(x, y, sink_first);
      const std::string want = std::string("dependency cycle: ") + x + " " + y;
      EXPECT_FALSE(l.sched.schedule().valid());
      EXPECT_EQ(l.sched.schedule().reason(), want) << "sink first: " << sink_first;
      const sim::CompiledSystem cs = sim::CompiledSystem::compile(l.sched);
      EXPECT_FALSE(cs.levelizable());
      EXPECT_EQ(cs.schedule_reason(), want) << "sink first: " << sink_first;
    }
  }
}

// --- fallback: dataflow adapters have no static firing order ---

TEST(Schedule, DataflowAdapterForcesIterativeFallback) {
  Clk clk;
  CycleScheduler sched(clk);
  Reg n("n", clk, kF, 0.0);
  Sfg s{"src"};
  s.out("o", n.sig()).assign(n, n + 1.0);
  SfgComponent src{"src", s};
  src.bind_output("o", sched.net("samples"));
  sched.add(src);

  df::FnProcess dbl("dbl", [](const std::vector<df::Token>& in,
                              std::vector<df::Token>& out) {
    out.push_back(in[0] * Fixed(2.0));
  });
  DataflowAdapter ad("dbl", dbl);
  ad.bind_input(sched.net("samples"));
  ad.bind_output(sched.net("doubled"));
  sched.add(ad);

  EXPECT_FALSE(sched.schedule().valid());
  EXPECT_NE(sched.schedule().reason().find("no static firing order"), std::string::npos);

  // kAuto quietly runs iteratively — no diagnostic noise.
  RunResult r = sched.run(RunOptions{}.for_cycles(6));
  EXPECT_EQ(r.cycles, 6u);
  EXPECT_EQ(r.levelized_cycles, 0u);
  EXPECT_EQ(r.schedule, ScheduleMode::kIterative);
  EXPECT_FALSE(sched.diagnostics().has("SCHED-002"));

  // Explicitly requesting kLevelized reports SCHED-002 once and falls back.
  r = sched.run(RunOptions{}.for_cycles(6).mode(ScheduleMode::kLevelized));
  EXPECT_EQ(r.cycles, 6u);
  EXPECT_EQ(r.levelized_cycles, 0u);
  ASSERT_TRUE(sched.diagnostics().has("SCHED-002"));
  std::size_t sched002 = 0;
  for (const auto& d : sched.diagnostics().all())
    if (d.code == "SCHED-002") ++sched002;
  EXPECT_EQ(sched002, 1u);
  EXPECT_EQ(ad.firings(), 12u);
}

// --- the unified run API across all three engines ---

TEST(RunApi, CycleSchedulerRunResultAndHooks) {
  ReversePipe p;
  std::uint64_t hook_calls = 0;
  const RunResult r = p.sched.run(RunOptions{}
                                      .for_cycles(10)
                                      .profiled()
                                      .on_cycle([&](std::uint64_t) { ++hook_calls; }));
  EXPECT_EQ(r.cycles, 10u);
  EXPECT_EQ(r.firings, 30u);
  EXPECT_EQ(r.retry_passes, 0u);
  EXPECT_EQ(r.levelized_cycles, 10u);
  EXPECT_EQ(r.schedule, ScheduleMode::kLevelized);
  EXPECT_EQ(r.stop, StopReason::kCompleted);
  EXPECT_FALSE(r.watchdog_tripped());
  EXPECT_EQ(hook_calls, 10u);

  ASSERT_EQ(r.timing.size(), 3u);
  for (const auto& t : r.timing) {
    EXPECT_EQ(t.firings, 10u);
    EXPECT_GE(t.seconds, 0.0);
  }

  // Iterative mode pays retry passes on the reverse add order.
  const RunResult it = p.sched.run(
      RunOptions{}.for_cycles(10).mode(ScheduleMode::kIterative));
  EXPECT_EQ(it.levelized_cycles, 0u);
  EXPECT_GT(it.retry_passes, 0u);
  EXPECT_EQ(it.schedule, ScheduleMode::kIterative);
}

TEST(RunApi, CompiledSystemMatchesInterpretedInBothModes) {
  ReversePipe a, b;
  sim::CompiledSystem lev = sim::CompiledSystem::compile(a.sched);
  sim::CompiledSystem it = sim::CompiledSystem::compile(b.sched);
  ASSERT_TRUE(lev.levelizable()) << lev.schedule_reason();
  EXPECT_GE(lev.schedule_levels(), 2);

  const RunResult rl = lev.run(RunOptions{}.for_cycles(12));
  const RunResult ri = it.run(RunOptions{}.for_cycles(12).mode(ScheduleMode::kIterative));
  EXPECT_EQ(rl.cycles, 12u);
  EXPECT_EQ(rl.levelized_cycles, 12u);
  EXPECT_EQ(rl.retry_passes, 0u);
  EXPECT_EQ(rl.schedule, ScheduleMode::kLevelized);
  EXPECT_EQ(ri.levelized_cycles, 0u);
  EXPECT_GT(ri.retry_passes, 0u);
  for (const char* n : {"n0", "n1", "n2"})
    EXPECT_DOUBLE_EQ(lev.net_value(n), it.net_value(n)) << "net " << n;
}

TEST(RunApi, DynamicSchedulerQuiescesWithRunResult) {
  df::Queue in("in"), out("out");
  df::FnProcess dbl("dbl", [](const std::vector<df::Token>& i,
                              std::vector<df::Token>& o) {
    o.push_back(i[0] * Fixed(2.0));
  });
  dbl.connect_in(in);
  dbl.connect_out(out);
  for (int i = 0; i < 3; ++i) in.push(Fixed(static_cast<double>(i)));

  df::DynamicScheduler ds;
  ds.add(dbl);
  const RunResult r = ds.run(RunOptions{}.profiled());
  EXPECT_EQ(r.firings, 3u);
  EXPECT_EQ(r.stop, StopReason::kQuiescent);
  EXPECT_EQ(r.schedule, ScheduleMode::kIterative);
  EXPECT_FALSE(ds.last_result().deadlocked);
  ASSERT_EQ(r.timing.size(), 1u);
  EXPECT_EQ(r.timing[0].firings, 3u);
  EXPECT_EQ(out.size(), 3u);
}

}  // namespace
}  // namespace asicpp::sched
