// Assertion monitors, compiled-state checkpointing, FSM dot export.
#include <gtest/gtest.h>

#include <sstream>

#include "ckpt/snapshot.h"
#include "dect/vliw.h"
#include "fsm/fsm.h"
#include "sched/assert.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sim/compiled.h"
#include "sfg/clk.h"

namespace asicpp {
namespace {

using fixpt::Fixed;
using fixpt::Format;
using sfg::Clk;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;

const Format kF{12, 5, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};

struct Counter {
  Clk clk;
  Reg count{"count", clk, kF, 0.0};
  Sfg s{"count_s"};
  sched::CycleScheduler sched{clk};
  sched::SfgComponent comp{"counter", s};

  Counter() {
    s.out("o", count.sig()).assign(count, (count + 1.0).cast(kF));
    comp.bind_output("o", sched.net("o"));
    sched.add(comp);
  }
};

TEST(AssertionMonitor, AlwaysAndNeverGradeCorrectly) {
  Counter c;
  sched::AssertionMonitor mon(c.sched);
  mon.always("o is nonnegative", [&] { return c.sched.net("o").last().value() >= 0.0; });
  mon.never("o hits 100", [&] { return c.sched.net("o").last().value() == 100.0; });
  mon.always("o below 5 (will fail)", [&] { return c.sched.net("o").last().value() < 5.0; });
  c.sched.run(RunOptions{}.for_cycles(10));
  const auto v = mon.grade();
  ASSERT_EQ(v.size(), 5u);  // o = 5..9 violate the < 5 rule
  EXPECT_EQ(v[0].label, "o below 5 (will fail)");
  EXPECT_EQ(v[0].cycle, 6u);  // count shows 5 on the 6th cycle end
  EXPECT_FALSE(mon.ok());
  EXPECT_EQ(mon.cycles_checked(), 10u);
}

TEST(AssertionMonitor, EventuallySatisfiedAndPending) {
  Counter c;
  sched::AssertionMonitor mon(c.sched);
  mon.eventually("reaches 3", [&] { return c.sched.net("o").last().value() >= 3.0; });
  mon.eventually("reaches 1000 (never)",
                 [&] { return c.sched.net("o").last().value() >= 1000.0; });
  c.sched.run(RunOptions{}.for_cycles(8));
  const auto v = mon.grade();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].label, "reaches 1000 (never)");
  EXPECT_EQ(v[0].cycle, 0u);
}

TEST(AssertionMonitor, StableWhileVerifiesHoldProtocol) {
  // The Fig 2 property as an assertion: while hold_request is asserted
  // (and the pipeline has drained for two cycles), datapath state is frozen.
  dect::VliwParams p;
  p.num_datapaths = 4;
  p.num_rams = 1;
  p.rom_length = 12;
  dect::DectTransceiver t(p);
  t.drive_sample(0.5);

  int hold_age = 0;
  sched::AssertionMonitor mon(t.scheduler());
  mon.stable_while("data_2 frozen in hold", "data_2", [&] { return hold_age >= 3; });

  const auto run = [&](bool hold, int n) {
    for (int i = 0; i < n; ++i) {
      t.set_hold_request(hold);
      t.run(1);
      hold_age = hold ? hold_age + 1 : 0;
    }
  };
  run(false, 8);
  run(true, 7);
  run(false, 8);
  EXPECT_TRUE(mon.ok());

  // Counter-check: the same assertion during normal execution must fire.
  sched::AssertionMonitor mon2(t.scheduler());
  mon2.stable_while("data_2 frozen always (false)", "data_2", [] { return true; });
  run(false, 10);
  EXPECT_FALSE(mon2.ok());
}

TEST(AssertionMonitor, EventuallySatisfiedOnFinalCycle) {
  Counter c;
  sched::AssertionMonitor mon(c.sched);
  // o shows 4 exactly at the end of the 5th (final) cycle: the obligation
  // is discharged at the last possible check, not a cycle earlier.
  mon.eventually("reaches 4 on last cycle",
                 [&] { return c.sched.net("o").last().value() >= 4.0; });
  c.sched.run(RunOptions{}.for_cycles(4));
  EXPECT_FALSE(mon.ok());  // one cycle short: still pending
  c.sched.run(RunOptions{}.for_cycles(1));
  EXPECT_TRUE(mon.ok());
  EXPECT_EQ(mon.cycles_checked(), 5u);
}

TEST(AssertionMonitor, StableWhileOnNeverChangingNet) {
  // A constant driver: the freeze check must never fire even when armed for
  // the whole run, and re-arming after a gap must not misread the old value.
  Clk clk;
  Reg hold("holdv", clk, kF, 7.0);
  Sfg s("const_s");
  s.out("o", hold.sig()).assign(hold, hold.sig());
  sched::CycleScheduler sched{clk};
  sched::SfgComponent comp{"const", s};
  comp.bind_output("o", sched.net("o"));
  sched.add(comp);

  bool watch = true;
  sched::AssertionMonitor mon(sched);
  mon.stable_while("constant net stays stable", "o", [&] { return watch; });
  sched.run(RunOptions{}.for_cycles(6));
  watch = false;
  sched.run(RunOptions{}.for_cycles(3));
  watch = true;
  sched.run(RunOptions{}.for_cycles(6));
  EXPECT_TRUE(mon.ok());
  EXPECT_EQ(mon.cycles_checked(), 15u);
}

TEST(AssertionMonitor, GradeWithZeroCycles) {
  // Grading before any cycle ran: always/never/stable have nothing to
  // check and pass vacuously; only the eventually obligation fails.
  Counter c;
  sched::AssertionMonitor mon(c.sched);
  mon.always("vacuous always", [] { return false; });
  mon.never("vacuous never", [] { return true; });
  mon.stable_while("vacuous stable", "o", [] { return true; });
  mon.eventually("pending obligation", [] { return true; });
  const auto v = mon.grade();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].label, "pending obligation");
  EXPECT_EQ(v[0].cycle, 0u);
  EXPECT_EQ(mon.cycles_checked(), 0u);
}

TEST(Checkpoint, SaveRestoreBranchesARun) {
  Counter c;
  sim::CompiledSystem cs = sim::CompiledSystem::compile(c.sched);
  cs.run(RunOptions{}.for_cycles(5));
  std::stringstream cp;
  cs.save_state(cp);

  cs.run(RunOptions{}.for_cycles(7));
  const double after12 = cs.reg_value("count");
  cs.restore_state(cp);
  EXPECT_EQ(cs.cycles(), 5u);
  EXPECT_DOUBLE_EQ(cs.reg_value("count"), 5.0);
  cs.run(RunOptions{}.for_cycles(7));
  EXPECT_DOUBLE_EQ(cs.reg_value("count"), after12);  // replay is identical
}

TEST(Checkpoint, RestoreFromForeignSystemRejected) {
  Counter a, b;
  sim::CompiledSystem ca = sim::CompiledSystem::compile(a.sched);
  // A different system shape (extra net) -> a different image.
  b.comp.bind_output("o2", b.sched.net("o2"));
  sim::CompiledSystem cb = sim::CompiledSystem::compile(b.sched);
  std::stringstream cp;
  cb.save_state(cp);
  try {
    ca.restore_state(cp);
    FAIL() << "expected ckpt::SnapshotError";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_EQ(e.code(), "CKPT-003");
  }
}

TEST(FsmDot, RendersStatesAndGuards) {
  Clk clk;
  Reg eof("eof", clk, Format{1, 1, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap}, 0.0);
  Sfg sfg1("sfg1"), sfg2("sfg2");
  sfg1.assign(eof, ~fsm::cnd(eof).expr());
  sfg2.assign(eof, eof.sig());
  fsm::Fsm f("fig4");
  auto s0 = f.initial("s0");
  auto s1 = f.state("s1");
  s0 << fsm::always << sfg1 << s1;
  s1 << fsm::cnd(eof) << sfg2 << s1;
  s1 << !fsm::cnd(eof) << sfg1 << s0;
  const std::string dot = f.to_dot();
  EXPECT_NE(dot.find("digraph \"fig4\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"s0\", shape=circle, style=bold"), std::string::npos);
  EXPECT_NE(dot.find("label=\"_ / sfg1\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"eof / sfg2\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"!eof / sfg1\""), std::string::npos);
}

}  // namespace
}  // namespace asicpp
