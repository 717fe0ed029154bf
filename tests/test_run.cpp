// One run() contract for every cycle engine. The interpreted scheduler,
// the compiled tape, the JIT and the batched evaluator share one run loop
// and one phase-2 core (sched::Phase2, sched/phase2.h), so a cycle budget,
// a wall-clock limit, the checkpoint cadence, on_cycle_end, the SCHED-001/
// 002 texts and the level walk must behave the same on each.
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "batch/batch.h"
#include "dect/vliw.h"
#include "diag/diag.h"
#include "engine/engine.h"
#include "fsm/fsm.h"
#include "jit/jit.h"
#include "opt/ir.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sfg/clk.h"
#include "sfg/eval.h"
#include "sfg/sfg.h"
#include "sim/compiled.h"

namespace asicpp {
namespace {

using sfg::Sig;

const fixpt::Format kFmt{16, 7, true, fixpt::Quant::kRound,
                         fixpt::Overflow::kSaturate};

struct EngineCase {
  const char* engine;  ///< test parameter name
  const char* origin;  ///< component field of its diagnostics
};

// ctest names each case after how gtest prints its parameter. Printed as
// raw bytes, that is two string addresses, which move on every link.
void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.engine; }

using RunFn = std::function<RunResult(const RunOptions&)>;

/// `engine`'s run() over the system assembled on `sched`. The interpreted
/// cases pin their schedule mode; the compiled, jit and (4-lane) batched
/// engines are built from `sched` and honour the requested one.
RunFn engine_run(const std::string& engine, sched::CycleScheduler& sched) {
  if (engine == "iterative" || engine == "levelized") {
    const ScheduleMode m =
        engine == "iterative" ? ScheduleMode::kIterative : ScheduleMode::kLevelized;
    return [&sched, m](const RunOptions& o) {
      RunOptions pinned = o;
      return sched.run(pinned.mode(m));
    };
  }
  if (engine == "compiled") {
    auto cs = std::make_shared<sim::CompiledSystem>(sim::CompiledSystem::compile(sched));
    return [cs](const RunOptions& o) { return cs->run(o); };
  }
  if (engine == "jit") {
    jit::JitOptions jo;
    jo.cache_dir = ::testing::TempDir() + "/asicpp_run_contract_store";
    auto js = std::make_shared<sim::CompiledSystem>(jit::compile(sched, {}, jo));
    EXPECT_TRUE(js->native()) << "jit fell back to the tape";
    return [js](const RunOptions& o) { return js->run(o); };
  }
  auto bs = std::make_shared<batch::BatchedSystem>(batch::BatchedSystem::compile(sched, 4));
  return [bs](const RunOptions& o) { return bs->run(o); };
}

/// A free-running counter behind one engine's run().
class Target {
 public:
  explicit Target(const std::string& engine) {
    s_.out("o", count_.sig()).assign(count_, (count_ + 1.0).cast(kFmt));
    comp_.bind_output("o", sched_.net("o"));
    sched_.add(comp_);
    run_ = engine_run(engine, sched_);
  }

  RunResult run(const RunOptions& o) { return run_(o); }

 private:
  sfg::Clk clk_;
  sfg::Reg count_{"count", clk_, kFmt, 0.0};
  sfg::Sfg s_{"count_s"};
  sched::CycleScheduler sched_{clk_};
  sched::SfgComponent comp_{"counter", s_};
  RunFn run_;
};

class RunContract : public ::testing::TestWithParam<EngineCase> {};

TEST_P(RunContract, CycleBudgetStopsWithWatchdog001) {
  Target t(GetParam().engine);
  t.run(RunOptions{}.for_cycles(3));
  diag::DiagEngine de;
  const RunResult r = t.run(RunOptions{}.for_cycles(10).budget(7).into(de));
  EXPECT_EQ(r.cycles, 4u);
  EXPECT_EQ(r.stop, StopReason::kCycleBudget);
  const diag::Diagnostic* d = de.find("WATCHDOG-001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->component, GetParam().origin);
  EXPECT_EQ(d->cycle, 7u);
  EXPECT_EQ(d->message,
            "cycle budget (7) exhausted after 4 of 10 requested cycles; "
            "stopping run");
}

TEST_P(RunContract, WallClockLimitStopsWithWatchdog002) {
  Target t(GetParam().engine);
  diag::DiagEngine de;
  // 1e-9 s trips on the first check.
  const RunResult r =
      t.run(RunOptions{}.for_cycles(1'000'000).within(1e-9).into(de));
  EXPECT_LT(r.cycles, 1'000'000u);
  EXPECT_EQ(r.stop, StopReason::kWallClock);
  const diag::Diagnostic* d = de.find("WATCHDOG-002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->component, GetParam().origin);
  EXPECT_NE(d->message.find("wall-clock limit"), std::string::npos)
      << d->message;
}

TEST_P(RunContract, CheckpointCadenceCounts) {
  Target t(GetParam().engine);
  t.run(RunOptions{}.for_cycles(2));
  std::vector<std::uint64_t> at;
  const RunResult r = t.run(RunOptions{}.for_cycles(10).checkpoint(
      3, [&](std::uint64_t c) { at.push_back(c); }));
  EXPECT_EQ(r.cycles, 10u);
  EXPECT_EQ(r.stop, StopReason::kCompleted);
  EXPECT_EQ(r.checkpoints, 3u);
  EXPECT_EQ(at, (std::vector<std::uint64_t>{5, 8, 11}));
}

TEST_P(RunContract, OnCycleEndSeesTotalCycleNumbers) {
  Target t(GetParam().engine);
  t.run(RunOptions{}.for_cycles(2));
  std::vector<std::uint64_t> seen;
  t.run(RunOptions{}.for_cycles(3).on_cycle(
      [&](std::uint64_t c) { seen.push_back(c); }));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{3, 4, 5}));
}

// --- one SCHED-001/002 text per design ---------------------------------------

/// What every engine must report for a deadlocked design run at kLevelized:
/// the SCHED-001 message and notes, and the unlevelizable SCHED-002's
/// reason.
struct Postmortem {
  std::string message;
  std::vector<std::string> notes;
  std::string reason;
};

/// Run one cycle of a fresh `Design` on `engine` and check its
/// SCHED-001/002 against `want`. Only the origin and the batch's lane
/// suffix may differ between engines.
template <class Design>
void expect_postmortem(const EngineCase& engine, const Postmortem& want) {
  Design sys;
  const RunFn run = engine_run(engine.engine, sys.sched);
  diag::DiagEngine de;
  try {
    run(RunOptions{}.for_cycles(1).mode(ScheduleMode::kLevelized).into(de));
    ADD_FAILURE() << "no deadlock";
    return;
  } catch (const sched::DeadlockError& e) {
    EXPECT_EQ(e.diagnostic().code, "SCHED-001");
  }
  const diag::Diagnostic* d = de.find("SCHED-001");
  ASSERT_NE(d, nullptr) << de.str();
  EXPECT_EQ(d->component, engine.origin);
  EXPECT_EQ(d->cycle, 0u);
  std::string message = d->message;
  const std::string lane = " (lane 0)";
  if (std::string(engine.engine) == "batched" && message.size() > lane.size() &&
      message.compare(message.size() - lane.size(), lane.size(), lane) == 0)
    message.resize(message.size() - lane.size());
  EXPECT_EQ(message, want.message);
  EXPECT_EQ(d->notes, want.notes);

  // The interpreted iterative case never asks for the level walk.
  std::vector<const diag::Diagnostic*> sched002;
  for (const auto& x : de.all())
    if (x.code == "SCHED-002") sched002.push_back(&x);
  if (std::string(engine.engine) == "iterative") {
    EXPECT_TRUE(sched002.empty()) << de.str();
    return;
  }
  ASSERT_EQ(sched002.size(), 1u) << de.str();
  EXPECT_EQ(sched002[0]->component, engine.origin);
  EXPECT_EQ(sched002[0]->message,
            "levelized schedule requested but the system cannot be statically "
            "ordered (" + want.reason + "); running iteratively");
}

/// Two combinational components feeding each other (test_diag's CombLoop).
struct CombLoop {
  sfg::Clk clk;
  Sig a = Sig::input("a", kFmt);
  sfg::Sfg sa{"sa"};
  sched::SfgComponent ca{"ca", sa};
  Sig b = Sig::input("b", kFmt);
  sfg::Sfg sb{"sb"};
  sched::SfgComponent cb{"cb", sb};
  sched::CycleScheduler sched{clk};

  CombLoop() {
    sa.in(a).out("oa", a + 1.0);
    sb.in(b).out("ob", b + 1.0);
    ca.bind_input(a, sched.net("b2a"));
    ca.bind_output("oa", sched.net("a2b"));
    cb.bind_input(b, sched.net("a2b"));
    cb.bind_output("ob", sched.net("b2a"));
    sched.add(ca);
    sched.add(cb);
  }
};

TEST_P(RunContract, CombLoopPostmortemIsOneText) {
  expect_postmortem<CombLoop>(
      GetParam(),
      {"combinational deadlock, unfired components: ca, cb",
       {"component 'ca' waits on net(s): 'b2a'", "component 'cb' waits on net(s): 'a2b'",
        "dependency cycle: ca -[b2a]-> cb -[a2b]-> ca",
        "net 'a2b' last value = 0 (no token this cycle)",
        "net 'b2a' last value = 0 (no token this cycle)"},
       "dependency cycle: ca cb"});
}

/// p -> q -> r -> p, plus a bystander `by` that waits on the loop without
/// closing it. The nets are created in reverse name order.
struct ThreeStageLoop {
  sfg::Clk clk;
  sched::CycleScheduler sched{clk};
  Sig xp = Sig::input("xp", kFmt), xq = Sig::input("xq", kFmt);
  Sig xr = Sig::input("xr", kFmt), xb = Sig::input("xb", kFmt);
  sfg::Sfg sp{"sp"}, sq{"sq"}, sr{"sr"}, sb{"sb"};
  sched::SfgComponent p{"p", sp}, q{"q", sq}, r{"r", sr}, by{"by", sb};

  ThreeStageLoop() {
    sched::Net& z_rp = sched.net("z_rp");
    sched::Net& m_pq = sched.net("m_pq");
    sched::Net& a_qr = sched.net("a_qr");
    sched::Net& b_out = sched.net("b_out");
    sp.in(xp).out("o", xp + 1.0);
    sq.in(xq).out("o", xq + 2.0);
    sr.in(xr).out("o", xr + 3.0);
    sb.in(xb).out("o", xb * 2.0);
    p.bind_input(xp, z_rp);
    p.bind_output("o", m_pq);
    q.bind_input(xq, m_pq);
    q.bind_output("o", a_qr);
    r.bind_input(xr, a_qr);
    r.bind_output("o", z_rp);
    by.bind_input(xb, m_pq);
    by.bind_output("o", b_out);
    for (sched::Component* c : {&p, &q, &r, &by}) sched.add(*c);
  }
};

TEST_P(RunContract, ThreeStageLoopListsNetsByName) {
  expect_postmortem<ThreeStageLoop>(
      GetParam(),
      {"combinational deadlock, unfired components: p, q, r, by",
       {"component 'p' waits on net(s): 'z_rp'", "component 'q' waits on net(s): 'm_pq'",
        "component 'r' waits on net(s): 'a_qr'", "component 'by' waits on net(s): 'm_pq'",
        "dependency cycle: p -[z_rp]-> r -[a_qr]-> q -[m_pq]-> p",
        "net 'a_qr' last value = 0 (no token this cycle)",
        "net 'm_pq' last value = 0 (no token this cycle)",
        "net 'z_rp' last value = 0 (no token this cycle)"},
       "dependency cycle: p q r"});
}

/// An FSM controller and an instruction-dispatched datapath feeding each
/// other; the instruction pin is driven, so the datapath decodes and then
/// blocks on its data input.
struct FsmDispatchLoop {
  sfg::Clk clk;
  sched::CycleScheduler sched{clk};
  Sig fin = Sig::input("fin", kFmt), din = Sig::input("din", kFmt);
  sfg::Sfg fs{"fs"}, ds{"ds"};
  fsm::Fsm f{"f"};
  sched::FsmComponent ctl{"ctl", f};
  sched::DispatchComponent dp{"dp", sched.net("op")};

  FsmDispatchLoop() {
    fs.in(fin).out("o", fin + 1.0);
    ds.in(din).out("o", din * 2.0);
    fsm::State s = f.initial("s");
    s << fsm::always << fs << s;
    dp.add_instruction(1, ds);
    sched.net("op").drive(fixpt::Fixed(1.0));
    ctl.bind_input(fin, sched.net("d2f"));
    ctl.bind_output("o", sched.net("f2d"));
    dp.bind_input(din, sched.net("f2d"));
    dp.bind_output("o", sched.net("d2f"));
    sched.add(ctl);
    sched.add(dp);
  }
};

TEST_P(RunContract, FsmDispatchLoopPostmortemIsOneText) {
  expect_postmortem<FsmDispatchLoop>(
      GetParam(),
      {"combinational deadlock, unfired components: ctl, dp",
       {"component 'ctl' waits on net(s): 'd2f'", "component 'dp' waits on net(s): 'f2d'",
        "dependency cycle: ctl -[d2f]-> dp -[f2d]-> ctl",
        "net 'd2f' last value = 0 (no token this cycle)",
        "net 'f2d' last value = 0 (no token this cycle)"},
       "dependency cycle: ctl dp"});
}

// --- the level walk ------------------------------------------------------------

/// Two levels of kWidth steps: a_i adds a counter to the driven net `x`,
/// b_i doubles a_i's sum.
struct WideLevels {
  static constexpr int kWidth = 6;
  sfg::Clk clk;
  sched::CycleScheduler sched{clk};
  std::vector<std::unique_ptr<sfg::Reg>> regs;
  std::vector<std::unique_ptr<sfg::Sfg>> sfgs;
  std::vector<std::unique_ptr<sched::SfgComponent>> comps;

  WideLevels() {
    sched.net("x").drive(fixpt::Fixed(0.5));
    const auto add = [&](const std::string& name) -> sfg::Sfg& {
      return *sfgs.emplace_back(std::make_unique<sfg::Sfg>(name));
    };
    for (int i = 0; i < kWidth; ++i) {
      const std::string n = std::to_string(i);
      sfg::Reg& r = *regs.emplace_back(std::make_unique<sfg::Reg>("r" + n, clk, kFmt, 0.0));
      const Sig xa = Sig::input("xa" + n, kFmt), xb = Sig::input("xb" + n, kFmt);
      sfg::Sfg& sa = add("sa" + n);
      sfg::Sfg& sb = add("sb" + n);
      sa.in(xa).out("o", xa + r.sig()).assign(r, (r + 1.0).cast(kFmt));
      sb.in(xb).out("o", xb * 2.0);
      auto& a = *comps.emplace_back(std::make_unique<sched::SfgComponent>("a" + n, sa));
      auto& b = *comps.emplace_back(std::make_unique<sched::SfgComponent>("b" + n, sb));
      a.bind_input(xa, sched.net("x"));
      a.bind_output("o", sched.net("a" + n));
      b.bind_input(xb, sched.net("a" + n));
      b.bind_output("o", sched.net("b" + n));
    }
    for (auto& c : comps) sched.add(*c);
  }
};

// Every step fires once per cycle, in one walk (one sweep when iterative).
TEST_P(RunContract, WideLevelsRunInOnePass) {
  const bool batched = std::string(GetParam().engine) == "batched";
  const bool walks = std::string(GetParam().engine) != "iterative";
  WideLevels sys;
  const RunResult r = engine_run(GetParam().engine, sys.sched)(RunOptions{}.for_cycles(8));
  EXPECT_EQ(r.cycles, 8u);
  EXPECT_EQ(r.firings, 8u * 2 * WideLevels::kWidth * (batched ? 4 : 1));
  EXPECT_EQ(r.levelized_cycles, walks ? 8u : 0u);
  EXPECT_EQ(r.retry_passes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RunContract,
    ::testing::Values(EngineCase{"iterative", "cycle scheduler"},
                      EngineCase{"levelized", "cycle scheduler"},
                      EngineCase{"compiled", "compiled simulator"},
                      EngineCase{"jit", "jit engine"},
                      EngineCase{"batched", "batched simulator"}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string(info.param.engine);
    });

// --- port tables: what a firing resolved once is resolved again when the
// bindings, the SFG or its pass options change --------------------------

const fixpt::Format kFine{16, 7, true, fixpt::Quant::kTruncate, fixpt::Overflow::kSaturate};
const fixpt::Format kCoarse{8, 7, true, fixpt::Quant::kTruncate, fixpt::Overflow::kSaturate};

/// A counter on net "a" and a consumer SFG whose input starts unbound.
struct LateBinding {
  sfg::Clk clk;
  sfg::Reg count{"count", clk, kFmt, 0.0};
  sfg::Sfg src{"src"};
  sched::SfgComponent csrc{"src", src};
  Sig x = Sig::input("x", kFmt);
  sfg::Sfg use{"use"};
  sched::SfgComponent cuse{"use", use};
  sched::CycleScheduler sched{clk};

  LateBinding() {
    src.out("a", count.sig()).assign(count, (count + 1.0).cast(kFmt));
    csrc.bind_output("a", sched.net("a"));
    use.in(x).out("y", (x + 0.5).cast(kFmt)).out("v", (x * 2.0).cast(kFmt));
    cuse.bind_output("y", sched.net("y"));
    sched.add(csrc);
    sched.add(cuse);
  }
  double y() { return sched.net("y").last().value(); }
};

TEST(PortTables, PortBoundAfterFiringTakesEffectNextCycle) {
  for (const ScheduleMode mode : {ScheduleMode::kIterative, ScheduleMode::kLevelized}) {
    SCOPED_TRACE(mode == ScheduleMode::kIterative ? "iterative" : "levelized");
    LateBinding sys;
    sys.sched.set_schedule_mode(mode);
    sys.sched.cycle();
    sys.sched.cycle();
    EXPECT_EQ(sys.y(), 0.5);  // x is unbound: it keeps its value, 0
    EXPECT_FALSE(sys.sched.net("v").has_token());
    sys.cuse.bind_input(sys.x, sys.sched.net("a"));
    sys.cuse.bind_output("v", sys.sched.net("v"));
    sys.sched.invalidate_schedule();
    sys.sched.cycle();  // the counter reads 2 in the third cycle
    EXPECT_EQ(sys.y(), 2.5);
    EXPECT_EQ(sys.sched.net("v").last().value(), 4.0);
    sys.sched.cycle();
    EXPECT_EQ(sys.y(), 3.5);
    EXPECT_EQ(sys.sched.net("v").last().value(), 6.0);
  }
}

TEST(PortTables, SfgPortsAndAssignmentsChangedAfterFiringResolveAgain) {
  LateBinding sys;
  sys.cuse.bind_input(sys.x, sys.sched.net("a"));
  // Bound before the SFG declares them: nothing is loaded or put yet.
  const Sig x2 = Sig::input("x2", kFmt);
  sys.cuse.bind_input(x2, sys.sched.net("a"));
  sys.cuse.bind_output("z", sys.sched.net("z"));
  sfg::Reg acc{"acc", sys.clk, kFmt, 0.0};
  sys.sched.cycle();
  sys.sched.cycle();
  EXPECT_FALSE(sys.sched.net("z").has_token());
  EXPECT_EQ(acc.read().value(), 0.0);

  sys.use.in(x2).out("z", (x2 * 2.0).cast(kFmt)).assign(acc, (acc + x2).cast(kFmt));
  sys.sched.cycle();  // counter 2
  EXPECT_EQ(sys.sched.net("z").last().value(), 4.0);
  EXPECT_EQ(acc.read().value(), 2.0);
  sys.sched.cycle();  // counter 3
  EXPECT_EQ(sys.sched.net("z").last().value(), 6.0);
  EXPECT_EQ(acc.read().value(), 5.0);
  EXPECT_EQ(sys.y(), 3.5);
}

TEST(PortTables, TransitionAddedAfterFiringGetsItsTable) {
  for (const ScheduleMode mode : {ScheduleMode::kIterative, ScheduleMode::kLevelized}) {
    SCOPED_TRACE(mode == ScheduleMode::kIterative ? "iterative" : "levelized");
    sfg::Clk clk;
    sfg::Sfg go{"go"};
    sfg::Sfg stay{"stay"};
    go.out("a", Sig(1.0) + 0.0);
    stay.out("b", Sig(2.0) + 0.0);
    fsm::Fsm f{"f"};
    fsm::State s0 = f.initial("s0");
    fsm::State s1 = f.state("s1");
    s0 << fsm::always << go << s1;
    sched::FsmComponent c{"c", f};
    sched::CycleScheduler sched{clk};
    c.bind_output("a", sched.net("a"));
    c.bind_output("b", sched.net("b"));
    sched.add(c);
    sched.set_schedule_mode(mode);
    sched.cycle();  // go, into s1
    sched.cycle();  // s1 has no transition yet
    EXPECT_FALSE(sched.net("b").has_token());
    s1 << fsm::always << stay << s1;
    sched.invalidate_schedule();
    sched.cycle();
    EXPECT_TRUE(sched.net("b").has_token());
    EXPECT_EQ(sched.net("b").last().value(), 2.0);
  }
}

TEST(PortTables, PassOptionsChangedBetweenCyclesLowerAndResolveAgain) {
  sfg::Clk clk;
  Sig x = Sig::input("x", kFine);
  sfg::Sfg use{"use"};
  use.in(x).out("y", x).out("w", (x + 1.0).cast(kFmt));
  sched::SfgComponent cuse{"use", use};
  sched::CycleScheduler sched{clk};
  cuse.bind_input(x, sched.net("a"));
  cuse.bind_output("y", sched.net("y"));
  cuse.bind_output("w", sched.net("w"));
  sched.add(cuse);
  sched.net("a").drive(fixpt::Fixed(0.3));
  sched.cycle();
  EXPECT_EQ(sched.net("y").last().value(), fixpt::quantize(0.3, kFine));

  // The input's format changes behind the SFG; the next pass-option change
  // lowers again and the load quantizes into the new format.
  const int raw_before = use.lowered().stats.instrs_after;
  x.node()->fmt = kCoarse;
  sched.set_pass_options(opt::PassOptions::raw());
  sched.cycle();
  EXPECT_EQ(sched.net("y").last().value(), fixpt::quantize(0.3, kCoarse));
  EXPECT_EQ(sched.net("w").last().value(), fixpt::quantize(0.3, kCoarse) + 1.0);
  EXPECT_EQ(use.lowered().stats.instrs_after, use.lowered().stats.instrs_before);
  EXPECT_GE(use.lowered().stats.instrs_after, raw_before);

  x.node()->fmt = kFine;
  sched.set_pass_options(opt::PassOptions{});
  sched.cycle();
  EXPECT_EQ(sched.net("y").last().value(), fixpt::quantize(0.3, kFine));
}

// set_pass_options is the one knob: run() leaves every SFG's options as
// they were set.
TEST(PortTables, RunKeepsThePassOptionsSetBeforeIt) {
  dect::DectTransceiver t;
  t.drive_sample(0.5);
  sched::CycleScheduler& sched = t.scheduler();
  sched.set_pass_options(opt::PassOptions::none());
  const RunResult r = sched.run(RunOptions{}.for_cycles(2));
  EXPECT_EQ(r.cycles, 2u);
  std::vector<sfg::Sfg*> sfgs;
  for (const sched::Component* c : sched.components()) c->collect_sfgs(sfgs);
  ASSERT_FALSE(sfgs.empty());
  for (const sfg::Sfg* s : sfgs)
    EXPECT_EQ(s->pass_options(), opt::PassOptions::none()) << s->name();
}

TEST(PortTables, FreshStampAfterRegisterOutputsRecomputesEveryOutput) {
  sfg::Clk clk;
  sfg::Reg r{"r", clk, kFmt, 1.0};
  Sig x = Sig::input("x", kFmt);
  sfg::Sfg s{"s"};
  s.in(x).out("p", (r + 1.0).cast(kFmt)).out("m", (x + r).cast(kFmt));
  x.node()->value = fixpt::Fixed(0.5);
  const std::uint64_t stamp = sfg::new_eval_stamp();
  s.eval_register_outputs(stamp);
  EXPECT_EQ(s.output_value("p").value(), 2.0);
  s.eval(stamp);  // the same stamp reuses phase 1
  EXPECT_EQ(s.output_value("m").value(), 1.5);

  // A register changed since then: a fresh stamp runs phase 1 again.
  r.node()->value = fixpt::Fixed(4.0);
  s.eval();
  EXPECT_EQ(s.output_value("p").value(), 5.0);
  EXPECT_EQ(s.output_value("m").value(), 4.5);
}

TEST(PortTables, PinDrivenOnLiveSchedulerReachesCompiledAndJit) {
  sfg::Clk clk;
  sched::CycleScheduler sched{clk};
  sched::UntimedComponent twice(
      "twice", [](const std::vector<fixpt::Fixed>& in, std::vector<fixpt::Fixed>& out) {
        out.emplace_back(in[0].value() * 2.0);
      });
  twice.bind_input(sched.net("pin"));
  twice.bind_output(sched.net("y"));
  sched.add(twice);

  jit::JitOptions jo;
  jo.cache_dir = ::testing::TempDir() + "/asicpp_port_tables_store";
  sim::CompiledSystem cs = sim::CompiledSystem::compile(sched);
  sim::CompiledSystem js = jit::compile(sched, {}, jo);
  ASSERT_TRUE(js.native());
  const auto step = [&] {
    cs.cycle();
    js.cycle();
  };
  step();
  EXPECT_EQ(twice.firings(), 0u);  // no drive, no token
  sched.net("pin").drive(fixpt::Fixed(1.5));
  step();
  EXPECT_EQ(twice.firings(), 2u);
  EXPECT_EQ(cs.net_value("y"), 3.0);
  EXPECT_EQ(js.net_value("y"), 3.0);
  sched.net("pin").drive(fixpt::Fixed(-2.0));
  step();
  EXPECT_EQ(cs.net_value("y"), -4.0);
  EXPECT_EQ(js.net_value("y"), -4.0);
  sched.net("pin").release();
  step();
  step();
  EXPECT_EQ(twice.firings(), 4u);
}

TEST(PortTables, UnknownProbeNameIsRefusedOnEveryEngine) {
  for (const char* name : {"iterative", "levelized", "compiled", "jit"}) {
    SCOPED_TRACE(name);
    LateBinding sys;
    engine::TraceOptions opts;
    opts.store_dir = ::testing::TempDir() + "/asicpp_port_tables_store";
    const auto inst = engine::Registry::global().at(name).bind(sys.sched, opts);
    inst->cycle();
    EXPECT_TRUE(inst->has_net("y"));
    EXPECT_FALSE(inst->has_net("no_such_net"));
    EXPECT_THROW(inst->probe("no_such_net"), std::out_of_range);
    EXPECT_EQ(sys.sched.find_net("no_such_net"), nullptr);
  }
}

}  // namespace
}  // namespace asicpp
