// Batched SoA multi-instance simulation: the lane-determinism contract
// (lane count and position never change a trace), per-lane divergence via
// pokes, per-lane checkpoint round-trips with CKPT-005 lane binding, the
// 200-seed batched-vs-serial sweep, and the batched differential-fuzz axis.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "batch/batch.h"
#include "ckpt/snapshot.h"
#include "diag/diag.h"
#include "engine/engine.h"
#include "fsm/fsm.h"
#include "jit/jit.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sim/compiled.h"
#include "verify/diffrun.h"
#include "verify/gen.h"

namespace asicpp {
namespace {

using namespace asicpp::verify;
using batch::BatchedSystem;
using fixpt::Fixed;
using fixpt::Format;
using sched::CycleScheduler;
using sched::SfgComponent;
using sfg::Clk;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;

const Format kFmt{24, 15, true, fixpt::Quant::kRound,
                  fixpt::Overflow::kSaturate};

int run_cmd(const std::string& cmd, std::string* out = nullptr) {
  FILE* p = popen((cmd + " 2>&1").c_str(), "r");
  if (p == nullptr) return -1;
  char buf[512];
  std::string text;
  while (std::fgets(buf, sizeof buf, p) != nullptr) text += buf;
  if (out != nullptr) *out = text;
  const int st = pclose(p);
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

/// First generated spec at or after `seed` inside the batched engine's
/// domain (dataflow adapters have no compiled-simulation image).
Spec batch_spec(unsigned seed) {
  for (;; ++seed) {
    Spec s = generate(GenConfig{}, seed);
    if (!s.has(CompKind::kAdapter)) return s;
  }
}

/// A one-component accumulator with an unbound `gain` input — the minimal
/// system where per-lane pokes make lanes diverge.
struct GainAcc {
  Clk clk;
  Sig gain = Sig::input("gain", kFmt);  // never bound to a net
  Reg r{"r", clk, kFmt, 1.0};
  Sfg s{"s"};
  SfgComponent c{"c", s};
  CycleScheduler sched{clk};

  GainAcc() {
    s.in(gain).assign(r, (r * gain).cast(kFmt)).out("o", r.sig());
    c.bind_output("o", sched.net("o"));
    sched.add(c);
    s.set_input("gain", Fixed(2.0));
  }
};

// --- lane determinism ------------------------------------------------------

TEST(Batched, EveryLaneMatchesSoloCompiledRun) {
  GainAcc ref;
  sim::CompiledSystem cs = sim::CompiledSystem::compile(ref.sched);
  GainAcc sys;
  BatchedSystem bs = BatchedSystem::compile(sys.sched, 4);
  ASSERT_EQ(bs.lanes(), 4u);
  for (int c = 0; c < 16; ++c) {
    cs.cycle();
    bs.cycle();
    for (unsigned l = 0; l < 4; ++l) {
      ASSERT_EQ(cs.net_value("o"), bs.net_value(l, "o")) << "lane " << l;
      ASSERT_EQ(cs.reg_value("r"), bs.reg_value(l, "r")) << "lane " << l;
    }
  }
}

TEST(Batched, TraceInvariantAcrossLaneCounts) {
  const Spec spec = batch_spec(1);
  const engine::Engine& e = engine::Registry::global().at("batched");
  engine::TraceOptions base;
  engine::Trace ref;
  for (const unsigned lanes : {1u, 2u, 4u, 8u}) {
    engine::TraceOptions opts = base;
    opts.lanes = lanes;
    engine::Trace t = e.trace(spec, opts);
    ASSERT_TRUE(t.ran) << t.skip_reason << t.fail_reason;
    ASSERT_TRUE(t.fail_reason.empty()) << t.fail_reason;
    if (ref.values.empty())
      ref = t;
    else
      EXPECT_EQ(ref.values, t.values) << "lanes=" << lanes;
  }
  // ... and the lane-invariant trace is the compiled engine's trace.
  const engine::Trace ct =
      engine::Registry::global().at("compiled").trace(spec, base);
  ASSERT_TRUE(ct.ran);
  EXPECT_EQ(ref.values, ct.values);
}

TEST(Batched, Sweep200SeedsBatchedVsSerial) {
  std::vector<Spec> specs;
  for (unsigned seed = 0; seed < 200; ++seed)
    specs.push_back(generate(GenConfig{}, seed));

  DiffOptions opts;
  opts.engines = {"compiled", "batched"};
  opts.lanes = 8;
  opts.pass_axis = false;
  opts.ckpt_axis = false;
  diag::DiagEngine de;
  opts.diagnostics = &de;
  const auto results = diff_run_batch(specs, opts, 0);

  int ran = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << "seed " << i << "\n"
                                 << results[i].summary();
    ran += results[i].engines_ran();
  }
  EXPECT_GT(ran, 250);  // adapter specs are outside both engines' domain
}

TEST(Batched, PerLanePokesDivergeExactlyLikeSoloRuns) {
  GainAcc sys;
  BatchedSystem bs = BatchedSystem::compile(sys.sched, 4);
  bs.poke(2, "gain", 3.0);  // lane 2 diverges; lanes 0,1,3 keep gain=2
  for (int c = 0; c < 6; ++c) bs.cycle();

  GainAcc a;
  sim::CompiledSystem ca = sim::CompiledSystem::compile(a.sched);
  for (int c = 0; c < 6; ++c) ca.cycle();
  GainAcc b;
  sim::CompiledSystem cb = sim::CompiledSystem::compile(b.sched);
  cb.poke("gain", 3.0);
  for (int c = 0; c < 6; ++c) cb.cycle();

  for (const unsigned l : {0u, 1u, 3u})
    EXPECT_EQ(ca.reg_value("r"), bs.reg_value(l, "r")) << "lane " << l;
  EXPECT_EQ(cb.reg_value("r"), bs.reg_value(2, "r"));
  EXPECT_NE(bs.reg_value(0, "r"), bs.reg_value(2, "r"));
}

TEST(Batched, ZeroLanesRejected) {
  GainAcc sys;
  EXPECT_THROW(BatchedSystem::compile(sys.sched, 0), std::invalid_argument);
}

TEST(Batched, DeadlockRaisesSched001) {
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
  BatchedSystem bs = BatchedSystem::compile(sched, 4);
  EXPECT_THROW(bs.cycle(), sched::DeadlockError);
}

// --- unified run() surface -------------------------------------------------

TEST(Batched, RunHonorsWatchdogAndCheckpointCadence) {
  GainAcc sys;
  BatchedSystem bs = BatchedSystem::compile(sys.sched, 4);
  diag::DiagEngine de;
  std::uint64_t ckpts = 0;
  RunOptions ro;
  ro.cycles = 40;
  ro.cycle_budget = 25;
  ro.checkpoint_every = 10;
  ro.on_checkpoint = [&](std::uint64_t) { ++ckpts; };
  ro.diagnostics = &de;
  const RunResult r = bs.run(ro);
  EXPECT_EQ(r.stop, StopReason::kCycleBudget);
  EXPECT_EQ(r.cycles, 25u);
  EXPECT_EQ(r.checkpoints, ckpts);
  bool watchdog = false;
  for (const auto& d : de.all())
    if (d.code == "WATCHDOG-001") watchdog = true;
  EXPECT_TRUE(watchdog);
  EXPECT_GT(bs.ops_retired(), 0u);
  EXPECT_GT(bs.footprint_bytes(), 0u);
}

// --- one driver: SCHED-002 and profiling -----------------------------------

/// Statically cyclic but live: `fsm` could read `back` in its (unreachable)
/// state A, so the image has no level order, yet in state B it produces
/// `fwd` in phase 1 and every cycle completes iteratively.
struct StaticCycle {
  Clk clk;
  Sig back = Sig::input("back", kFmt);
  Sig in = Sig::input("in", kFmt);
  Sfg a{"a"}, b{"b"}, s{"s"};
  fsm::Fsm f{"f"};
  sched::FsmComponent fc{"fsm", f};
  SfgComponent sc{"sfg", s};
  CycleScheduler sched{clk};

  StaticCycle() {
    a.in(back).out("o", back + 1.0);
    b.out("o", Sig(0.5) + 0.0);
    s.in(in).out("o", in * 2.0);
    fsm::State sa = f.state("A");
    fsm::State sb = f.initial("B");
    sa << fsm::always << a << sa;
    sb << fsm::always << b << sb;
    fc.bind_input(back, sched.net("back"));
    fc.bind_output("o", sched.net("fwd"));
    sc.bind_input(in, sched.net("fwd"));
    sc.bind_output("o", sched.net("back"));
    sched.add(fc);
    sched.add(sc);
  }
};

TEST(Batched, LevelizedRequestOnCyclicImageReportsSched002Once) {
  StaticCycle interp, ref, jsys, sys;
  sim::CompiledSystem cs = sim::CompiledSystem::compile(ref.sched);
  jit::JitOptions jo;
  jo.cache_dir = ::testing::TempDir() + "/batch_sched002_store";
  jit::JitSystem js = jit::JitSystem::compile(jsys.sched, {}, jo);
  EXPECT_TRUE(js.native()) << "jit fell back to the tape";
  BatchedSystem bs = BatchedSystem::compile(sys.sched, 4);
  ASSERT_FALSE(bs.levelizable());
  const auto run = [](auto& engine) {
    diag::DiagEngine de;
    const RunResult r = engine.run(
        RunOptions{}.for_cycles(5).mode(ScheduleMode::kLevelized).into(de));
    EXPECT_EQ(r.cycles, 5u);
    EXPECT_EQ(r.levelized_cycles, 0u);
    int sched002 = 0;
    for (const auto& d : de.all()) sched002 += d.code == "SCHED-002" ? 1 : 0;
    return sched002;
  };
  EXPECT_EQ(run(interp.sched), 1);
  EXPECT_EQ(run(cs), 1);
  EXPECT_EQ(run(js), 1);
  EXPECT_EQ(run(bs), 1);
  EXPECT_EQ(interp.sched.net("back").last().value(), cs.net_value("back"));
  EXPECT_EQ(js.net_value("back"), cs.net_value("back"));
  for (unsigned l = 0; l < 4; ++l)
    EXPECT_EQ(bs.net_value(l, "back"), cs.net_value("back")) << "lane " << l;
}

TEST(BatchedProfile, ListsCompiledComponentsWithLanesTimesFirings) {
  Spec spec;
  for (unsigned seed = 0;; ++seed) {
    spec = batch_spec(seed);
    if (spec.has(CompKind::kFsm) && spec.has(CompKind::kDispatch)) break;
  }
  const RunOptions ro = RunOptions{}.for_cycles(spec.cycles).profiled();
  const auto names = [](const RunResult& r) {
    std::vector<std::string> v;
    for (const auto& t : r.timing) v.push_back(t.component);
    return v;
  };

  System cs_sys(spec);
  sim::CompiledSystem cs = sim::CompiledSystem::compile(cs_sys.scheduler());
  const RunResult rc = cs.run(ro);
  ASSERT_FALSE(rc.timing.empty());
  EXPECT_EQ(rc.timing.size(), spec.comps.size());

  System jit_sys(spec);
  jit::JitOptions jo;
  jo.cache_dir = ::testing::TempDir() + "/batch_profile_store";
  jit::JitSystem js = jit::JitSystem::compile(jit_sys.scheduler(), {}, jo);
  const RunResult rj = js.run(ro);
  EXPECT_EQ(names(rj), names(rc));

  for (const unsigned lanes : {1u, 4u}) {
    System sys(spec);
    BatchedSystem bs = BatchedSystem::compile(sys.scheduler(), lanes);
    const RunResult rb = bs.run(ro);
    ASSERT_EQ(names(rb), names(rc)) << "lanes=" << lanes;
    EXPECT_EQ(rb.firings, lanes * rc.firings) << "lanes=" << lanes;
    for (std::size_t i = 0; i < rc.timing.size(); ++i)
      EXPECT_EQ(rb.timing[i].firings, lanes * rc.timing[i].firings)
          << rc.timing[i].component << " lanes=" << lanes;
  }
}

// --- per-lane checkpoint/restore -------------------------------------------

TEST(BatchedCkpt, LaneSnapshotRoundTripResumesBitIdentically) {
  const unsigned kLane = 1;
  GainAcc sa;
  BatchedSystem a = BatchedSystem::compile(sa.sched, 4);
  std::vector<double> straight;
  for (int c = 0; c < 12; ++c) {
    a.cycle();
    straight.push_back(a.net_value(kLane, "o"));
  }

  GainAcc sb;
  BatchedSystem b = BatchedSystem::compile(sb.sched, 4);
  std::vector<double> stitched;
  for (int c = 0; c < 5; ++c) {
    b.cycle();
    stitched.push_back(b.net_value(kLane, "o"));
  }
  std::stringstream snap;
  b.save_lane(kLane, snap);

  GainAcc sc;
  BatchedSystem c = BatchedSystem::compile(sc.sched, 4);
  c.restore_lane(kLane, snap);
  EXPECT_EQ(c.cycles(), 5u);
  for (int k = 0; k < 7; ++k) {
    c.cycle();
    stitched.push_back(c.net_value(kLane, "o"));
  }
  EXPECT_EQ(straight, stitched);
}

TEST(BatchedCkpt, RestoreIntoDifferentLaneRejectsWithCkpt005) {
  GainAcc sa;
  BatchedSystem a = BatchedSystem::compile(sa.sched, 4);
  for (int c = 0; c < 3; ++c) a.cycle();
  std::stringstream snap;
  a.save_lane(0, snap);

  GainAcc sb;
  BatchedSystem b = BatchedSystem::compile(sb.sched, 4);
  for (int c = 0; c < 3; ++c) b.cycle();
  const double before = b.reg_value(2, "r");
  try {
    b.restore_lane(2, snap);
    FAIL() << "expected ckpt::SnapshotError";
  } catch (const ckpt::SnapshotError& ex) {
    EXPECT_EQ(ex.code(), "CKPT-005");
    EXPECT_NE(std::string(ex.what()).find("lane binding mismatch"),
              std::string::npos)
        << ex.what();
  }
  // The failed restore must leave the target lane exactly as it was.
  EXPECT_EQ(b.reg_value(2, "r"), before);
  EXPECT_EQ(b.cycles(), 3u);
}

TEST(BatchedCkpt, CompiledSnapshotRejectedByEngineKind) {
  GainAcc sa;
  sim::CompiledSystem cs = sim::CompiledSystem::compile(sa.sched);
  cs.cycle();
  std::stringstream snap;
  cs.save_state(snap);

  GainAcc sb;
  BatchedSystem b = BatchedSystem::compile(sb.sched, 4);
  try {
    b.restore_lane(0, snap);
    FAIL() << "expected ckpt::SnapshotError";
  } catch (const ckpt::SnapshotError& ex) {
    EXPECT_EQ(ex.code(), "CKPT-001");
  }
}

TEST(BatchedCkpt, SnapshotOfDifferentDesignIsRejected) {
  GainAcc sa;
  BatchedSystem a = BatchedSystem::compile(sa.sched, 2);
  a.cycle();
  std::stringstream snap;
  a.save_lane(0, snap);

  const Spec spec = batch_spec(3);
  System other(spec);
  BatchedSystem b = BatchedSystem::compile(other.scheduler(), 2);
  EXPECT_THROW(b.restore_lane(0, snap), ckpt::SnapshotError);
}

// --- engine registry & differential axis -----------------------------------

TEST(Registry, BatchedCapabilities) {
  const engine::Engine& e = engine::Registry::global().at("batched");
  EXPECT_EQ(e.name(), "batched");
  EXPECT_TRUE(e.caps().checkpointable);
  EXPECT_TRUE(e.caps().pass_aware);
  EXPECT_FALSE(e.caps().pass_axis);
  EXPECT_FALSE(e.caps().in_process);
}

TEST(Batched, DiffRunCheckpointAxisCoversBatched) {
  DiffOptions opts;
  opts.engines = {"compiled", "batched"};
  opts.lanes = 4;
  opts.pass_axis = false;
  const DiffResult r = diff_run(batch_spec(5), opts);
  EXPECT_TRUE(r.ok()) << r.summary();
  bool batched_ckpt = false;
  for (const EngineTrace& t : r.ckpt_traces)
    if (t.engine == "batched" && t.ran) batched_ckpt = true;
  EXPECT_TRUE(batched_ckpt);
}

TEST(Batched, MutantOnBatchedAxisIsDetected) {
  const Spec spec = batch_spec(6);
  DiffOptions opts;
  opts.engines = {"compiled", "batched"};
  opts.pass_axis = false;
  opts.ckpt_axis = false;
  opts.mutant.enabled = true;
  opts.mutant.engine = "batched";
  opts.mutant.cycle = spec.cycles / 2;
  opts.mutant.net = spec.probes().front();
  opts.mutant.delta = 0.5;
  const DiffResult r = diff_run(spec, opts);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.divergences.empty());
  EXPECT_EQ(r.divergences.front().other, "batched");
}

TEST(Batched, AdapterSpecIsSkippedNotFailed) {
  for (unsigned seed = 0;; ++seed) {
    Spec s = generate(GenConfig{}, seed);
    if (!s.has(CompKind::kAdapter)) continue;
    const engine::Trace t =
        engine::Registry::global().at("batched").trace(s, {});
    EXPECT_FALSE(t.ran);
    EXPECT_FALSE(t.skip_reason.empty());
    EXPECT_TRUE(t.fail_reason.empty()) << t.fail_reason;
    return;
  }
}

// --- CLI surface -----------------------------------------------------------

TEST(BatchedCli, FuzzRunsBatchedAxisWithLanes) {
  std::string out;
  const int rc = run_cmd(
      ASICPP_FUZZ_BIN +
          std::string(
              " --seeds 3 --engines compiled,batched --lanes 8 --no-ckpt"),
      &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("3/3 seeds clean"), std::string::npos) << out;
}

TEST(BatchedCli, BadLanesValueRejected) {
  std::string out;
  const int rc = run_cmd(ASICPP_FUZZ_BIN + std::string(" --lanes 0"), &out);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("--lanes"), std::string::npos) << out;
}

}  // namespace
}  // namespace asicpp
