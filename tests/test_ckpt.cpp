// Checkpoint/restore snapshots: format, engine round-trips, CKPT-001..004
// degradation, the VERIFY-006 differential axis, the shrink wall-clock
// budget, and the crash-isolated / resumable fuzz CLI.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "df/dynsched.h"
#include "df/process.h"
#include "df/queue.h"
#include "diag/diag.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sfg/clk.h"
#include "sfg/sfg.h"
#include "sim/compiled.h"
#include "sim/recorder.h"
#include "verify/diffrun.h"
#include "verify/gen.h"
#include "verify/shrink.h"

namespace asicpp {
namespace {

using namespace asicpp::verify;
using fixpt::Fixed;

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

std::string scratch_path(const std::string& leaf) {
  const char* t = std::getenv("TMPDIR");
  return std::string(t != nullptr ? t : "/tmp") + "/" + leaf;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Probe row of every component output net, in probe order.
std::vector<double> probe_row(System& sys, const std::vector<std::string>& probes) {
  std::vector<double> row;
  row.reserve(probes.size());
  for (const std::string& n : probes)
    row.push_back(sys.scheduler().net(n).last().value());
  return row;
}

/// Straight-through interpreted trace of `spec`.
std::vector<std::vector<double>> straight_trace(const Spec& spec) {
  System sys(spec);
  const auto probes = spec.probes();
  std::vector<std::vector<double>> t;
  for (std::uint64_t c = 0; c < spec.cycles; ++c) {
    sys.scheduler().cycle();
    t.push_back(probe_row(sys, probes));
  }
  return t;
}

// --- format primitives -----------------------------------------------------

TEST(CkptFormat, HasherIsDeterministicAndOrderSensitive) {
  ckpt::Hasher a, b;
  a.str("net").u32(7).f64(-1.5);
  b.str("net").u32(7).f64(-1.5);
  EXPECT_EQ(a.digest(), b.digest());
  ckpt::Hasher c;
  c.u32(7).str("net").f64(-1.5);
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_NE(ckpt::hash_string("abc"), ckpt::hash_string("abd"));
}

TEST(CkptFormat, WriterReaderRoundTripsScalars) {
  std::stringstream ss;
  {
    ckpt::Writer w(ss);
    w.header(ckpt::EngineKind::kCycleScheduler, 42u, 9u);
    w.u8(7);
    w.u32(1u << 30);
    w.u64(~std::uint64_t{0});
    w.i32(-5);
    w.f64(-0.8125);
    w.str("hello\nworld");
    w.end();
  }
  ckpt::Reader r(ss, "test");
  EXPECT_EQ(r.header(ckpt::EngineKind::kCycleScheduler, 42u), 9u);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 1u << 30);
  EXPECT_EQ(r.u64(), ~std::uint64_t{0});
  EXPECT_EQ(r.i32(), -5);
  EXPECT_DOUBLE_EQ(r.f64(), -0.8125);
  EXPECT_EQ(r.str(), "hello\nworld");
  r.end();  // must not throw
}

// --- CycleScheduler --------------------------------------------------------

TEST(CycleSchedulerCkpt, RoundTripResumesBitIdentical) {
  const Spec spec = generate(GenConfig{}, 0);
  const auto probes = spec.probes();
  const auto reference = straight_trace(spec);
  const std::uint64_t k = spec.cycles / 2;

  System a(spec);
  for (std::uint64_t c = 0; c < k; ++c) a.scheduler().cycle();
  std::stringstream snap;
  a.scheduler().save_state(snap);

  System b(spec);
  b.scheduler().restore_state(snap);
  for (std::uint64_t c = k; c < spec.cycles; ++c) {
    b.scheduler().cycle();
    const auto row = probe_row(b, probes);
    for (std::size_t i = 0; i < probes.size(); ++i)
      EXPECT_EQ(row[i], reference[c][i])
          << "cycle " << c << " net " << probes[i];
  }
}

TEST(CycleSchedulerCkpt, SnapshotFromOtherSpecIsCkpt003) {
  System a(generate(GenConfig{}, 0));
  a.scheduler().cycle();
  std::stringstream snap;
  a.scheduler().save_state(snap);
  System b(generate(GenConfig{}, 1));
  try {
    b.scheduler().restore_state(snap);
    FAIL() << "hash mismatch accepted";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_EQ(e.code(), "CKPT-003");
  }
}

TEST(CycleSchedulerCkpt, BadMagicIsCkpt001) {
  System a(generate(GenConfig{}, 0));
  std::stringstream snap;
  a.scheduler().save_state(snap);
  std::string bytes = snap.str();
  bytes[0] = 'X';
  std::istringstream bad(bytes);
  try {
    a.scheduler().restore_state(bad);
    FAIL() << "bad magic accepted";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_EQ(e.code(), "CKPT-001");
  }
}

TEST(CycleSchedulerCkpt, VersionSkewIsCkpt002) {
  System a(generate(GenConfig{}, 0));
  std::stringstream snap;
  a.scheduler().save_state(snap);
  std::string bytes = snap.str();
  bytes[4] = '\x7f';  // format-version field follows the 4-byte magic
  std::istringstream bad(bytes);
  try {
    a.scheduler().restore_state(bad);
    FAIL() << "version skew accepted";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_EQ(e.code(), "CKPT-002");
  }
}

TEST(CycleSchedulerCkpt, TruncatedStreamIsCkpt004AndEngineIsUntouched) {
  const Spec spec = generate(GenConfig{}, 0);
  const auto probes = spec.probes();
  const auto reference = straight_trace(spec);

  System a(spec);
  for (int c = 0; c < 5; ++c) a.scheduler().cycle();
  std::stringstream snap;
  a.scheduler().save_state(snap);
  const std::string bytes = snap.str();

  // A victim engine mid-run at a *different* cycle than the snapshot: the
  // failed restore must leave it exactly where it was.
  System b(spec);
  for (int c = 0; c < 2; ++c) b.scheduler().cycle();
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  try {
    b.scheduler().restore_state(truncated);
    FAIL() << "truncated stream accepted";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_EQ(e.code(), "CKPT-004");
  }
  for (std::uint64_t c = 2; c < spec.cycles; ++c) {
    b.scheduler().cycle();
    const auto row = probe_row(b, probes);
    for (std::size_t i = 0; i < probes.size(); ++i)
      EXPECT_EQ(row[i], reference[c][i])
          << "engine perturbed by failed restore at cycle " << c;
  }
}

TEST(CycleSchedulerCkpt, RunOptionsCheckpointCadence) {
  System sys(generate(GenConfig{}, 2));
  std::vector<std::uint64_t> at;
  RunOptions opts;
  opts.cycles = 12;
  opts.checkpoint_every = 4;
  opts.on_checkpoint = [&](std::uint64_t cycle) { at.push_back(cycle); };
  const RunResult r = sys.scheduler().run(opts);
  EXPECT_EQ(r.checkpoints, 3u);
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], 4u);
  EXPECT_EQ(at[1], 8u);
  EXPECT_EQ(at[2], 12u);
}

// --- untimed closure state -------------------------------------------------

const fixpt::Format kStoreFmt{16, 7, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};

/// A counter whose value an untimed closure writes into a store it keeps,
/// returning what the addressed word held. The store round-trips through
/// the closure's snapshot hooks.
struct ClosureStore {
  sfg::Clk clk;
  sfg::Reg count{"count", clk, kStoreFmt, 0.0};
  sfg::Sfg s{"s"};
  sched::SfgComponent ctr{"ctr", s};
  std::vector<double> store;
  sched::UntimedComponent mem;
  sched::CycleScheduler sched{clk};

  explicit ClosureStore(std::size_t words)
      : store(words, 0.0),
        mem("mem", [this](const std::vector<Fixed>& in, std::vector<Fixed>& out) {
          const auto a = static_cast<std::size_t>(in[0].value()) % store.size();
          out.emplace_back(store[a]);
          store[a] = in[0].value() + 0.5;
        }) {
    s.out("a", count.sig()).assign(count, (count + 1.0).cast(kStoreFmt));
    ctr.bind_output("a", sched.net("a"));
    mem.bind_input(sched.net("a"));
    mem.bind_output(sched.net("d"));
    mem.set_state_hooks(
        [this](ckpt::Writer& w) {
          w.u32(static_cast<std::uint32_t>(store.size()));
          for (const double v : store) w.f64(v);
        },
        [this](ckpt::Reader& r) {
          std::vector<double> words(r.count(1u << 16, store.size(), "word(s), this store has"));
          for (double& v : words) v = r.f64();
          store = std::move(words);
        });
    sched.add(ctr);
    sched.add(mem);
  }
};

template <class Engine>
std::string snapshot_of(const Engine& e) {
  std::stringstream os;
  e.save_state(os);
  return os.str();
}

TEST(CkptClosure, CorruptOrShortRecordIsCkpt004AndLeavesInstanceUntouched) {
  for (const bool compiled : {false, true}) {
    SCOPED_TRACE(compiled ? "compiled" : "interpreted");
    ClosureStore a(4);
    sim::CompiledSystem ca = sim::CompiledSystem::compile(a.sched);
    for (int c = 0; c < 6; ++c) compiled ? ca.cycle() : void(a.sched.cycle());
    const std::string bytes = compiled ? snapshot_of(ca) : snapshot_of(a.sched);

    // Into the same structure with a store of another size (the record
    // does not fit), and with the record cut short.
    const std::pair<std::size_t, std::string> cases[] = {
        {8, bytes}, {4, bytes.substr(0, bytes.size() - 24)}};
    for (const auto& [words, bad] : cases) {
      SCOPED_TRACE(std::to_string(words) + " words");
      ClosureStore b(words);
      sim::CompiledSystem cb = sim::CompiledSystem::compile(b.sched);
      for (int c = 0; c < 2; ++c) compiled ? cb.cycle() : void(b.sched.cycle());
      const std::vector<double> store = b.store;
      const std::string before = compiled ? snapshot_of(cb) : snapshot_of(b.sched);
      std::istringstream is(bad);
      try {
        compiled ? cb.restore_state(is) : b.sched.restore_state(is);
        FAIL() << "bad closure record accepted";
      } catch (const ckpt::SnapshotError& e) {
        EXPECT_EQ(e.code(), "CKPT-004");
      }
      EXPECT_EQ(b.store, store);
      EXPECT_EQ(compiled ? snapshot_of(cb) : snapshot_of(b.sched), before);
    }
  }
}

// --- CompiledSystem --------------------------------------------------------

TEST(CompiledSystemCkpt, RoundTripResumesBitIdentical) {
  GenConfig cfg;
  cfg.allow_adapter = false;  // adapters have no compiled image
  const Spec spec = generate(cfg, 3);
  const auto probes = spec.probes();
  const std::uint64_t k = spec.cycles / 3 + 1;

  System sa(spec);
  sim::CompiledSystem a = sim::CompiledSystem::compile(sa.scheduler(), {});
  std::vector<std::vector<double>> reference;
  for (std::uint64_t c = 0; c < spec.cycles; ++c) {
    a.cycle();
    std::vector<double> row;
    for (const std::string& n : probes) row.push_back(a.net_value(n));
    reference.push_back(std::move(row));
  }

  System sb(spec);
  sim::CompiledSystem b = sim::CompiledSystem::compile(sb.scheduler(), {});
  for (std::uint64_t c = 0; c < k; ++c) b.cycle();
  std::stringstream snap;
  b.save_state(snap);

  System sc(spec);
  sim::CompiledSystem c2 = sim::CompiledSystem::compile(sc.scheduler(), {});
  c2.restore_state(snap);
  for (std::uint64_t c = k; c < spec.cycles; ++c) {
    c2.cycle();
    for (std::size_t i = 0; i < probes.size(); ++i)
      EXPECT_EQ(c2.net_value(probes[i]), reference[c][i])
          << "cycle " << c << " net " << probes[i];
  }
}

TEST(CompiledSystemCkpt, OptimizedAndRawTapesRejectEachOthersSnapshots) {
  GenConfig cfg;
  cfg.allow_adapter = false;
  const Spec spec = generate(cfg, 0);
  System sa(spec);
  sim::CompiledSystem a =
      sim::CompiledSystem::compile(sa.scheduler(), opt::PassOptions{});
  System sb(spec);
  sim::CompiledSystem b =
      sim::CompiledSystem::compile(sb.scheduler(), opt::PassOptions::raw());
  ASSERT_NE(a.state_hash(), b.state_hash())
      << "optimizer did not change the tape; pick another seed";
  a.cycle();
  std::stringstream snap;
  a.save_state(snap);
  try {
    b.restore_state(snap);
    FAIL() << "raw tape accepted an optimized-tape snapshot";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_EQ(e.code(), "CKPT-003");
  }
}

// --- DynamicScheduler ------------------------------------------------------

/// Two-stage pipeline: stage1 adds one, stage2 triples. Queues and
/// processes are owned by the fixture so a second identical instance can
/// be built for restore.
struct Pipeline {
  df::Queue src{"src"}, mid{"mid"}, sink{"sink"};
  df::FnProcess stage1{"stage1",
                       [](const std::vector<df::Token>& i,
                          std::vector<df::Token>& o) {
                         o.push_back(i[0] + Fixed(1.0));
                       }};
  df::FnProcess stage2{"stage2",
                       [](const std::vector<df::Token>& i,
                          std::vector<df::Token>& o) {
                         o.push_back(i[0] * Fixed(3.0));
                       }};
  df::DynamicScheduler sched;

  Pipeline() {
    stage1.connect_in(src);
    stage1.connect_out(mid);
    stage2.connect_in(mid);
    stage2.connect_out(sink);
    sched.add(stage1);
    sched.add(stage2);
    sched.watch(src);
    sched.watch(sink);
  }
};

TEST(DataflowCkpt, RoundTripPreservesQueuesAndFirings) {
  Pipeline a;
  for (int i = 0; i < 5; ++i) a.src.push(Fixed(static_cast<double>(i)));
  RunOptions part;
  part.firings = 4;  // stop mid-stream with tokens in flight
  a.sched.run(part);
  ASSERT_EQ(a.sched.last_result().firings, 4u);

  std::stringstream snap;
  a.sched.save_state(snap);

  Pipeline b;
  b.sched.restore_state(snap);
  EXPECT_EQ(b.src.size(), a.src.size());
  EXPECT_EQ(b.mid.size(), a.mid.size());
  EXPECT_EQ(b.sink.size(), a.sink.size());
  EXPECT_EQ(b.stage1.firings(), a.stage1.firings());
  EXPECT_EQ(b.stage2.firings(), a.stage2.firings());

  // Both halves must finish identically from here.
  a.sched.run(RunOptions{});
  b.sched.run(RunOptions{});
  ASSERT_EQ(b.sink.size(), a.sink.size());
  ASSERT_EQ(a.sink.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(b.sink.peek(i).raw(), a.sink.peek(i).raw()) << "token " << i;
}

TEST(DataflowCkpt, WrongEngineKindIsCkpt001) {
  System cyc(generate(GenConfig{}, 0));
  std::stringstream snap;
  cyc.scheduler().save_state(snap);
  Pipeline p;
  try {
    p.sched.restore_state(snap);
    FAIL() << "cycle-scheduler snapshot accepted by the dataflow engine";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_EQ(e.code(), "CKPT-001");
  }
}

// --- Recorder --------------------------------------------------------------

TEST(RecorderCkpt, RoundTripRestoresRecordingPosition) {
  const Spec spec = generate(GenConfig{}, 1);
  const auto probes = spec.probes();

  System ref(spec);
  sim::Recorder ref_rec(ref.scheduler());
  for (const std::string& n : probes) ref_rec.watch(n);
  for (std::uint64_t c = 0; c < spec.cycles; ++c) ref.scheduler().cycle();

  const std::uint64_t k = spec.cycles / 2;
  System a(spec);
  sim::Recorder arec(a.scheduler());
  for (const std::string& n : probes) arec.watch(n);
  for (std::uint64_t c = 0; c < k; ++c) a.scheduler().cycle();
  std::stringstream sched_snap, rec_snap;
  a.scheduler().save_state(sched_snap);
  arec.save_state(rec_snap);

  System b(spec);
  sim::Recorder brec(b.scheduler());
  for (const std::string& n : probes) brec.watch(n);
  b.scheduler().restore_state(sched_snap);
  brec.restore_state(rec_snap);
  EXPECT_EQ(brec.cycles_recorded(), k);
  for (std::uint64_t c = k; c < spec.cycles; ++c) b.scheduler().cycle();

  ASSERT_EQ(brec.traces().size(), ref_rec.traces().size());
  for (std::size_t t = 0; t < brec.traces().size(); ++t) {
    const auto& got = brec.traces()[t];
    const auto& want = ref_rec.traces()[t];
    ASSERT_EQ(got.values.size(), want.values.size()) << got.net;
    for (std::size_t i = 0; i < got.values.size(); ++i) {
      EXPECT_EQ(got.values[i], want.values[i]) << got.net << " cycle " << i;
      EXPECT_EQ(got.valid[i], want.valid[i]) << got.net << " cycle " << i;
    }
  }
}

TEST(RecorderCkpt, WatchedNetMismatchIsCkpt003) {
  const Spec spec = generate(GenConfig{}, 1);
  System a(spec);
  sim::Recorder arec(a.scheduler());
  arec.watch(spec.probes().front());
  std::stringstream snap;
  arec.save_state(snap);
  System b(spec);
  sim::Recorder brec(b.scheduler());
  brec.watch(spec.probes().back());
  try {
    brec.restore_state(snap);
    FAIL() << "mismatched watch list accepted";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_EQ(e.code(), "CKPT-003");
  }
}

// --- VERIFY-006 differential axis ------------------------------------------

TEST(Verify006, CkptCycleOptionIsHonored) {
  const Spec spec = generate(GenConfig{}, 0);
  DiffOptions opts;
  opts.engines = {"iterative", "levelized"};
  opts.pass_axis = false;
  opts.ckpt_cycle = 3;
  const DiffResult r = diff_run(spec, opts);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.ckpt_cycle, 3u);
  EXPECT_EQ(r.ckpt_traces.size(), 2u);
  for (const EngineTrace& t : r.ckpt_traces) EXPECT_TRUE(t.ran);
}

TEST(Verify006, AxisCanBeDisabled) {
  const Spec spec = generate(GenConfig{}, 0);
  DiffOptions opts;
  opts.engines = {"iterative"};
  opts.pass_axis = false;
  opts.ckpt_axis = false;
  const DiffResult r = diff_run(spec, opts);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.ckpt_traces.empty());
  EXPECT_EQ(r.ckpt_cycle, 0u);
}

TEST(Verify006, SnapshotRestoreBitIdenticalAcross200FuzzSeeds) {
  const GenConfig cfg;
  std::vector<Spec> specs;
  for (unsigned seed = 0; seed < 200; ++seed) specs.push_back(generate(cfg, seed));
  diag::DiagEngine de;
  DiffOptions opts;
  opts.engines = {"iterative", "levelized", "compiled"};
  opts.pass_axis = false;  // isolate the checkpoint axis
  opts.diagnostics = &de;
  const auto results = diff_run_batch(specs, opts, /*jobs=*/0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ckpt_divergences.empty())
        << "seed " << i << "\n" << results[i].summary();
    EXPECT_TRUE(results[i].ok()) << "seed " << i << "\n" << results[i].summary();
  }
  EXPECT_FALSE(de.has("VERIFY-006")) << de.str();
}

// --- shrink wall-clock budget ----------------------------------------------

TEST(ShrinkBudget, TinyBudgetReturnsBestSoFarAndFlags) {
  const Spec s = generate(GenConfig{}, 0);
  DiffOptions opts;
  opts.engines = {"iterative", "levelized"};
  opts.mutant.enabled = true;
  opts.mutant.engine = "levelized";
  opts.mutant.cycle = 5;
  opts.mutant.net = s.probes().front();
  opts.mutant.delta = 0.25;
  ShrinkOptions sopts;
  sopts.wall_clock_s = 1e-9;  // expires before the first candidate
  const ShrinkResult sr = shrink(s, opts, sopts);
  EXPECT_TRUE(sr.wall_expired);
  EXPECT_EQ(sr.reductions, 0);
  EXPECT_EQ(to_text(sr.minimal), to_text(s));
  EXPECT_FALSE(sr.final_diff.ok());
}

TEST(ShrinkBudget, GenerousBudgetDoesNotExpire) {
  const Spec s = generate(GenConfig{}, 0);
  DiffOptions opts;
  opts.engines = {"iterative", "levelized"};
  opts.mutant.enabled = true;
  opts.mutant.engine = "levelized";
  opts.mutant.cycle = 5;
  opts.mutant.net = s.probes().front();
  opts.mutant.delta = 0.25;
  ShrinkOptions sopts;
  sopts.wall_clock_s = 3600.0;
  const ShrinkResult sr = shrink(s, opts, sopts);
  EXPECT_FALSE(sr.wall_expired);
  EXPECT_GT(sr.reductions, 0);
}

// --- CLI: strict argument validation ---------------------------------------

TEST(FuzzCliArgs, RejectsBadSeeds) {
  for (const char* bad : {"x", "0", "-3", "3x", ""}) {
    std::string out;
    const int rc = run_cmd(std::string(ASICPP_FUZZ_BIN) + " --seeds '" + bad +
                               "'",
                           &out);
    EXPECT_EQ(rc, 2) << "--seeds " << bad << "\n" << out;
    EXPECT_NE(out.find("usage:"), std::string::npos) << out;
  }
}

TEST(FuzzCliArgs, RejectsBadJobs) {
  for (const char* bad : {"x", "0", "-1", "2.5"}) {
    std::string out;
    const int rc = run_cmd(std::string(ASICPP_FUZZ_BIN) + " --jobs '" +
                               bad + "'",
                           &out);
    EXPECT_EQ(rc, 2) << "--jobs " << bad << "\n" << out;
    EXPECT_NE(out.find("usage:"), std::string::npos) << out;
  }
}

TEST(FuzzCliArgs, RejectsUnknownFlag) {
  std::string out;
  EXPECT_EQ(run_cmd(std::string(ASICPP_FUZZ_BIN) + " --frobnicate", &out), 2);
  EXPECT_NE(out.find("unknown option"), std::string::npos) << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST(FuzzCliArgs, ResumeRequiresJournal) {
  std::string out;
  EXPECT_EQ(run_cmd(std::string(ASICPP_FUZZ_BIN) + " --resume", &out), 2);
  EXPECT_NE(out.find("--resume requires --journal"), std::string::npos) << out;
}

// --- CLI: crash isolation --------------------------------------------------

TEST(FuzzCliIsolate, CrashBecomesStructuredArtifact) {
  const std::string dir = scratch_path("asicpp_ckpt_crash_corpus");
  std::string out;
  const int rc = run_cmd(std::string(ASICPP_FUZZ_BIN) +
                             " --seeds 3 --engines iterative,levelized" +
                             " --isolate --crash-at 1 --corpus-dir " + dir,
                         &out);
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("CRASH"), std::string::npos) << out;
  EXPECT_NE(out.find("2/3 seeds clean"), std::string::npos) << out;
  const std::string art = slurp(dir + "/seed1_crash.txt");
  EXPECT_NE(art.find("seed: 1"), std::string::npos) << art;
  EXPECT_NE(art.find("engines: iterative,levelized"), std::string::npos) << art;
  EXPECT_NE(art.find("signal"), std::string::npos) << art;
}

TEST(FuzzCliIsolate, HangBecomesTimeout) {
  std::string out;
  const int rc = run_cmd(std::string(ASICPP_FUZZ_BIN) +
                             " --seeds 1 --engines iterative --isolate" +
                             " --hang-at 0 --timeout 1",
                         &out);
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("TIMEOUT"), std::string::npos) << out;
  EXPECT_NE(out.find("0/1 seeds clean"), std::string::npos) << out;
}

// --- CLI: journal + resume -------------------------------------------------

TEST(FuzzCliResume, TruncatedJournalResumesToByteIdenticalReport) {
  const std::string journal = scratch_path("asicpp_ckpt_resume.journal");
  const std::string json1 = scratch_path("asicpp_ckpt_resume1.json");
  const std::string json2 = scratch_path("asicpp_ckpt_resume2.json");
  const std::string base = std::string(ASICPP_FUZZ_BIN) +
                           " --seeds 5 --engines iterative,levelized";
  std::string out1;
  ASSERT_EQ(run_cmd(base + " --journal " + journal + " --json " + json1, &out1),
            0)
      << out1;

  // Simulate a campaign killed after two seeds: keep the header and the
  // first two records, then append a torn (unterminated) partial line.
  {
    std::ifstream is(journal);
    std::string line, kept;
    for (int i = 0; i < 3 && std::getline(is, line); ++i) kept += line + "\n";
    std::ofstream os(journal);
    os << kept << "seed\t4\t<torn mid-write";  // no newline
  }

  std::string out2;
  ASSERT_EQ(run_cmd(base + " --journal " + journal + " --resume --json " +
                        json2,
                    &out2),
            0)
      << out2;
  EXPECT_NE(out2.find("resuming, 2 seed(s) restored"), std::string::npos)
      << out2;
  EXPECT_EQ(slurp(json1), slurp(json2));
  std::remove(journal.c_str());
  std::remove(json1.c_str());
  std::remove(json2.c_str());
}

TEST(FuzzCliResume, ConfigMismatchIsRefused) {
  const std::string journal = scratch_path("asicpp_ckpt_mismatch.journal");
  std::string out;
  ASSERT_EQ(run_cmd(std::string(ASICPP_FUZZ_BIN) +
                        " --seeds 2 --engines iterative,levelized --journal " +
                        journal,
                    &out),
            0)
      << out;
  const int rc = run_cmd(std::string(ASICPP_FUZZ_BIN) +
                             " --seeds 2 --engines iterative --journal " +
                             journal + " --resume",
                         &out);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("different configuration"), std::string::npos) << out;
  std::remove(journal.c_str());
}

TEST(FuzzCliResume, StoreRevisionMismatchIsRefusedByName) {
  const std::string journal = scratch_path("asicpp_ckpt_storerev.journal");
  std::string out;
  ASSERT_EQ(run_cmd(std::string(ASICPP_FUZZ_BIN) +
                        " --seeds 2 --engines iterative,levelized --journal " +
                        journal,
                    &out),
            0)
      << out;
  // Rewrite the header's store-revision field: the journal now claims it
  // was written against a different artifact-store layout.
  {
    std::ifstream is(journal);
    std::vector<std::string> lines;
    std::string l;
    while (std::getline(is, l)) lines.push_back(l);
    ASSERT_FALSE(lines.empty());
    const std::string::size_type pos = lines[0].find("\tstore");
    ASSERT_NE(pos, std::string::npos) << lines[0];
    const std::string::size_type end = lines[0].find('\t', pos + 1);
    ASSERT_NE(end, std::string::npos) << lines[0];
    lines[0].replace(pos, end - pos, "\tstore99999");
    std::ofstream os(journal);
    for (const std::string& ln : lines) os << ln << "\n";
  }
  const int rc = run_cmd(std::string(ASICPP_FUZZ_BIN) +
                             " --seeds 2 --engines iterative,levelized" +
                             " --journal " + journal + " --resume",
                         &out);
  EXPECT_EQ(rc, 2) << out;
  // The refusal names the revisions, not just "different configuration".
  EXPECT_NE(out.find("artifact-store revision"), std::string::npos) << out;
  EXPECT_NE(out.find("store99999"), std::string::npos) << out;
  EXPECT_NE(out.find("refusing to resume"), std::string::npos) << out;
  std::remove(journal.c_str());
}

TEST(FuzzCliShrinkBudget, ExpiredBudgetStillEmitsRepro) {
  const Spec s = generate(GenConfig{}, 0);
  const std::string net = s.probes().front();
  const std::string dir = scratch_path("asicpp_ckpt_budget_corpus");
  std::string out;
  const int rc = run_cmd(std::string(ASICPP_FUZZ_BIN) +
                             " --seeds 1 --engines iterative,levelized" +
                             " --mutant levelized:5:" + net + ":0.25" +
                             " --shrink-budget 0.000001 --corpus-dir " + dir,
                         &out);
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("wall-clock budget"), std::string::npos) << out;
  EXPECT_NE(out.find("repro written"), std::string::npos) << out;
}

}  // namespace
}  // namespace asicpp
