// In-process JIT engine: artifact cache hit/miss/corruption, JIT-001..004
// graceful degradation, snapshot round-trips bound to the IR hash, the
// engine registry, and the 200-seed jit differential axis.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "diag/diag.h"
#include "engine/engine.h"
#include "jit/jit.h"
#include "sim/compiled.h"
#include "verify/diffrun.h"
#include "verify/gen.h"

namespace asicpp {
namespace {

using namespace asicpp::verify;

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

/// Fresh per-test cache directory so hit/miss expectations are exact.
std::string fresh_cache(const std::string& leaf) {
  const char* t = std::getenv("TMPDIR");
  const std::string dir =
      std::string(t != nullptr ? t : "/tmp") + "/" + leaf + "_" +
      std::to_string(getpid());
  run_cmd("rm -rf " + dir);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

bool has_code(const diag::DiagEngine& de, const std::string& code) {
  for (const auto& d : de.all())
    if (d.code == code) return true;
  return false;
}

/// First generated spec at or after `seed` the compiled/jit engines accept.
Spec jit_spec(unsigned seed) {
  for (;; ++seed) {
    Spec s = generate(GenConfig{}, seed);
    if (!s.has(CompKind::kAdapter)) return s;
  }
}

std::vector<std::vector<double>> jit_trace(jit::JitSystem& js, const Spec& spec,
                                           std::uint64_t cycles) {
  const auto probes = spec.probes();
  std::vector<std::vector<double>> values;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    js.cycle();
    std::vector<double> row;
    for (const std::string& n : probes) row.push_back(js.net_value(n));
    values.push_back(std::move(row));
  }
  return values;
}

// --- native execution & differential equivalence ---------------------------

TEST(Jit, NativeTraceMatchesCompiledTape) {
  const std::string cache = fresh_cache("asicpp_jit_native");
  const Spec spec = jit_spec(1);
  jit::JitOptions jo;
  jo.cache_dir = cache;

  System sys(spec);
  jit::JitSystem js = jit::JitSystem::compile(sys.scheduler(), {}, jo);
  ASSERT_TRUE(js.native());
  EXPECT_FALSE(js.from_cache());
  EXPECT_GT(js.compile_seconds(), 0.0);
  EXPECT_FALSE(js.artifact_path().empty());
  const auto jt = jit_trace(js, spec, spec.cycles);

  System ref(spec);
  sim::CompiledSystem cs = sim::CompiledSystem::compile(ref.scheduler());
  const auto probes = spec.probes();
  for (std::uint64_t c = 0; c < spec.cycles; ++c) {
    cs.cycle();
    for (std::size_t i = 0; i < probes.size(); ++i)
      ASSERT_EQ(cs.net_value(probes[i]), jt[c][i])
          << "cycle " << c << " net " << probes[i];
  }
  run_cmd("rm -rf " + cache);
}

TEST(Jit, DifferentialBatch200Seeds) {
  const std::string cache = fresh_cache("asicpp_jit_batch");
  std::vector<Spec> specs;
  for (unsigned seed = 0; seed < 200; ++seed)
    specs.push_back(generate(GenConfig{}, seed));

  DiffOptions opts;
  opts.engines = {"compiled", "jit"};
  opts.store_dir = cache;
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
  // Adapter specs are outside both engines' domain; everything else must
  // have run on both (empirically 286/400 traces for these 200 seeds).
  EXPECT_GT(ran, 250);
  EXPECT_FALSE(has_code(de, "VERIFY-001"));
  EXPECT_FALSE(has_code(de, "VERIFY-002"));
  run_cmd("rm -rf " + cache);
}

// --- artifact cache --------------------------------------------------------

TEST(Jit, SecondCompileHitsArtifactCache) {
  const std::string cache = fresh_cache("asicpp_jit_cachehit");
  const Spec spec = jit_spec(2);
  jit::JitOptions jo;
  jo.cache_dir = cache;

  System a(spec);
  jit::JitSystem ja = jit::JitSystem::compile(a.scheduler(), {}, jo);
  ASSERT_TRUE(ja.native());
  EXPECT_FALSE(ja.from_cache());

  System b(spec);
  jit::JitSystem jb = jit::JitSystem::compile(b.scheduler(), {}, jo);
  ASSERT_TRUE(jb.native());
  EXPECT_TRUE(jb.from_cache());             // zero recompiles
  EXPECT_EQ(jb.compile_seconds(), 0.0);     // no compiler run at all
  EXPECT_EQ(ja.artifact_path(), jb.artifact_path());

  // Identical traces from the fresh artifact and the cached one.
  EXPECT_EQ(jit_trace(ja, spec, spec.cycles), jit_trace(jb, spec, spec.cycles));
  run_cmd("rm -rf " + cache);
}

TEST(Jit, DifferentPassPipelineMissesCache) {
  const std::string cache = fresh_cache("asicpp_jit_cachemiss");
  const Spec spec = jit_spec(3);
  jit::JitOptions jo;
  jo.cache_dir = cache;

  System a(spec);
  jit::JitSystem ja = jit::JitSystem::compile(a.scheduler(), {}, jo);
  System b(spec);
  jit::JitSystem jb =
      jit::JitSystem::compile(b.scheduler(), opt::PassOptions::raw(), jo);
  ASSERT_TRUE(ja.native());
  ASSERT_TRUE(jb.native());
  // The raw pipeline emits different IR, so it cannot reuse the optimized
  // artifact — but both must still simulate identically.
  EXPECT_FALSE(jb.from_cache());
  EXPECT_NE(ja.artifact_path(), jb.artifact_path());
  EXPECT_EQ(jit_trace(ja, spec, spec.cycles), jit_trace(jb, spec, spec.cycles));
  run_cmd("rm -rf " + cache);
}

TEST(Jit, CorruptCacheEntryIsDiscardedAndRecompiled) {
  const std::string cache = fresh_cache("asicpp_jit_corrupt");
  const Spec spec = jit_spec(4);
  jit::JitOptions jo;
  jo.cache_dir = cache;

  std::string artifact;
  std::vector<std::vector<double>> reference;
  {
    System a(spec);
    jit::JitSystem ja = jit::JitSystem::compile(a.scheduler(), {}, jo);
    ASSERT_TRUE(ja.native());
    reference = jit_trace(ja, spec, spec.cycles);
    artifact = ja.artifact_path();
  }
  // The first engine is gone (dlclose), so the object is unloaded — were it
  // still resident, dlopen of the same pathname would hand back the cached
  // mapping and never see the corruption.
  {
    std::ofstream os(artifact, std::ios::trunc);
    os << "not an ELF shared object";
  }

  diag::DiagEngine de;
  jo.diagnostics = &de;
  System b(spec);
  jit::JitSystem jb = jit::JitSystem::compile(b.scheduler(), {}, jo);
  ASSERT_TRUE(jb.native());
  EXPECT_FALSE(jb.from_cache());  // the corrupt entry did not count as a hit
  EXPECT_TRUE(has_code(de, "JIT-004"));
  EXPECT_EQ(reference, jit_trace(jb, spec, spec.cycles));
  run_cmd("rm -rf " + cache);
}

// --- graceful degradation --------------------------------------------------

TEST(Jit, MissingToolchainFallsBackToInterpretedTape) {
  const std::string cache = fresh_cache("asicpp_jit_notool");
  const Spec spec = jit_spec(5);
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.cxx = "/nonexistent/asicpp-no-such-compiler";
  diag::DiagEngine de;
  jo.diagnostics = &de;

  System sys(spec);
  jit::JitSystem js = jit::JitSystem::compile(sys.scheduler(), {}, jo);
  EXPECT_FALSE(js.native());
  EXPECT_TRUE(has_code(de, "JIT-001"));

  // The fallback interprets the tape: still bit-identical.
  const auto jt = jit_trace(js, spec, spec.cycles);
  System ref(spec);
  sim::CompiledSystem cs = sim::CompiledSystem::compile(ref.scheduler());
  const auto probes = spec.probes();
  for (std::uint64_t c = 0; c < spec.cycles; ++c) {
    cs.cycle();
    for (std::size_t i = 0; i < probes.size(); ++i)
      ASSERT_EQ(cs.net_value(probes[i]), jt[c][i]);
  }
  run_cmd("rm -rf " + cache);
}

TEST(Jit, CompileFailureFallsBack) {
  const std::string cache = fresh_cache("asicpp_jit_badcc");
  // A "compiler" that exits non-zero with a message.
  const std::string cc = cache + "/failing-cc";
  {
    std::ofstream os(cc);
    os << "#!/bin/sh\necho synthetic compile error >&2\nexit 1\n";
  }
  ::chmod(cc.c_str(), 0755);

  const Spec spec = jit_spec(6);
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.cxx = cc;
  diag::DiagEngine de;
  jo.diagnostics = &de;
  System sys(spec);
  jit::JitSystem js = jit::JitSystem::compile(sys.scheduler(), {}, jo);
  EXPECT_FALSE(js.native());
  EXPECT_TRUE(has_code(de, "JIT-002"));
  EXPECT_FALSE(jit_trace(js, spec, spec.cycles).empty());  // fallback runs
  run_cmd("rm -rf " + cache);
}

TEST(Jit, DlopenFailureFallsBack) {
  const std::string cache = fresh_cache("asicpp_jit_badso");
  // A "compiler" that reports success but produces an unloadable object.
  const std::string cc = cache + "/empty-so-cc";
  {
    std::ofstream os(cc);
    os << "#!/bin/sh\n"
          "out=\"\"\n"
          "while [ $# -gt 0 ]; do\n"
          "  if [ \"$1\" = \"-o\" ]; then out=\"$2\"; fi\n"
          "  shift\n"
          "done\n"
          ": > \"$out\"\n"
          "exit 0\n";
  }
  ::chmod(cc.c_str(), 0755);

  const Spec spec = jit_spec(7);
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.cxx = cc;
  diag::DiagEngine de;
  jo.diagnostics = &de;
  System sys(spec);
  jit::JitSystem js = jit::JitSystem::compile(sys.scheduler(), {}, jo);
  EXPECT_FALSE(js.native());
  EXPECT_TRUE(has_code(de, "JIT-003"));
  EXPECT_FALSE(jit_trace(js, spec, spec.cycles).empty());
  run_cmd("rm -rf " + cache);
}

// --- snapshots -------------------------------------------------------------

TEST(Jit, SnapshotRoundTripResumesBitIdentically) {
  const std::string cache = fresh_cache("asicpp_jit_snap");
  const Spec spec = jit_spec(8);
  ASSERT_GE(spec.cycles, 4u);
  jit::JitOptions jo;
  jo.cache_dir = cache;
  const std::uint64_t k = spec.cycles / 2;

  System sa(spec);
  jit::JitSystem a = jit::JitSystem::compile(sa.scheduler(), {}, jo);
  ASSERT_TRUE(a.native());
  const auto straight = jit_trace(a, spec, spec.cycles);

  System sb(spec);
  jit::JitSystem b = jit::JitSystem::compile(sb.scheduler(), {}, jo);
  const auto prefix = jit_trace(b, spec, k);
  std::stringstream snap;
  b.save_state(snap);

  System sc(spec);
  jit::JitSystem c = jit::JitSystem::compile(sc.scheduler(), {}, jo);
  ASSERT_TRUE(c.from_cache());
  c.restore_state(snap);
  EXPECT_EQ(c.cycles(), k);
  const auto resumed = jit_trace(c, spec, spec.cycles - k);

  auto stitched = prefix;
  stitched.insert(stitched.end(), resumed.begin(), resumed.end());
  EXPECT_EQ(straight, stitched);
  run_cmd("rm -rf " + cache);
}

TEST(Jit, SnapshotInteroperatesWithCompiledSystem) {
  // The jit shares the compiled tape's snapshot format and IR hash: a JIT
  // snapshot restores into a CompiledSystem of the same design.
  const std::string cache = fresh_cache("asicpp_jit_interop");
  const Spec spec = jit_spec(9);
  jit::JitOptions jo;
  jo.cache_dir = cache;
  const std::uint64_t k = spec.cycles / 2;

  System sa(spec);
  jit::JitSystem a = jit::JitSystem::compile(sa.scheduler(), {}, jo);
  ASSERT_TRUE(a.native());
  jit_trace(a, spec, k);
  std::stringstream snap;
  a.save_state(snap);

  System sb(spec);
  sim::CompiledSystem cs = sim::CompiledSystem::compile(sb.scheduler());
  cs.restore_state(snap);
  EXPECT_EQ(cs.cycles(), k);
  EXPECT_EQ(cs.state_hash(), a.state_hash());
  run_cmd("rm -rf " + cache);
}

TEST(Jit, SnapshotOfDifferentDesignIsRejected) {
  const std::string cache = fresh_cache("asicpp_jit_xir");
  const Spec spec_a = jit_spec(10);
  const Spec spec_b = jit_spec(11);
  jit::JitOptions jo;
  jo.cache_dir = cache;

  System sa(spec_a);
  jit::JitSystem a = jit::JitSystem::compile(sa.scheduler(), {}, jo);
  jit_trace(a, spec_a, 2);
  std::stringstream snap;
  a.save_state(snap);

  System sb(spec_b);
  jit::JitSystem b = jit::JitSystem::compile(sb.scheduler(), {}, jo);
  const auto before = jit_trace(b, spec_b, 2);
  EXPECT_THROW(b.restore_state(snap), ckpt::SnapshotError);
  // Failed restore must leave the engine exactly as it was.
  EXPECT_EQ(b.cycles(), 2u);
  run_cmd("rm -rf " + cache);
}

TEST(Jit, DiffRunCheckpointAxisCoversJit) {
  const std::string cache = fresh_cache("asicpp_jit_ckptaxis");
  DiffOptions opts;
  opts.engines = {"compiled", "jit"};
  opts.store_dir = cache;
  opts.pass_axis = false;
  const DiffResult r = diff_run(jit_spec(12), opts);
  EXPECT_TRUE(r.ok()) << r.summary();
  bool jit_ckpt = false;
  for (const EngineTrace& t : r.ckpt_traces)
    if (t.engine == "jit" && t.ran) jit_ckpt = true;
  EXPECT_TRUE(jit_ckpt);
  run_cmd("rm -rf " + cache);
}

// --- unified run() surface -------------------------------------------------

TEST(Jit, RunHonorsWatchdogAndCheckpointCadence) {
  const std::string cache = fresh_cache("asicpp_jit_run");
  const Spec spec = jit_spec(13);
  jit::JitOptions jo;
  jo.cache_dir = cache;
  System sys(spec);
  jit::JitSystem js = jit::JitSystem::compile(sys.scheduler(), {}, jo);
  ASSERT_TRUE(js.native());

  diag::DiagEngine de;
  std::uint64_t ckpts = 0;
  RunOptions ro;
  ro.cycles = 40;
  ro.cycle_budget = 25;
  ro.checkpoint_every = 10;
  ro.on_checkpoint = [&](std::uint64_t) { ++ckpts; };
  ro.diagnostics = &de;
  const RunResult r = js.run(ro);
  EXPECT_EQ(r.stop, StopReason::kCycleBudget);
  EXPECT_EQ(r.cycles, 25u);
  EXPECT_EQ(r.checkpoints, ckpts);
  EXPECT_TRUE(has_code(de, "WATCHDOG-001"));
  run_cmd("rm -rf " + cache);
}

// --- engine registry -------------------------------------------------------

TEST(Registry, CanonicalNamesAndOrder) {
  const auto names = engine::Registry::global().names();
  const std::vector<std::string> want = {"iterative", "levelized", "compiled",
                                         "cppgen",    "gates",     "jit",
                                         "batched"};
  EXPECT_EQ(names, want);
  EXPECT_EQ(engine::Registry::global().names_csv(),
            "iterative, levelized, compiled, cppgen, gates, jit, batched");
}

TEST(Registry, UnknownNameListsRegisteredEngines) {
  try {
    engine::Registry::global().at("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    const std::string msg = ex.what();
    EXPECT_NE(msg.find("unknown engine 'bogus'"), std::string::npos) << msg;
    EXPECT_NE(
        msg.find("iterative, levelized, compiled, cppgen, gates, jit, batched"),
        std::string::npos)
        << msg;
  }
}

TEST(Registry, CapabilitiesGateTheAxes) {
  const engine::Registry& reg = engine::Registry::global();
  EXPECT_TRUE(reg.at("jit").caps().checkpointable);
  EXPECT_TRUE(reg.at("compiled").caps().pass_axis);
  EXPECT_TRUE(reg.at("iterative").caps().pass_axis);
  EXPECT_FALSE(reg.at("jit").caps().pass_axis);
  EXPECT_FALSE(reg.at("cppgen").caps().checkpointable);
  EXPECT_FALSE(reg.at("gates").caps().in_process);
}

TEST(Registry, DiffRunRejectsUnknownEngineName) {
  DiffOptions opts;
  opts.engines = {"iterative", "no-such-engine"};
  EXPECT_THROW(diff_run(jit_spec(14), opts), std::invalid_argument);
}

TEST(Registry, BindDrivesInProcessEnginesOverOneScheduler) {
  const std::string cache = fresh_cache("asicpp_jit_bind");
  setenv("ASICPP_STORE_DIR", cache.c_str(), 1);
  const Spec spec = jit_spec(15);
  const auto probes = spec.probes();
  std::vector<std::vector<double>> ref;
  for (const char* name : {"iterative", "levelized", "compiled", "jit"}) {
    const engine::Engine& e = engine::Registry::global().at(name);
    ASSERT_TRUE(e.caps().in_process);
    System sys(spec);
    auto inst = e.bind(sys.scheduler(), engine::TraceOptions{});
    ASSERT_NE(inst, nullptr) << name;
    std::vector<std::vector<double>> values;
    for (std::uint64_t c = 0; c < spec.cycles; ++c) {
      inst->cycle();
      std::vector<double> row;
      for (const std::string& n : probes) row.push_back(inst->probe(n));
      values.push_back(std::move(row));
    }
    if (ref.empty())
      ref = values;
    else
      EXPECT_EQ(ref, values) << name;
  }
  unsetenv("ASICPP_STORE_DIR");
  run_cmd("rm -rf " + cache);
}

// --- CLI surface -----------------------------------------------------------

TEST(JitCli, FuzzAcceptsJitEngine) {
  const std::string cache = fresh_cache("asicpp_jit_cli");
  std::string out;
  const int rc =
      run_cmd("ASICPP_STORE_DIR=" + cache + " " + ASICPP_FUZZ_BIN +
                  " --seeds 3 --engines compiled,jit --no-ckpt",
              &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("3/3 seeds clean"), std::string::npos) << out;
  run_cmd("rm -rf " + cache);
}

TEST(JitCli, FuzzRejectsUnknownEngineListingRegistered) {
  std::string out;
  const int rc = run_cmd(ASICPP_FUZZ_BIN + std::string(" --engines bogus"), &out);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("unknown engine 'bogus'"), std::string::npos) << out;
  EXPECT_NE(
      out.find("iterative, levelized, compiled, cppgen, gates, jit, batched"),
      std::string::npos)
      << out;
}

}  // namespace
}  // namespace asicpp
