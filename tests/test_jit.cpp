// In-process JIT engine: artifact cache hit/miss/corruption, JIT-001..004
// graceful degradation, snapshot round-trips bound to the IR hash, the
// engine registry, the 200-seed jit differential axis, the unit compiled
// in parts, the host compiler run without a shell, and the two tiers: the
// swap from the tape to native code at every cycle, the boundary that
// waits for a held swap's build, and single-flight background builds.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/snapshot.h"
#include "dect/hcor.h"
#include "dect/vliw.h"
#include "diag/diag.h"
#include "engine/engine.h"
#include "fixpt/fixed.h"
#include "jit/jit.h"
#include "pipeline/artifact.h"
#include "sched/cyclesched.h"
#include "sched/untimed.h"
#include "service/json.h"
#include "service/service.h"
#include "sfg/clk.h"
#include "sfg/sig.h"
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
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
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

std::vector<std::vector<double>> jit_trace(sim::CompiledSystem& js, const Spec& spec,
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
  sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, jo);
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
  sim::CompiledSystem ja = jit::compile(a.scheduler(), {}, jo);
  ASSERT_TRUE(ja.native());
  EXPECT_FALSE(ja.from_cache());

  System b(spec);
  sim::CompiledSystem jb = jit::compile(b.scheduler(), {}, jo);
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
  sim::CompiledSystem ja = jit::compile(a.scheduler(), {}, jo);
  System b(spec);
  sim::CompiledSystem jb =
      jit::compile(b.scheduler(), opt::PassOptions::raw(), jo);
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
    sim::CompiledSystem ja = jit::compile(a.scheduler(), {}, jo);
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
  sim::CompiledSystem jb = jit::compile(b.scheduler(), {}, jo);
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
  sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, jo);
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
  sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, jo);
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
  sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, jo);
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
  sim::CompiledSystem a = jit::compile(sa.scheduler(), {}, jo);
  ASSERT_TRUE(a.native());
  const auto straight = jit_trace(a, spec, spec.cycles);

  System sb(spec);
  sim::CompiledSystem b = jit::compile(sb.scheduler(), {}, jo);
  const auto prefix = jit_trace(b, spec, k);
  std::stringstream snap;
  b.save_state(snap);

  System sc(spec);
  sim::CompiledSystem c = jit::compile(sc.scheduler(), {}, jo);
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
  sim::CompiledSystem a = jit::compile(sa.scheduler(), {}, jo);
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
  sim::CompiledSystem a = jit::compile(sa.scheduler(), {}, jo);
  jit_trace(a, spec_a, 2);
  std::stringstream snap;
  a.save_state(snap);

  System sb(spec_b);
  sim::CompiledSystem b = jit::compile(sb.scheduler(), {}, jo);
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
  sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, jo);
  ASSERT_TRUE(js.native());

  diag::DiagEngine de;
  std::uint64_t ckpts = 0;
  RunOptions ro;
  ro.cycles = 40;
  ro.cycle_budget = 25;
  ro.checkpoint_every = 10;
  ro.on_checkpoint = [&](std::uint64_t) { ++ckpts; };
  ro.diagnostics = &de;
  ro.schedule = ScheduleMode::kLevelized;
  const RunResult r = js.run(ro);
  EXPECT_EQ(r.stop, StopReason::kCycleBudget);
  EXPECT_EQ(r.cycles, 25u);
  EXPECT_EQ(r.checkpoints, ckpts);
  EXPECT_TRUE(has_code(de, "WATCHDOG-001"));
  // The run's schedule mode was scoped to it.
  EXPECT_EQ(js.schedule_mode(), ScheduleMode::kAuto);
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

// --- the unit in parts ------------------------------------------------------

using Rows = std::vector<std::vector<double>>;

std::vector<std::string> net_names(const sched::CycleScheduler& s) {
  std::vector<std::string> names;
  for (const sched::Net* n : s.all_nets()) names.push_back(n->name());
  return names;
}

/// Every named net's value after each of `cycles` cycles; `drive(c)` runs
/// before cycle c.
template <class Sim, class Drive>
Rows net_rows(Sim& sim, const std::vector<std::string>& nets, std::uint64_t cycles,
              const Drive& drive) {
  Rows rows;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    drive(c);
    sim.cycle();
    std::vector<double> row;
    for (const std::string& n : nets) row.push_back(sim.net_value(n));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Build `cs`'s one-file unit (emit_unit) as one translation unit, into
/// jo's store under the key the jit looks up, so jit::compile loads
/// it instead of building the parts.
void plant_one_unit(const sim::CompiledSystem& cs, const jit::JitOptions& jo) {
  const pipeline::ArtifactStore store(jo.cache_dir);
  const std::string src = store.dir() + "/one-unit.cpp";
  {
    std::ofstream os(src);
    cs.emit_unit(os);
  }
  const std::string so = store.path("jit", jit::content_key(cs.emit_parts(), jo), "so");
  std::string out;
  ASSERT_EQ(jit::run_command({"c++", "-O2", "-std=c++17", "-w", "-shared", "-fPIC", "-o",
                              so, src},
                             &out),
            0)
      << out;
}

/// Directories a split build left in `dir` (its private part directories).
std::vector<std::string> leftover_part_dirs(const std::string& dir) {
  std::vector<std::string> left;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().filename().string().find(".parts.") != std::string::npos)
      left.push_back(e.path().string());
  return left;
}

/// A fake host compiler: writes an empty file at its -o argument, and
/// fails with a message when an argument names `fail_on`.
std::string fake_compiler(const std::string& dir, const std::string& fail_on) {
  const std::string cc = dir + "/fake-cc";
  std::ofstream os(cc);
  os << "#!/bin/sh\n"
        "out=\"\"\nfail=0\n"
        "while [ $# -gt 0 ]; do\n"
        "  case \"$1\" in\n"
        "    -o) out=\"$2\"; shift ;;\n";
  if (!fail_on.empty())
    os << "    *" << fail_on << ") fail=1 ;;\n";
  os << "  esac\n"
        "  shift\n"
        "done\n"
        "if [ $fail = 1 ]; then echo \"synthetic error in " << fail_on << "\" >&2; exit 1; fi\n"
        ": > \"$out\"\n"
        "exit 0\n";
  os.close();
  ::chmod(cc.c_str(), 0755);
  return cc;
}

TEST(JitParts, DectSplitsAndSmallDesignsStayOnePart) {
  dect::DectTransceiver t;
  const sim::CompiledSystem dect = sim::CompiledSystem::compile(t.scheduler());
  const std::size_t dect_parts = dect.emit_parts().bodies.size();
  EXPECT_GT(dect_parts, 1u);
  EXPECT_LE(dect_parts, sim::Image::kMaxParts);

  dect::Hcor h;
  EXPECT_EQ(sim::CompiledSystem::compile(h.scheduler()).emit_parts().bodies.size(), 1u);
  const auto quickstart = service::make_design("quickstart");
  EXPECT_EQ(sim::CompiledSystem::compile(quickstart->scheduler()).emit_parts().bodies.size(),
            1u);
  for (unsigned seed = 0; seed < 100; ++seed) {
    const Spec spec = generate(GenConfig{}, seed);
    if (spec.has(CompKind::kAdapter)) continue;
    System sys(spec);
    EXPECT_EQ(sim::CompiledSystem::compile(sys.scheduler()).emit_parts().bodies.size(), 1u)
        << "seed " << seed;
  }
}

TEST(JitParts, EmittedTextIncludesNoHeader) {
  // The prelude calls compiler builtins instead of including <cmath>; the
  // only #include left is the <cstdio> of the standalone simulator's main().
  const auto includes = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
      if (line.find("#include") != std::string::npos) lines.push_back(line);
    return lines;
  };
  const auto check = [&](const sim::CompiledSystem& cs, bool standalone, const std::string& what) {
    std::ostringstream unit;
    cs.emit_unit(unit);
    EXPECT_TRUE(includes(unit.str()).empty()) << what;
    const sim::UnitParts parts = cs.emit_parts();
    EXPECT_TRUE(includes(parts.prelude).empty()) << what;
    for (const std::string& body : parts.bodies) EXPECT_TRUE(includes(body).empty()) << what;
    if (!standalone) return;
    std::ostringstream prog;
    cs.emit_cpp(prog, {}, 1);
    EXPECT_EQ(includes(prog.str()), std::vector<std::string>{"#include <cstdio>"}) << what;
  };
  dect::DectTransceiver t;
  check(sim::CompiledSystem::compile(t.scheduler()), false, "dect");
  dect::Hcor h;
  check(sim::CompiledSystem::compile(h.scheduler()), true, "hcor");
  for (unsigned seed = 0; seed < 20; ++seed) {
    const Spec spec = generate(GenConfig{}, seed);
    if (spec.has(CompKind::kAdapter)) continue;
    System sys(spec);
    check(sim::CompiledSystem::compile(sys.scheduler()), !spec.has(CompKind::kUntimed),
          "seed " + std::to_string(seed));
  }
}

TEST(JitParts, UnitExportsOnlyTheCycleAbiAndIrHash) {
  // Every other function of the unit is static or hidden; the extern "C"
  // definitions are what the shared object exports.
  const auto exports = [](const sim::CompiledSystem& cs) {
    std::ostringstream unit;
    cs.emit_unit(unit);
    const std::string text = unit.str();
    const std::string tag = "extern \"C\" ";
    std::vector<std::string> names;
    for (std::size_t at = text.find(tag); at != std::string::npos;
         at = text.find(tag, at + tag.size())) {
      const std::size_t open = text.find('(', at);
      const std::size_t name = text.find_last_of(" *", open) + 1;
      names.push_back(text.substr(name, open - name));
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const std::vector<std::string> want = {"asicpp_jit_abi", "asicpp_jit_cycle",
                                         "asicpp_jit_ir_hash"};
  dect::DectTransceiver t;
  EXPECT_EQ(exports(sim::CompiledSystem::compile(t.scheduler())), want);
  dect::Hcor h;
  EXPECT_EQ(exports(sim::CompiledSystem::compile(h.scheduler())), want);
}

TEST(JitParts, EveryPartAndCommandIsInTheKeyButNotTheStoreDir) {
  dect::DectTransceiver t;
  const sim::UnitParts unit = sim::CompiledSystem::compile(t.scheduler()).emit_parts();
  ASSERT_GT(unit.bodies.size(), 1u);
  jit::JitOptions jo;
  const std::uint64_t key = jit::content_key(unit, jo);
  for (std::size_t k = 0; k < unit.bodies.size(); ++k) {
    sim::UnitParts changed = unit;
    changed.bodies[k] += "\n";
    EXPECT_NE(jit::content_key(changed, jo), key) << "part " << k;
  }
  sim::UnitParts changed = unit;
  changed.prelude += "\n";
  EXPECT_NE(jit::content_key(changed, jo), key);

  jit::JitOptions other = jo;
  other.flags = "-O1 -std=c++17 -w";
  EXPECT_NE(jit::content_key(unit, other), key);
  other = jo;
  other.cxx = "g++";
  EXPECT_NE(jit::content_key(unit, other), key);
  other = jo;
  other.cache_dir = "/elsewhere";
  EXPECT_EQ(jit::content_key(unit, other), key);
}

TEST(JitParts, DectTraceMatchesTapeAndOneUnit) {
  // The store's name has a space: every command gets its paths as whole
  // argv entries.
  const std::string cache = fresh_cache("asicpp jit parts");
  const std::string one = fresh_cache("asicpp jit one unit");
  const auto drive = [](dect::DectTransceiver& t) {
    return [&t](std::uint64_t c) { t.drive_sample(static_cast<double>(c % 7) * 0.125 - 0.375); };
  };
  constexpr std::uint64_t kCycles = 600;

  dect::DectTransceiver tr;
  sim::CompiledSystem tape = sim::CompiledSystem::compile(tr.scheduler());
  const std::vector<std::string> nets = net_names(tr.scheduler());
  const Rows want = net_rows(tape, nets, kCycles, drive(tr));

  jit::JitOptions jo;
  jo.cache_dir = cache;
  dect::DectTransceiver tp;
  sim::CompiledSystem jp = jit::compile(tp.scheduler(), {}, jo);
  ASSERT_TRUE(jp.native());
  EXPECT_FALSE(jp.from_cache());
  EXPECT_TRUE(leftover_part_dirs(cache).empty());
  EXPECT_EQ(net_rows(jp, nets, kCycles, drive(tp)), want);

  // The one-file text, compiled as one translation unit.
  jit::JitOptions jone;
  jone.cache_dir = one;
  dect::DectTransceiver tu;
  plant_one_unit(sim::CompiledSystem::compile(tu.scheduler()), jone);
  sim::CompiledSystem ju = jit::compile(tu.scheduler(), {}, jone);
  ASSERT_TRUE(ju.native());
  ASSERT_TRUE(ju.from_cache());
  EXPECT_EQ(net_rows(ju, nets, kCycles, drive(tu)), want);

  // The part walk is a valid level walk: no cycle needed a second sweep.
  dect::DectTransceiver tl;
  sim::CompiledSystem jl = jit::compile(tl.scheduler(), {}, jo);
  ASSERT_TRUE(jl.from_cache());
  const RunResult r = jl.run(RunOptions{}.for_cycles(200));
  EXPECT_EQ(r.levelized_cycles, 200u);
  EXPECT_EQ(r.retry_passes, 0u);
  std::filesystem::remove_all(cache);
  std::filesystem::remove_all(one);
}

TEST(JitParts, HcorAndFuzzSpecsMatchTapeAndOneUnit) {
  const std::string cache = fresh_cache("asicpp jit small");
  const std::string one = fresh_cache("asicpp jit small one");
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jit::JitOptions jone;
  jone.cache_dir = one;
  const auto none = [](std::uint64_t) {};

  {
    dect::Hcor a, b, c;
    for (dect::Hcor* h : {&a, &b, &c}) h->scheduler().net("rx").drive(fixpt::Fixed(1.0));
    sim::CompiledSystem tape = sim::CompiledSystem::compile(a.scheduler());
    const std::vector<std::string> nets = net_names(a.scheduler());
    const Rows want = net_rows(tape, nets, 64, none);
    sim::CompiledSystem js = jit::compile(b.scheduler(), {}, jo);
    ASSERT_TRUE(js.native());
    EXPECT_EQ(net_rows(js, nets, 64, none), want);
    plant_one_unit(sim::CompiledSystem::compile(c.scheduler()), jone);
    sim::CompiledSystem ju = jit::compile(c.scheduler(), {}, jone);
    ASSERT_TRUE(ju.from_cache());
    EXPECT_EQ(net_rows(ju, nets, 64, none), want);
  }
  for (unsigned seed = 20; seed < 25; ++seed) {
    const Spec spec = jit_spec(seed);
    System a(spec), b(spec), c(spec);
    sim::CompiledSystem tape = sim::CompiledSystem::compile(a.scheduler());
    const std::vector<std::string> nets = net_names(a.scheduler());
    const Rows want = net_rows(tape, nets, spec.cycles, none);
    sim::CompiledSystem js = jit::compile(b.scheduler(), {}, jo);
    ASSERT_TRUE(js.native()) << "seed " << seed;
    EXPECT_EQ(net_rows(js, nets, spec.cycles, none), want) << "seed " << seed;
    plant_one_unit(sim::CompiledSystem::compile(c.scheduler()), jone);
    sim::CompiledSystem ju = jit::compile(c.scheduler(), {}, jone);
    ASSERT_TRUE(ju.from_cache()) << "seed " << seed;
    EXPECT_EQ(net_rows(ju, nets, spec.cycles, none), want) << "seed " << seed;
  }
  std::filesystem::remove_all(cache);
  std::filesystem::remove_all(one);
}

TEST(JitParts, FailingPartReportsItsOwnCommand) {
  const std::string cache = fresh_cache("asicpp_jit_partfail");
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.cxx = fake_compiler(cache, "part2.cpp");
  diag::DiagEngine de;
  jo.diagnostics = &de;
  dect::DectTransceiver t;
  sim::CompiledSystem js = jit::compile(t.scheduler(), {}, jo);
  EXPECT_FALSE(js.native());
  bool found = false;
  for (const auto& d : de.all()) {
    if (d.code != "JIT-002") continue;
    found = true;
    std::string notes;
    for (const auto& n : d.notes) notes += n + "\n";
    EXPECT_NE(notes.find("command: " + jo.cxx), std::string::npos) << notes;
    EXPECT_NE(notes.find("part2.cpp"), std::string::npos) << notes;
    EXPECT_EQ(notes.find("part1.cpp"), std::string::npos) << notes;
    EXPECT_NE(notes.find("synthetic error in part2.cpp"), std::string::npos) << notes;
  }
  EXPECT_TRUE(found) << de.str();
  EXPECT_TRUE(leftover_part_dirs(cache).empty());
  js.cycle();  // the tape fallback runs
  run_cmd("rm -rf " + cache);
}

TEST(JitParts, EmptyLinkedObjectIsJit003) {
  const std::string cache = fresh_cache("asicpp_jit_emptylink");
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.cxx = fake_compiler(cache, "");
  diag::DiagEngine de;
  jo.diagnostics = &de;
  dect::DectTransceiver t;
  sim::CompiledSystem js = jit::compile(t.scheduler(), {}, jo);
  EXPECT_FALSE(js.native());
  EXPECT_TRUE(has_code(de, "JIT-003")) << de.str();
  EXPECT_FALSE(has_code(de, "JIT-002")) << de.str();
  EXPECT_TRUE(leftover_part_dirs(cache).empty());
  js.cycle();
  run_cmd("rm -rf " + cache);
}

// --- host commands without a shell -----------------------------------------

TEST(JitCommand, CxxIsOneExecutableNotAShellLine) {
  const std::string cache = fresh_cache("asicpp_jit_noshell");
  const std::string marker = cache + "/marker";
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.cxx = "touch " + marker + "; c++";
  diag::DiagEngine de;
  jo.diagnostics = &de;
  const Spec spec = jit_spec(16);
  System sys(spec);
  sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, jo);
  EXPECT_FALSE(js.native());
  EXPECT_TRUE(has_code(de, "JIT-001")) << de.str();
  EXPECT_FALSE(std::filesystem::exists(marker));

  // The same through a service session: the open falls back to the tape
  // (the session still runs) and nothing ran the text as a command.
  service::Service svc;
  const std::string reply = svc.handle_line(
      R"({"op":"open","engine":"jit","design":"quickstart","store_dir":")" + cache +
      R"(","cxx":"touch )" + marker + R"(; c++"})");
  service::Json r;
  std::string err;
  ASSERT_TRUE(service::Json::parse(reply, &r, &err)) << reply;
  ASSERT_TRUE(r.get_bool("ok")) << reply;
  EXPECT_FALSE(r.get_bool("store_hit", true));
  const std::string run = svc.handle_line(R"({"op":"run","session":")" +
                                          r.get_string("session") + R"(","cycles":2})");
  EXPECT_NE(run.find(R"("ok":true)"), std::string::npos) << run;
  EXPECT_FALSE(std::filesystem::exists(marker));
  run_cmd("rm -rf " + cache);
}

TEST(JitCommand, FlagsSplitOnWhitespace) {
  const std::string cache = fresh_cache("asicpp_jit_flags");
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.flags = "  -O1\t-std=c++17   -w ";
  const Spec spec = jit_spec(17);
  System sys(spec);
  sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, jo);
  EXPECT_TRUE(js.native());
  run_cmd("rm -rf " + cache);
}

TEST(JitCommand, RunsConcurrentlyAndCapturesEachCommand) {
  const auto sh = [](const std::string& script) {
    jit::Command c;
    c.argv = {"sh", "-c", script};
    return c;
  };
  for (const unsigned lanes : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    std::vector<jit::Command> cmds;
    for (int k = 0; k < 4; ++k)
      cmds.push_back(sh("sleep 0.4; echo out" + std::to_string(k) + "; echo err" +
                        std::to_string(k) + " >&2"));
    cmds.push_back(sh("echo failing >&2; exit 3"));
    jit::Command missing;
    missing.argv = {"/nonexistent/asicpp-no-such-tool", "x"};
    cmds.push_back(missing);
    const auto t0 = std::chrono::steady_clock::now();
    jit::run_commands(cmds, lanes);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    for (int k = 0; k < 4; ++k) {
      EXPECT_TRUE(cmds[k].ok()) << cmds[k].output;
      EXPECT_NE(cmds[k].output.find("out" + std::to_string(k) + "\n"), std::string::npos);
      EXPECT_NE(cmds[k].output.find("err" + std::to_string(k) + "\n"), std::string::npos);
    }
    EXPECT_FALSE(cmds[4].ok());
    EXPECT_TRUE(WIFEXITED(cmds[4].status));
    EXPECT_EQ(WEXITSTATUS(cmds[4].status), 3);
    EXPECT_EQ(cmds[4].output, "failing\n");
    EXPECT_EQ(cmds[5].start_error, ENOENT);
    EXPECT_FALSE(cmds[5].ok());
    if (lanes == 1) EXPECT_GE(s, 1.6);  // one at a time
    else EXPECT_LT(s, 1.5);             // the four sleeps overlap
  }
}

// --- tiers: the tape from cycle 0, native code from the swap on -------------

/// The paper's Fig 6 three-component circular system, as the jit smoke tool
/// builds it; its untimed closure runs on the host side of the jit ABI.
const fixpt::Format kFig6F{16, 7, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};

struct Fig6System {
  const fixpt::Format kF = kFig6F;
  sfg::Clk clk;
  sched::CycleScheduler sched{clk};
  sfg::Reg state{"state", clk, kF, 1.0};
  sfg::Sig in1 = sfg::Sig::input("in1", kF);
  sfg::Sfg s1{"s1"};
  sched::SfgComponent c1{"comp1", s1};
  sfg::Sig in2 = sfg::Sig::input("in2", kF);
  sfg::Sfg s2{"s2"};
  sched::SfgComponent c2{"comp2", s2};
  sched::UntimedComponent c3{
      "comp3", [](const std::vector<fixpt::Fixed>& in, std::vector<fixpt::Fixed>& out) {
        out.push_back(in[0] + fixpt::Fixed(1.0));
      }};

  Fig6System() {
    s1.in(in1).out("out1", state.sig()).assign(state, (in1 * 0.5).cast(kF));
    s2.in(in2).out("out2", in2 * 2.0);
    c1.bind_output("out1", sched.net("n12"));
    c2.bind_input(in2, sched.net("n12"));
    c2.bind_output("out2", sched.net("n23"));
    c3.bind_input(sched.net("n23"));
    c3.bind_output(sched.net("n31"));
    c1.bind_input(in1, sched.net("n31"));
    sched.add(c1);
    sched.add(c2);
    sched.add(c3);
  }
  sched::CycleScheduler& scheduler() { return sched; }
};

constexpr std::uint64_t kSwapCycles = 200;         ///< swaps at k in [0, 200)
constexpr std::uint64_t kSwapRun = kSwapCycles + 8;  ///< cycles per run

/// Every named net's value after each cycle in [from, to); `drive(c)` runs
/// before cycle c.
template <class Sim, class Drive>
Rows rows_between(Sim& sim, const std::vector<std::string>& nets, std::uint64_t from,
                  std::uint64_t to, const Drive& drive) {
  Rows rows;
  for (std::uint64_t c = from; c < to; ++c) {
    drive(c);
    sim.cycle();
    std::vector<double> row;
    for (const std::string& n : nets) row.push_back(sim.net_value(n));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// For every k in [0, 200): a jit whose swap is held until cycle k gives
/// the tape's trace of every net, as the blocking jit does, and runs
/// natively from cycle k on; a snapshot taken before the swap (at k / 2)
/// restores after it, into the native instance that took it (after its
/// run) and into a compiled tape of another instance of the design, and
/// both replay the rest bit for bit. `make()` builds a fresh design;
/// `drive(d, c)` runs before cycle c.
template <class Make, class Drive>
void check_swaps(const std::string& store, const Make& make, const Drive& drive) {
  const auto driving = [&](auto& d) { return [&](std::uint64_t c) { drive(d, c); }; };
  auto ref = make();
  sim::CompiledSystem tape = sim::CompiledSystem::compile(ref->scheduler());
  const std::vector<std::string> nets = net_names(ref->scheduler());
  const Rows want = rows_between(tape, nets, 0, kSwapRun, driving(*ref));

  jit::JitOptions jo;
  jo.cache_dir = store;
  // Alive to the end, which keeps the object mapped for the loop's loads.
  auto bd = make();
  sim::CompiledSystem blocking = jit::compile(bd->scheduler(), {}, jo);
  ASSERT_TRUE(blocking.native());
  EXPECT_EQ(blocking.swap_cycle(), 0u);
  ASSERT_EQ(rows_between(blocking, nets, 0, kSwapRun, driving(*bd)), want);
  auto other = make();
  sim::CompiledSystem restored = sim::CompiledSystem::compile(other->scheduler());
  for (std::uint64_t k = 0; k < kSwapCycles; ++k) {
    SCOPED_TRACE("swap held until cycle " + std::to_string(k));
    auto d = make();
    jo.swap_at = k;
    sim::CompiledSystem js = jit::compile(d->scheduler(), {}, jo);
    const std::uint64_t j = k / 2;
    Rows got = rows_between(js, nets, 0, j, driving(*d));
    ASSERT_EQ(js.native(), k == 0);
    std::stringstream snap;
    js.save_state(snap);
    const Rows rest = rows_between(js, nets, j, kSwapRun, driving(*d));
    got.insert(got.end(), rest.begin(), rest.end());
    ASSERT_TRUE(js.native());
    ASSERT_EQ(js.swap_cycle(), k);
    ASSERT_EQ(got, want);

    const Rows want_rest(want.begin() + static_cast<long>(j), want.end());
    const auto replay = [&](auto& sim, auto& design) {
      snap.clear();
      snap.seekg(0);
      sim.restore_state(snap);
      ASSERT_EQ(rows_between(sim, nets, j, kSwapRun, driving(design)), want_rest);
    };
    replay(js, *d);
    replay(restored, *other);
  }
}

TEST(JitSwap, DectAtEveryCycle) {
  const std::string cache = fresh_cache("asicpp_jit_swap_dect");
  check_swaps(
      cache, [] { return std::make_unique<dect::DectTransceiver>(); },
      [](dect::DectTransceiver& t, std::uint64_t c) {
        t.drive_sample(static_cast<double>(c % 7) * 0.125 - 0.375);
      });
  std::filesystem::remove_all(cache);
}

// DECT's RAMs keep their words in untimed closures; a snapshot carries
// them, so restoring a cycle-0 snapshot into the instance that ran on
// replays the straight run.
TEST(DectSnapshot, CycleZeroSnapshotRestoresInPlaceOnEveryEngine) {
  const std::string cache = fresh_cache("asicpp_dect_snapshot");
  constexpr int kCycles = 208;
  for (const char* name : {"iterative", "compiled", "jit"}) {
    SCOPED_TRACE(name);
    dect::DectTransceiver t;
    engine::TraceOptions opts;
    opts.store_dir = cache;
    const auto inst = engine::Registry::global().at(name).bind(t.scheduler(), opts);
    const std::vector<std::string> nets = net_names(t.scheduler());
    const auto run = [&] {
      Rows rows;
      for (int c = 0; c < kCycles; ++c) {
        t.drive_sample(static_cast<double>(c % 7) * 0.125 - 0.375);
        inst->cycle();
        std::vector<double> row;
        for (const std::string& n : nets) row.push_back(inst->probe(n));
        rows.push_back(std::move(row));
      }
      return rows;
    };
    const auto ram_accesses = [&] {
      std::uint64_t n = 0;
      for (int r = 0; r < t.params().num_rams; ++r) n += t.ram_accesses(r);
      return n;
    };
    std::stringstream snap;
    ASSERT_TRUE(inst->save_state(snap));
    const Rows straight = run();
    ASSERT_GT(ram_accesses(), 0u);
    ASSERT_TRUE(inst->restore_state(snap));
    EXPECT_EQ(ram_accesses(), 0u);
    EXPECT_EQ(run(), straight);
  }
  std::filesystem::remove_all(cache);
}

TEST(JitSwap, HcorAtEveryCycle) {
  const std::string cache = fresh_cache("asicpp_jit_swap_hcor");
  check_swaps(
      cache, [] { return std::make_unique<dect::Hcor>(); },
      [](dect::Hcor& h, std::uint64_t c) {
        h.scheduler().net("rx").drive(fixpt::Fixed((c * 5 + c / 3) % 2 == 0 ? 1.0 : 0.0));
      });
  std::filesystem::remove_all(cache);
}

TEST(JitSwap, Fig6AtEveryCycle) {
  const std::string cache = fresh_cache("asicpp_jit_swap_fig6");
  check_swaps(
      cache, [] { return std::make_unique<Fig6System>(); },
      [](Fig6System&, std::uint64_t) {});
  std::filesystem::remove_all(cache);
}

TEST(JitSwap, FiftyFuzzSpecsAtEveryCycle) {
  const std::string cache = fresh_cache("asicpp_jit_swap_fuzz");
  unsigned checked = 0;
  for (unsigned seed = 0; checked < 50; ++seed) {
    const Spec spec = generate(GenConfig{}, seed);
    if (spec.has(CompKind::kAdapter)) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_swaps(
        cache, [&] { return std::make_unique<System>(spec); },
        [](System&, std::uint64_t) {});
    if (::testing::Test::HasFatalFailure()) return;
    ++checked;
  }
  std::filesystem::remove_all(cache);
}

/// A host compiler that logs each run to `log`, then runs c++.
std::string counting_compiler(const std::string& dir, const std::string& log) {
  const std::string cc = dir + "/counting-cc";
  std::ofstream os(cc);
  os << "#!/bin/sh\necho run >> '" << log << "'\nexec c++ \"$@\"\n";
  os.close();
  ::chmod(cc.c_str(), 0755);
  return cc;
}

std::size_t lines_in(const std::string& path) {
  std::ifstream is(path);
  std::size_t n = 0;
  for (std::string line; std::getline(is, line);) ++n;
  return n;
}

TEST(JitFlight, ConcurrentColdOpensShareOneBuild) {
  const std::string cache = fresh_cache("asicpp_jit_flight");
  const std::string log = cache + "/compiler-runs";
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.cxx = counting_compiler(cache, log);
  jo.swap_at = std::nullopt;
  const Spec spec = jit_spec(30);
  constexpr int kOpens = 4;
  std::vector<Rows> traces(kOpens);
  std::vector<std::thread> threads;
  for (int i = 0; i < kOpens; ++i)
    threads.emplace_back([&, i] {
      System sys(spec);
      sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, jo);
      traces[static_cast<std::size_t>(i)] =
          rows_between(js, net_names(sys.scheduler()), 0, spec.cycles, [](std::uint64_t) {});
    });
  for (std::thread& t : threads) t.join();

  // A blocking compile of the same unit joins the build, or finds it
  // stored: either way it adds no compiler run.
  System sys(spec);
  jit::JitOptions wait = jo;
  wait.swap_at = 0;
  sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, wait);
  ASSERT_TRUE(js.native());
  EXPECT_EQ(lines_in(log), 1u);

  System ref(spec);
  sim::CompiledSystem tape = sim::CompiledSystem::compile(ref.scheduler());
  const Rows want =
      rows_between(tape, net_names(ref.scheduler()), 0, spec.cycles, [](std::uint64_t) {});
  for (const Rows& t : traces) EXPECT_EQ(t, want);
  std::filesystem::remove_all(cache);
}

TEST(JitTier, TieredOpenRunsTheTapeUntilItsBuildLands) {
  const std::string cache = fresh_cache("asicpp_jit_tiered");
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.swap_at = std::nullopt;
  const auto drive = [](dect::DectTransceiver& t) {
    return [&t](std::uint64_t c) { t.drive_sample(static_cast<double>(c % 5) * 0.25 - 0.5); };
  };
  dect::DectTransceiver tt, tj;
  sim::CompiledSystem tape = sim::CompiledSystem::compile(tt.scheduler());
  sim::CompiledSystem js = jit::compile(tj.scheduler(), {}, jo);
  EXPECT_FALSE(js.from_cache());
  const std::vector<std::string> nets = net_names(tt.scheduler());
  // Cycle both until the jit has run natively for a while (bounded).
  std::uint64_t c = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (!js.native() || c < js.swap_cycle() + 100) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(300));
    ASSERT_EQ(rows_between(js, nets, c, c + 100, drive(tj)),
              rows_between(tape, nets, c, c + 100, drive(tt)))
        << "cycles " << c << "..";
    c += 100;
  }
  EXPECT_GT(js.compile_seconds(), 0.0);
  EXPECT_FALSE(js.artifact_path().empty());
  std::filesystem::remove_all(cache);
}

TEST(JitTier, ClosedInstanceLeavesItsBuildToLandInTheStore) {
  const std::string cache = fresh_cache("asicpp_jit_orphan");
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.swap_at = std::nullopt;
  const Spec spec = jit_spec(31);
  std::string so;
  {
    System sys(spec);
    sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, jo);
    const pipeline::ArtifactStore store(cache);
    so = store.path("jit", jit::content_key(sim::CompiledSystem::compile(sys.scheduler())
                                                .emit_parts(),
                                            jo),
                    "so");
  }
  const auto t0 = std::chrono::steady_clock::now();
  while (!std::filesystem::exists(so)) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(120));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  System sys(spec);
  jo.swap_at = 0;
  EXPECT_TRUE(jit::compile(sys.scheduler(), {}, jo).from_cache());
  std::filesystem::remove_all(cache);
}

TEST(JitTier, ProcessExitJoinsARunningBuild) {
  // The death-test child runs this body again in a new process, so the
  // store's name must not depend on the process id.
  const std::string cache = ::testing::TempDir() + "asicpp_jit_exit_store";
  std::filesystem::remove_all(cache);
  std::filesystem::create_directories(cache);
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.swap_at = std::nullopt;
  // The child opens DECT cold and exits at once, long before its ~1 s
  // build ends: exit must wait for the build, which lands in the store.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        dect::DectTransceiver t;
        sim::CompiledSystem js = jit::compile(t.scheduler(), {}, jo);
        std::exit(js.native() ? 3 : 0);
      },
      ::testing::ExitedWithCode(0), "");
  dect::DectTransceiver t;
  jo.swap_at = 0;
  EXPECT_TRUE(jit::compile(t.scheduler(), {}, jo).from_cache());
  std::filesystem::remove_all(cache);
}

TEST(JitTier, MissingCompilerIsReportedAtTheFirstBoundary) {
  const std::string cache = fresh_cache("asicpp_jit_tier_notool");
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.cxx = "/nonexistent/asicpp-no-such-compiler";
  jo.swap_at = std::nullopt;
  diag::DiagEngine de;
  jo.diagnostics = &de;
  const Spec spec = jit_spec(32);
  System sys(spec);
  sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, jo);
  // The build ends at once, but reports only at a cycle boundary, on the
  // thread that cycles the instance.
  const auto t0 = std::chrono::steady_clock::now();
  while (!has_code(de, "JIT-001")) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(60));
    js.cycle();
  }
  EXPECT_FALSE(js.native());
  std::filesystem::remove_all(cache);
}

/// A host compiler that creates `started`, waits for `gate` (at most
/// 120 s), then runs c++.
std::string gated_compiler(const std::string& dir, const std::string& started,
                           const std::string& gate) {
  const std::string cc = dir + "/gated-cc";
  std::ofstream os(cc);
  os << "#!/bin/sh\n: > '" << started << "'\ni=0\n"
     << "while [ ! -e '" << gate << "' ] && [ $i -lt 1200 ]; do sleep 0.1; i=$((i + 1)); done\n"
     << "exec c++ \"$@\"\n";
  os.close();
  ::chmod(cc.c_str(), 0755);
  return cc;
}

TEST(JitTier, SwapAtWaitsAtItsBoundaryNotInCompile) {
  const std::string cache = fresh_cache("asicpp_jit_swap_at");
  const std::string started = cache + "/compiler-started";
  const std::string gate = cache + "/gate";
  jit::JitOptions jo;
  jo.cache_dir = cache;
  jo.cxx = gated_compiler(cache, started, gate);
  jo.swap_at = 5;
  const Spec spec = jit_spec(33);
  ASSERT_GT(spec.cycles, 6u);
  System sys(spec);
  sim::CompiledSystem js = jit::compile(sys.scheduler(), {}, jo);
  EXPECT_FALSE(js.native());
  // compile() has returned, and the compiler is held at the gate.
  const auto t0 = std::chrono::steady_clock::now();
  while (!std::filesystem::exists(started)) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(120));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::vector<std::string> nets = net_names(sys.scheduler());
  const auto none = [](std::uint64_t) {};
  Rows got = rows_between(js, nets, 0, 5, none);
  EXPECT_FALSE(js.native());  // cycles 0-4 ran on the tape
  std::ofstream(gate).put('\n');
  // Cycle 5 waits for the build and runs natively.
  const Rows rest = rows_between(js, nets, 5, spec.cycles, none);
  got.insert(got.end(), rest.begin(), rest.end());
  ASSERT_TRUE(js.native());
  EXPECT_EQ(js.swap_cycle(), 5u);

  System ref(spec);
  sim::CompiledSystem tape = sim::CompiledSystem::compile(ref.scheduler());
  EXPECT_EQ(got, rows_between(tape, nets, 0, spec.cycles, none));
  std::filesystem::remove_all(cache);
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
