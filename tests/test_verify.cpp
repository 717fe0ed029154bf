// Differential verification engine: generator, diff driver, shrinker, CLI.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "diag/diag.h"
#include "verify/diffrun.h"
#include "verify/gen.h"
#include "verify/shrink.h"

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

std::string scratch_path(const std::string& leaf) {
  const char* t = std::getenv("TMPDIR");
  return std::string(t != nullptr ? t : "/tmp") + "/" + leaf;
}

// --- generator -------------------------------------------------------------

TEST(VerifyGen, DeterministicPerSeed) {
  const GenConfig cfg;
  for (const unsigned seed : {0u, 7u, 123u, 99999u}) {
    const Spec a = generate(cfg, seed);
    const Spec b = generate(cfg, seed);
    EXPECT_EQ(to_text(a), to_text(b)) << "seed " << seed;
  }
  EXPECT_NE(to_text(generate(cfg, 1)), to_text(generate(cfg, 2)));
}

TEST(VerifyGen, GeneratedSpecsAreValid) {
  const GenConfig cfg;
  for (unsigned seed = 0; seed < 200; ++seed) {
    const Spec s = generate(cfg, seed);
    EXPECT_EQ(validate(s), "") << "seed " << seed << "\n" << to_text(s);
    EXPECT_GE(s.comps.size(), static_cast<std::size_t>(cfg.min_comps));
    EXPECT_LE(s.comps.size(),
              static_cast<std::size_t>(cfg.max_comps) + 1);  // dispatch pairs
  }
}

TEST(VerifyGen, CoversAllComponentKinds) {
  const GenConfig cfg;
  int fsm = 0, dispatch = 0, adapter = 0, untimed = 0;
  for (unsigned seed = 0; seed < 100; ++seed) {
    const Spec s = generate(cfg, seed);
    fsm += s.has(CompKind::kFsm);
    dispatch += s.has(CompKind::kDispatch);
    adapter += s.has(CompKind::kAdapter);
    untimed += s.has(CompKind::kUntimed);
  }
  EXPECT_GT(fsm, 0);
  EXPECT_GT(dispatch, 0);
  EXPECT_GT(adapter, 0);
  EXPECT_GT(untimed, 0);
}

TEST(VerifyGen, ValidateRejectsTimedReadOfAdapterNet) {
  Spec s;
  s.cycles = 4;
  CompSpec src;
  src.kind = CompKind::kSfg;
  src.net = 0;
  src.regs.push_back({1.0, 0});
  s.comps.push_back(src);
  CompSpec ad;
  ad.kind = CompKind::kAdapter;
  ad.net = 1;
  ad.inputs = {0};
  s.comps.push_back(ad);
  CompSpec sink;
  sink.kind = CompKind::kSfg;
  sink.net = 2;
  sink.inputs = {1};  // must-fire consumer of a token-sparse net
  s.comps.push_back(sink);
  EXPECT_NE(validate(s).find("adapter-delayed"), std::string::npos);

  // A tolerant (untimed) consumer of the same net is fine.
  s.comps[2].kind = CompKind::kUntimed;
  s.comps[2].out = 0;
  EXPECT_EQ(validate(s), "");
}

TEST(VerifyGen, ValidateRejectsDispatchWithoutOpSource) {
  Spec s;
  CompSpec src;
  src.kind = CompKind::kSfg;
  src.net = 0;
  src.regs.push_back({1.0, 0});
  s.comps.push_back(src);
  CompSpec dp;
  dp.kind = CompKind::kDispatch;
  dp.net = 1;
  dp.inputs = {0};  // not an op source
  dp.regs.push_back({0.0, 0});
  s.comps.push_back(dp);
  EXPECT_NE(validate(s).find("op-source"), std::string::npos);
}

TEST(VerifyGen, SystemRefusesInvalidSpec) {
  Spec s;  // no components
  EXPECT_THROW(System sys(s), std::invalid_argument);
}

// --- differential driver ---------------------------------------------------

TEST(VerifyDiff, AllEnginesAgreeOnGeneratedSpecs) {
  const GenConfig cfg;
  // Interpreted + compiled engines only: the cppgen engine shells out to
  // the host compiler per spec, which the CLI smoke test already covers.
  DiffOptions opts;
  opts.engines = {"iterative", "levelized", "compiled"};
  for (unsigned seed = 0; seed < 25; ++seed) {
    const Spec s = generate(cfg, seed);
    const DiffResult r = diff_run(s, opts);
    EXPECT_TRUE(r.ok()) << "seed " << seed << "\n" << r.summary();
    EXPECT_GE(r.engines_ran(), 2) << "seed " << seed;
  }
}

// Register-to-register commits: each register's next value is the previous
// register of a chain, so a phase-3 commit that reads a source register
// another commit already overwrote this cycle collapses the chain. One SFG
// ring (r0 <- 0.75 - r3, r1 <- r0, r2 <- r1, r3 <- r2) feeds an FSM with a
// two-register chain of its own, which feeds a register swap (a <- b,
// b <- a: no commit order reads both old values); every engine must keep
// them apart.
TEST(VerifyDiff, RegisterChainAgreesOnAllEngines) {
  Spec s;
  s.cycles = 24;
  CompSpec ring;
  ring.kind = CompKind::kSfg;
  ring.net = 0;
  ring.regs = {{0.75, 6}, {-1.5, 0}, {0.0, 1}, {1.5, 2}};
  ring.exprs = {{OpKind::kSub, 4, 3}};  // 0.75 - r3
  ring.out = 3;
  ring.out_alt = 3;
  s.comps.push_back(ring);
  CompSpec fsm;
  fsm.kind = CompKind::kFsm;
  fsm.net = 1;
  fsm.inputs = {0};
  fsm.regs = {{0.0, 5}, {0.5, 0}};
  fsm.exprs = {{OpKind::kAdd, 2, 1}};  // w0 + q1
  fsm.out = 1;
  fsm.out_alt = 0;
  fsm.guard_thresh = 0.5;
  s.comps.push_back(fsm);
  CompSpec swap;
  swap.kind = CompKind::kSfg;
  swap.net = 2;
  swap.inputs = {1};
  swap.regs = {{0.75, 1}, {-1.5, 0}};
  swap.exprs = {{OpKind::kAdd, 0, 2}};  // a + w1
  swap.out = 5;
  swap.out_alt = 5;
  s.comps.push_back(swap);
  ASSERT_EQ(validate(s), "");

  const DiffResult r = diff_run(s);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.engines_ran(), 7) << r.summary();
}

TEST(VerifyDiff, GatesEngineAgreesOnSynthesizableSpecs) {
  GenConfig cfg;
  cfg.allow_adapter = false;
  cfg.allow_untimed = false;
  cfg.max_comps = 5;
  DiffOptions opts;
  opts.engines = {"levelized", "gates"};
  for (unsigned seed = 0; seed < 6; ++seed) {
    const Spec s = generate(cfg, seed);
    const DiffResult r = diff_run(s, opts);
    EXPECT_TRUE(r.ok()) << "seed " << seed << "\n" << r.summary();
    EXPECT_EQ(r.engines_ran(), 2) << "seed " << seed << "\n" << r.summary();
  }
}

TEST(VerifyDiff, AdapterSpecsSkipNonInterpretedEngines) {
  const GenConfig cfg;
  for (unsigned seed = 0; seed < 200; ++seed) {
    const Spec s = generate(cfg, seed);
    if (!s.has(CompKind::kAdapter)) continue;
    diag::DiagEngine de;
    DiffOptions opts;
    opts.engines = {"iterative", "compiled", "gates"};
    opts.diagnostics = &de;
    const DiffResult r = diff_run(s, opts);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_EQ(r.engines_ran(), 1);
    EXPECT_TRUE(de.has("VERIFY-003"));
    return;
  }
  FAIL() << "no adapter spec in 200 seeds";
}

TEST(VerifyDiff, MutantTraceIsDetectedAsVerify001) {
  const Spec s = generate(GenConfig{}, 0);
  diag::DiagEngine de;
  DiffOptions opts;
  opts.engines = {"iterative", "levelized"};
  opts.diagnostics = &de;
  opts.mutant.enabled = true;
  opts.mutant.engine = "levelized";
  opts.mutant.cycle = 5;
  opts.mutant.net = s.probes().front();
  opts.mutant.delta = 0.25;
  const DiffResult r = diff_run(s, opts);
  EXPECT_FALSE(r.ok());
  ASSERT_NE(r.first(), nullptr);
  EXPECT_EQ(r.first()->cycle, 5u);
  EXPECT_EQ(r.first()->net, opts.mutant.net);
  ASSERT_TRUE(de.has("VERIFY-001"));
  EXPECT_EQ(de.find("VERIFY-001")->cycle, 5u);
}

// --- shrinker --------------------------------------------------------------

TEST(VerifyShrink, MutantShrinksToMinimalRepro) {
  const Spec s = generate(GenConfig{}, 0);
  ASSERT_GE(s.comps.size(), 3u);
  diag::DiagEngine de;
  DiffOptions opts;
  opts.engines = {"iterative", "levelized"};
  opts.diagnostics = &de;
  opts.mutant.enabled = true;
  opts.mutant.engine = "levelized";
  opts.mutant.cycle = 5;
  opts.mutant.net = s.probes().front();
  opts.mutant.delta = 0.25;

  const ShrinkResult sr = shrink(s, opts);
  EXPECT_LE(sr.minimal.comps.size(), 3u) << to_text(sr.minimal);
  EXPECT_LE(sr.minimal.cycles, 6u);
  EXPECT_EQ(validate(sr.minimal), "");
  EXPECT_FALSE(sr.final_diff.ok());
  EXPECT_GT(sr.reductions, 0);
  EXPECT_TRUE(de.has("VERIFY-004"));

  // The minimized spec must still carry the mutated net.
  bool has_net = false;
  for (const std::string& p : sr.minimal.probes())
    has_net |= p == opts.mutant.net;
  EXPECT_TRUE(has_net);
}

TEST(VerifyShrink, CleanSpecIsReturnedUnchanged) {
  const Spec s = generate(GenConfig{}, 1);
  DiffOptions opts;
  opts.engines = {"iterative", "levelized"};
  const ShrinkResult sr = shrink(s, opts);
  EXPECT_EQ(to_text(sr.minimal), to_text(s));
  EXPECT_TRUE(sr.final_diff.ok());
  EXPECT_EQ(sr.reductions, 0);
}

TEST(VerifyShrink, ReproIsCompilableCpp) {
  const Spec s = generate(GenConfig{}, 0);
  DiffOptions opts;
  opts.engines = {"iterative", "levelized"};
  opts.mutant.enabled = true;
  opts.mutant.engine = "levelized";
  opts.mutant.cycle = 5;
  opts.mutant.net = s.probes().front();
  opts.mutant.delta = 0.25;
  const ShrinkResult sr = shrink(s, opts);

  const std::string path = scratch_path("asicpp_test_repro.cpp");
  {
    std::ofstream os(path);
    emit_repro(sr.minimal, opts, os);
  }
  std::string out;
  const int rc = run_cmd("c++ -fsyntax-only -std=c++20 -I " ASICPP_SOURCE_DIR
                         "/src " + path, &out);
  EXPECT_EQ(rc, 0) << out;
  std::remove(path.c_str());
}

TEST(VerifyShrink, EmitSpecCppRoundTripsStructure) {
  const Spec s = generate(GenConfig{}, 3);
  std::ostringstream os;
  emit_spec_cpp(s, "spec", os);
  const std::string code = os.str();
  EXPECT_NE(code.find("spec.cycles = " + std::to_string(s.cycles)),
            std::string::npos);
  for (const CompSpec& c : s.comps)
    EXPECT_NE(code.find("c.net = " + std::to_string(c.net)),
              std::string::npos);
}

// --- CLI -------------------------------------------------------------------

TEST(VerifyCli, CleanSeedsExitZero) {
  std::string out;
  const int rc = run_cmd(std::string(ASICPP_FUZZ_BIN) +
                             " --seeds 3 --engines iterative,levelized,compiled",
                         &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("3/3 seeds clean"), std::string::npos) << out;
}

TEST(VerifyCli, MutantProducesShrunkenReproAndJson) {
  const Spec s = generate(GenConfig{}, 0);
  const std::string net = s.probes().front();
  const std::string dir = scratch_path("asicpp_fuzz_cli_corpus");
  const std::string json = scratch_path("asicpp_fuzz_cli.json");
  std::string out;
  const int rc = run_cmd(std::string(ASICPP_FUZZ_BIN) +
                             " --seeds 1 --engines iterative,levelized" +
                             " --mutant levelized:5:" + net + ":0.25" +
                             " --corpus-dir " + dir + " --json " + json,
                         &out);
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("VERIFY-001"), std::string::npos) << out;

  std::ifstream jf(json);
  ASSERT_TRUE(jf.good());
  std::stringstream js;
  js << jf.rdbuf();
  EXPECT_NE(js.str().find("\"code\": \"VERIFY-001\""), std::string::npos)
      << js.str();
  EXPECT_NE(js.str().find("\"ok\": false"), std::string::npos);

  const std::string repro = dir + "/seed0_repro.cpp";
  std::ifstream rf(repro);
  ASSERT_TRUE(rf.good()) << repro;
  std::string cc;
  const int crc = run_cmd("c++ -fsyntax-only -std=c++20 -I " ASICPP_SOURCE_DIR
                          "/src " + repro, &cc);
  EXPECT_EQ(crc, 0) << cc;

  std::remove(repro.c_str());
  std::remove((dir + "/seed0.spec").c_str());
  std::remove(json.c_str());
}

TEST(VerifyCli, BadUsageExitsTwo) {
  std::string out;
  EXPECT_EQ(run_cmd(std::string(ASICPP_FUZZ_BIN) + " --engines bogus", &out),
            2);
  EXPECT_EQ(run_cmd(std::string(ASICPP_FUZZ_BIN) + " --seeds 0", &out), 2);
}

}  // namespace
}  // namespace asicpp
