// Thread-parallel substrate: pool semantics, determinism harness, and the
// single-owner (PAR-002) assertions on diagnostics and recording.
//
// The determinism suites are the contract the whole subsystem rests on:
// multi-lane differential batches, shrinks and fuzz sweeps must be
// *bit-identical* to their serial counterparts, for any lane count.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "diag/diag.h"
#include "par/pool.h"
#include "sim/recorder.h"
#include "verify/diffrun.h"
#include "verify/gen.h"
#include "verify/shrink.h"

namespace asicpp {
namespace {

using namespace asicpp::verify;

// --- pool unit tests -------------------------------------------------------

TEST(ParPool, RunsEveryIndexExactlyOnce) {
  par::Pool pool(8);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParPool, WidthOneIsSerialOnCaller) {
  par::Pool pool(8);
  const auto caller = std::this_thread::get_id();
  bool all_on_caller = true;
  pool.parallel_for(
      64,
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) all_on_caller = false;
      },
      1);
  EXPECT_TRUE(all_on_caller);
}

TEST(ParPool, InParallelRegionFlag) {
  par::Pool pool(4);
  EXPECT_FALSE(par::Pool::in_parallel_region());
  std::atomic<int> inside{0};
  pool.parallel_for(32, [&](std::size_t) {
    if (par::Pool::in_parallel_region()) inside.fetch_add(1);
  });
  EXPECT_EQ(inside.load(), 32);
  EXPECT_FALSE(par::Pool::in_parallel_region());
}

TEST(ParPool, NestedParallelForThrowsPar001) {
  par::Pool pool(4);
  try {
    pool.parallel_for(8, [&](std::size_t) {
      pool.parallel_for(4, [](std::size_t) {});
    });
    FAIL() << "nested parallel_for did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), "PAR-001");
  }
  // The pool survives the failed region and runs new work.
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ParPool, LowestIndexExceptionWinsAtEveryWidth) {
  par::Pool pool(8);
  for (const unsigned width : {1u, 2u, 8u}) {
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(
          200,
          [&](std::size_t i) {
            ran.fetch_add(1);
            if (i >= 17 && i % 3 == 2) throw std::runtime_error(
                "task " + std::to_string(i));
          },
          width);
      FAIL() << "width " << width << " did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 17") << "width " << width;
    }
    // Every task still ran (no early abort) — so counters and side effects
    // are schedule-independent even on throwing regions.
    EXPECT_EQ(ran.load(), 200) << "width " << width;
  }
}

TEST(ParPool, OrderedMapMatchesSerialAtEveryWidth) {
  par::Pool pool(8);
  constexpr std::size_t kN = 1000;
  const std::function<double(std::size_t)> fn = [](std::size_t i) {
    return std::ldexp(1.0, -static_cast<int>(i % 40)) + static_cast<double>(i);
  };
  std::vector<double> ref(kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = fn(i);
  for (const unsigned width : {1u, 3u, 8u})
    EXPECT_EQ(pool.ordered_map<double>(kN, fn, width), ref)
        << "width " << width;
}

TEST(ParPool, OrderedReduceIsBitIdenticalAcrossWidths) {
  par::Pool pool(8);
  constexpr std::size_t kN = 500;
  // Magnitudes spanning ~30 orders: the fold is only reproducible when the
  // summation order is fixed, which is exactly what ordered_reduce pins.
  const std::function<double(std::size_t)> fn = [](std::size_t i) {
    return std::ldexp(1.0 + static_cast<double>(i % 7),
                      static_cast<int>(i % 100) - 50);
  };
  const auto fold = [](double a, double b) { return a + b; };
  const double ref = pool.ordered_reduce<double>(kN, 0.0, fn, fold, 1);
  for (const unsigned width : {2u, 5u, 8u})
    EXPECT_EQ(pool.ordered_reduce<double>(kN, 0.0, fn, fold, width), ref)
        << "width " << width;

  // Non-commutative fold: concatenation order must be index order.
  const std::function<std::string(std::size_t)> name = [](std::size_t i) {
    return "#" + std::to_string(i);
  };
  const auto cat = [](std::string a, std::string b) { return a + b; };
  const std::string sref = pool.ordered_reduce<std::string>(60, std::string(), name, cat, 1);
  EXPECT_EQ(pool.ordered_reduce<std::string>(60, std::string(), name, cat, 8), sref);
}

TEST(ParPool, SharedPoolHasTestableWidth) {
  // The shared pool is sized to at least 8 lanes so parallel paths stay
  // genuinely multi-threaded even on small CI machines.
  EXPECT_GE(par::Pool::shared().lanes(), 8u);
}

TEST(ParPool, HardwareLanesFollowTheAffinityMask) {
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
  const unsigned allowed = static_cast<unsigned>(CPU_COUNT(&mask));
  EXPECT_EQ(par::Pool::hardware_lanes(), allowed);
  int first = 0;
  while (!CPU_ISSET(first, &mask)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const unsigned pinned = par::Pool::hardware_lanes();
  ASSERT_EQ(sched_setaffinity(0, sizeof mask, &mask), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(par::Pool::hardware_lanes(), allowed);
}

TEST(ParBackground, TasksRunOffTheCallerAndEveryOneFinishes) {
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  std::atomic<int> on_caller{0};
  const std::thread::id caller = std::this_thread::get_id();
  for (int i = 0; i < kTasks; ++i)
    par::spawn_background([&] {
      if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
      ran.fetch_add(1);
    });
  const auto t0 = std::chrono::steady_clock::now();
  while (ran.load() < kTasks) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
    std::this_thread::yield();
  }
  EXPECT_EQ(on_caller.load(), 0);
}

// --- single-owner assertions (PAR-002) -------------------------------------

TEST(ParDiag, SecondThreadReportTripsPar002) {
  diag::DiagEngine de;
  de.note("TEST-000", "owner", "claimed on the main thread");
  std::string code;
  std::thread t([&] {
    try {
      de.note("TEST-000", "intruder", "cross-thread report");
    } catch (const Error& e) {
      code = e.code();
    }
  });
  t.join();
  EXPECT_EQ(code, "PAR-002");
  EXPECT_EQ(de.size(), 1u);  // the intruding record was rejected

  // clear() releases the claim: a fresh thread may own it afterwards.
  de.clear();
  std::thread t2([&] { de.note("TEST-000", "new owner", "ok"); });
  t2.join();
  EXPECT_EQ(de.size(), 1u);
}

TEST(ParDiag, MakeThreadSafeAllowsConcurrentReports) {
  diag::DiagEngine de;
  de.make_thread_safe();
  EXPECT_TRUE(de.thread_safe());
  par::Pool pool(8);
  pool.parallel_for(64, [&](std::size_t i) {
    de.note("TEST-001", "lane", "report " + std::to_string(i));
  });
  EXPECT_EQ(de.size(), 64u);
}

TEST(ParRecorder, SecondThreadDriverTripsPar002) {
  sfg::Clk clk;
  sched::CycleScheduler sched(clk);
  sim::Recorder rec(sched);
  sched.cycle();  // main thread claims the recorder
  EXPECT_EQ(rec.cycles_recorded(), 1u);
  std::string code;
  std::thread t([&] {
    try {
      sched.cycle();
    } catch (const Error& e) {
      code = e.code();
    }
  });
  t.join();
  EXPECT_EQ(code, "PAR-002");
}

// --- determinism: batched differential runs --------------------------------

std::string batch_fingerprint(const std::vector<Spec>& specs,
                              const DiffOptions& base, unsigned jobs) {
  diag::DiagEngine de;
  DiffOptions opts = base;
  opts.diagnostics = &de;
  const std::vector<DiffResult> rs = diff_run_batch(specs, opts, jobs);
  std::ostringstream os;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    os << "spec " << i << "\n" << rs[i].summary();
    for (const EngineTrace& t : rs[i].traces)
      for (const auto& row : t.values)
        for (const double v : row) os << " " << v;
    os << "\n";
  }
  os << de.str();
  return os.str();
}

TEST(ParDeterminism, DiffRunBatchIsByteIdenticalAcrossJobCounts) {
  const GenConfig cfg;
  std::vector<Spec> specs;
  for (unsigned seed = 0; seed < 100; ++seed)
    specs.push_back(generate(cfg, seed));

  DiffOptions opts;
  opts.engines = {"iterative", "levelized", "compiled"};
  const std::string serial = batch_fingerprint(specs, opts, 1);
  EXPECT_EQ(batch_fingerprint(specs, opts, 8), serial);

  // And with failures in the mix: a mutant makes some specs diverge, so the
  // merged diagnostic stream must still come back in spec order.
  DiffOptions bad = opts;
  bad.mutant.enabled = true;
  bad.mutant.engine = "levelized";
  bad.mutant.cycle = 1;
  bad.mutant.net = "w2";
  bad.mutant.delta = 0.5;
  const std::string bad_serial = batch_fingerprint(specs, bad, 1);
  EXPECT_EQ(batch_fingerprint(specs, bad, 8), bad_serial);
}

TEST(ParDeterminism, ShrinkJobsDoNotChangeTheMinimalSpec) {
  const GenConfig cfg;
  const Spec spec = generate(cfg, 0);
  DiffOptions opts;
  opts.engines = {"iterative", "levelized"};
  opts.mutant.enabled = true;
  opts.mutant.engine = "levelized";
  opts.mutant.cycle = 5;
  opts.mutant.net = spec.probes().front();
  opts.mutant.delta = 0.25;

  ShrinkOptions serial;
  serial.jobs = 1;
  const ShrinkResult a = shrink(spec, opts, serial);
  ASSERT_FALSE(a.final_diff.ok());

  ShrinkOptions threaded;
  threaded.jobs = 8;
  const ShrinkResult b = shrink(spec, opts, threaded);
  EXPECT_EQ(to_text(a.minimal), to_text(b.minimal));
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.reductions, b.reductions);
}

// --- determinism: the fuzz CLI end to end ----------------------------------

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

TEST(ParFuzzCli, JobsOneAndEightAreByteIdentical) {
  const Spec s = generate(GenConfig{}, 0);
  const std::string net = s.probes().front();
  const std::string dir = scratch_path("asicpp_par_cli_corpus");
  const std::string base =
      std::string(ASICPP_FUZZ_BIN) +
      " --seeds 12 --engines iterative,levelized,compiled" +
      " --mutant levelized:5:" + net + ":0.25 --corpus-dir " + dir;

  std::string out1;
  const std::string json1 = scratch_path("asicpp_par_cli_1.json");
  const int rc1 = run_cmd(base + " --jobs 1 --json " + json1, &out1);
  std::string out8;
  const std::string json8 = scratch_path("asicpp_par_cli_8.json");
  const int rc8 = run_cmd(base + " --jobs 8 --json " + json8, &out8);

  EXPECT_EQ(rc1, 1);
  EXPECT_EQ(rc8, rc1);
  EXPECT_EQ(out8, out1);
  // JSON differs only in the path of the json file itself — which is not
  // part of the content — so compare the files directly.
  const std::string j1 = slurp(json1);
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(slurp(json8), j1);

  std::string spec0;
  for (int seed = 0; seed < 12; ++seed) {
    const std::string stem = dir + "/seed" + std::to_string(seed);
    // Corpus writes are temp+rename: no .tmp residue may survive.
    std::ifstream tmp(stem + ".spec.tmp");
    EXPECT_FALSE(tmp.good()) << stem;
    std::remove((stem + ".spec").c_str());
    std::remove((stem + "_repro.cpp").c_str());
  }
  std::remove(json1.c_str());
  std::remove(json8.c_str());
}

TEST(ParFuzzCli, CleanSweepWithJobsIsClean) {
  std::string out;
  const int rc = run_cmd(std::string(ASICPP_FUZZ_BIN) +
                             " --seeds 8 --jobs 4"
                             " --engines iterative,levelized,compiled",
                         &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("8/8 seeds clean"), std::string::npos) << out;
}

}  // namespace
}  // namespace asicpp
