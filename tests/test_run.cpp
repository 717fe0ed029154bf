// One run() contract for every cycle engine. The interpreted scheduler,
// the compiled tape, the JIT and the batched evaluator share one run loop
// (run_cycles, sched/run.h), so a cycle budget, a wall-clock limit, the
// checkpoint cadence and on_cycle_end must behave the same on each.
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "batch/batch.h"
#include "diag/diag.h"
#include "jit/jit.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sfg/clk.h"
#include "sfg/sfg.h"
#include "sim/compiled.h"

namespace asicpp {
namespace {

const fixpt::Format kFmt{16, 7, true, fixpt::Quant::kRound,
                         fixpt::Overflow::kSaturate};

struct EngineCase {
  const char* engine;  ///< test parameter name
  const char* origin;  ///< component field of its watchdog diagnostics
};

// ctest names each case after how gtest prints its parameter. Printed as
// raw bytes, that is two string addresses, which move on every link.
void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.engine; }

/// A free-running counter behind one engine's run().
class Target {
 public:
  explicit Target(const std::string& engine) {
    s_.out("o", count_.sig()).assign(count_, (count_ + 1.0).cast(kFmt));
    comp_.bind_output("o", sched_.net("o"));
    sched_.add(comp_);
    if (engine == "iterative") {
      run_ = [this](const RunOptions& o) { return sched_.run(o); };
    } else if (engine == "compiled") {
      auto cs = std::make_shared<sim::CompiledSystem>(
          sim::CompiledSystem::compile(sched_));
      run_ = [cs](const RunOptions& o) { return cs->run(o); };
    } else if (engine == "jit") {
      jit::JitOptions jo;
      jo.cache_dir = ::testing::TempDir() + "/asicpp_run_contract_store";
      auto js = std::make_shared<jit::JitSystem>(
          jit::JitSystem::compile(sched_, {}, jo));
      EXPECT_TRUE(js->native()) << "jit fell back to the tape";
      run_ = [js](const RunOptions& o) { return js->run(o); };
    } else {
      auto bs = std::make_shared<batch::BatchedSystem>(
          batch::BatchedSystem::compile(sched_, 4));
      run_ = [bs](const RunOptions& o) { return bs->run(o); };
    }
  }

  RunResult run(const RunOptions& o) { return run_(o); }

 private:
  sfg::Clk clk_;
  sfg::Reg count_{"count", clk_, kFmt, 0.0};
  sfg::Sfg s_{"count_s"};
  sched::CycleScheduler sched_{clk_};
  sched::SfgComponent comp_{"counter", s_};
  std::function<RunResult(const RunOptions&)> run_;
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

INSTANTIATE_TEST_SUITE_P(
    Engines, RunContract,
    ::testing::Values(EngineCase{"iterative", "cycle scheduler"},
                      EngineCase{"compiled", "compiled simulator"},
                      EngineCase{"jit", "jit engine"},
                      EngineCase{"batched", "batched simulator"}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string(info.param.engine);
    });

}  // namespace
}  // namespace asicpp
