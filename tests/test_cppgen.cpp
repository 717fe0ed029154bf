// End-to-end test of the C++ code generation path (Fig 7): emit a
// standalone compiled simulator, build it with the host compiler, run it,
// and check the printed trace matches the in-process simulation exactly.
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "fsm/fsm.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sim/compiled.h"
#include "sfg/clk.h"

namespace asicpp::sim {
namespace {

using fixpt::Fixed;
using fixpt::Format;
using fsm::Fsm;
using fsm::State;
using fsm::always;
using fsm::cnd;
using sched::CycleScheduler;
using sched::FsmComponent;
using sched::SfgComponent;
using sfg::Clk;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;

const Format kFmt{16, 7, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};

std::vector<double> run_generated(const CompiledSystem& cs,
                                  const std::vector<std::string>& nets,
                                  std::uint64_t cycles, const std::string& tag) {
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "/gen_" + tag + ".cpp";
  const std::string bin = dir + "/gen_" + tag;
  {
    std::ofstream os(src);
    cs.emit_cpp(os, nets, cycles);
  }
  const std::string compile = "c++ -O2 -std=c++17 -o " + bin + " " + src + " 2>&1";
  FILE* cp = popen(compile.c_str(), "r");
  EXPECT_NE(cp, nullptr);
  std::string cerr_text;
  char buf[256];
  while (fgets(buf, sizeof buf, cp) != nullptr) cerr_text += buf;
  const int crc = pclose(cp);
  EXPECT_EQ(crc, 0) << "compile failed:\n" << cerr_text;

  FILE* rp = popen((bin + " 2>&1").c_str(), "r");
  EXPECT_NE(rp, nullptr);
  std::vector<double> values;
  while (fgets(buf, sizeof buf, rp) != nullptr) values.push_back(std::atof(buf));
  EXPECT_EQ(pclose(rp), 0);
  return values;
}

/// Exit status and combined stdout+stderr of a generated simulator that is
/// expected to stop with an error.
struct GeneratedRun {
  int status = -1;
  std::string output;
};

GeneratedRun run_generated_failing(const CompiledSystem& cs,
                                   const std::string& tag) {
  const std::string src = ::testing::TempDir() + "/gen_" + tag + ".cpp";
  const std::string bin = ::testing::TempDir() + "/gen_" + tag;
  {
    std::ofstream os(src);
    cs.emit_cpp(os, {}, 1);
  }
  GeneratedRun run;
  char buf[256];
  for (const std::string& cmd :
       {"c++ -O2 -std=c++17 -o " + bin + " " + src + " 2>&1", bin + " 2>&1"}) {
    FILE* p = popen(cmd.c_str(), "r");
    EXPECT_NE(p, nullptr);
    run.output.clear();
    while (fgets(buf, sizeof buf, p) != nullptr) run.output += buf;
    const int rc = pclose(p);
    run.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    if (run.status != 0) break;  // a compile failure is reported as is
  }
  return run;
}

TEST(CppGen, GeneratedSimulatorMatchesInProcess) {
  Clk clk;
  CycleScheduler sched(clk);

  // A system with all compiled kinds except untimed: an FSM controller
  // alternating two instructions, a dispatch datapath, a plain SFG stage.
  Reg phase("phase", clk, Format{2, 2, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap}, 0.0);
  Sfg emit_a("emit_a"), emit_b("emit_b");
  emit_a.out("instr", Sig(1.0) + 0.0).assign(phase, phase + 1.0);
  emit_b.out("instr", Sig(2.0) + 0.0).assign(phase, Sig(0.0) + 0.0);
  Fsm ctl("ctl");
  State s = ctl.initial("s");
  s << cnd(phase.sig() < 2.0) << emit_a << s;
  s << always << emit_b << s;
  FsmComponent cctl("ctl", ctl);
  cctl.bind_output("instr", sched.net("instr"));

  Reg acc("acc", clk, kFmt, 0.0);
  Sfg inc("inc"), dbl("dbl");
  inc.assign(acc, acc + 1.25).out("res", acc.sig());
  dbl.assign(acc, (acc * 2.0).cast(kFmt)).out("res", acc.sig());
  sched::DispatchComponent dp("dp", sched.net("instr"));
  dp.add_instruction(1, inc);
  dp.add_instruction(2, dbl);
  dp.bind_output("res", sched.net("res"));

  Sig x = Sig::input("x", kFmt);
  Sfg post("post");
  post.in(x).out("final", x * 3.0 - 1.0);
  SfgComponent cpost("post", post);
  cpost.bind_input(x, sched.net("res"));
  cpost.bind_output("final", sched.net("final"));

  sched.add(cctl);
  sched.add(dp);
  sched.add(cpost);

  const std::uint64_t kCycles = 25;
  CompiledSystem cs = CompiledSystem::compile(sched);

  // Reference: in-process compiled run.
  CompiledSystem ref = CompiledSystem::compile(sched);
  std::vector<double> expect;
  for (std::uint64_t i = 0; i < kCycles; ++i) {
    ref.cycle();
    expect.push_back(ref.net_value("final"));
    expect.push_back(ref.net_value("res"));
  }

  const auto got = run_generated(cs, {"final", "res"}, kCycles, "full");
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_DOUBLE_EQ(got[i], expect[i]) << "sample " << i;
}

TEST(CppGen, ExternalDriveFrozenIntoGeneratedCode) {
  Clk clk;
  CycleScheduler sched(clk);
  Sig pin = Sig::input("pin", kFmt);
  Reg r("r", clk, kFmt, 0.0);
  Sfg s("s");
  s.in(pin).assign(r, r + pin).out("o", r.sig());
  SfgComponent c("c", s);
  c.bind_input(pin, sched.net("pin"));
  c.bind_output("o", sched.net("o"));
  sched.add(c);
  sched.net("pin").drive(Fixed(0.5));

  CompiledSystem cs = CompiledSystem::compile(sched);
  const auto got = run_generated(cs, {"o"}, 8, "pin");
  ASSERT_EQ(got.size(), 8u);
  EXPECT_DOUBLE_EQ(got.back(), 3.5);  // r after 7 commits of +0.5
}

TEST(CppGen, UntimedRejected) {
  Clk clk;
  CycleScheduler sched(clk);
  sched::UntimedComponent u("u", [](const std::vector<Fixed>& in, std::vector<Fixed>& out) { out = in; });
  sched.add(u);
  CompiledSystem cs = CompiledSystem::compile(sched);
  std::ostringstream os;
  EXPECT_THROW(cs.emit_cpp(os, {}, 1), std::invalid_argument);
}

TEST(CppGen, UnknownWatchNetRejected) {
  Clk clk;
  CycleScheduler sched(clk);
  Reg r("r", clk, kFmt, 0.0);
  Sfg s("s");
  s.assign(r, r + 1.0);
  SfgComponent c("c", s);
  sched.add(c);
  CompiledSystem cs = CompiledSystem::compile(sched);
  std::ostringstream os;
  EXPECT_THROW(cs.emit_cpp(os, {"nope"}, 1), std::out_of_range);
}

// The generated simulator honours the iteration cap exactly like the tape:
// a chain registered in reverse needs two sweeps, so with the cap at one
// and the level walk off the compiled tape declares SCHED-001 on `cb`, and
// the standalone binary must stop with the same deadlock instead of
// committing a cycle whose tail never fired.
TEST(CppGen, IterationCapDeclaresDeadlock) {
  Clk clk;
  CycleScheduler sched(clk);
  sched.set_max_iterations(1);
  Reg counter("counter", clk, kFmt, 0.0);
  Sfg src("src");
  src.out("o", counter.sig()).assign(counter, counter + 1.0);
  SfgComponent csrc("src", src);
  Sig xa = Sig::input("xa", kFmt);
  Sfg a("a");
  a.in(xa).out("o", xa + 1.0);
  SfgComponent ca("ca", a);
  Sig xb = Sig::input("xb", kFmt);
  Sfg b("b");
  b.in(xb).out("o", xb + 1.0);
  SfgComponent cb("cb", b);
  csrc.bind_output("o", sched.net("n0"));
  ca.bind_input(xa, sched.net("n0"));
  ca.bind_output("o", sched.net("n1"));
  cb.bind_input(xb, sched.net("n1"));
  cb.bind_output("o", sched.net("n2"));
  sched.add(cb);
  sched.add(ca);
  sched.add(csrc);

  CompiledSystem cs = CompiledSystem::compile(sched);
  cs.set_schedule_mode(ScheduleMode::kIterative);
  CompiledSystem ref = CompiledSystem::compile(sched);
  ref.set_schedule_mode(ScheduleMode::kIterative);
  try {
    ref.cycle();
    ADD_FAILURE() << "compiled tape did not deadlock";
  } catch (const sched::DeadlockError& e) {
    EXPECT_EQ(e.diagnostic().code, "SCHED-001");
    EXPECT_NE(e.diagnostic().message.find("cb"), std::string::npos);
  }

  const GeneratedRun run = run_generated_failing(cs, "itercap");
  EXPECT_EQ(run.status, 3) << run.output;
  EXPECT_NE(run.output.find("DEADLOCK at cycle 0"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("cb"), std::string::npos) << run.output;
}

// An opcode with no table entry and no default is an error in every
// engine, not a deadlock: the tape throws "unknown opcode 3 and no
// default", and the generated simulator must fail with the same words.
TEST(CppGen, UnknownOpcodeWithoutDefaultFails) {
  Clk clk;
  CycleScheduler sched(clk);
  Reg three("three", clk, kFmt, 3.0);
  Sfg emit("emit");
  emit.out("instr", three.sig());
  SfgComponent src("src", emit);
  src.bind_output("instr", sched.net("instr"));
  Sfg act("act");
  Reg mark("mark", clk, kFmt, 0.0);
  act.assign(mark, mark + 1.0);
  sched::DispatchComponent dp("dp", sched.net("instr"));
  dp.add_instruction(1, act);
  sched.add(src);
  sched.add(dp);

  CompiledSystem cs = CompiledSystem::compile(sched);
  CompiledSystem ref = CompiledSystem::compile(sched);
  try {
    ref.cycle();
    ADD_FAILURE() << "compiled tape accepted an unknown opcode";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown opcode 3 and no default"),
              std::string::npos)
        << e.what();
  }

  const GeneratedRun run = run_generated_failing(cs, "badop");
  EXPECT_NE(run.status, 0) << run.output;
  EXPECT_NE(run.output.find("unknown opcode 3"), std::string::npos) << run.output;
}

}  // namespace
}  // namespace asicpp::sim
