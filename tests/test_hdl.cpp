#include <gtest/gtest.h>

#include "fsm/fsm.h"
#include "hdl/hdlgen.h"
#include "hdl/testbench.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sim/recorder.h"
#include "sfg/clk.h"

namespace asicpp::hdl {
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
using sched::UntimedComponent;
using sfg::Clk;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;

const Format kFmt{16, 7, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};

// A small accumulator component used across the generation tests.
struct Acc {
  Clk clk;
  Reg acc{"acc", clk, kFmt, 0.0};
  Sig x = Sig::input("x", kFmt);
  Sfg s{"accumulate"};
  CycleScheduler sched{clk};
  SfgComponent comp{"acc_unit", s};

  Acc() {
    s.in(x).assign(acc, acc + x).out("sum", acc.sig() + x);
    comp.bind_input(x, sched.net("x"));
    comp.bind_output("sum", sched.net("sum"));
    sched.add(comp);
  }
};

TEST(Vhdl, PackageContainsQuantize) {
  const std::string pkg = generate_package(Dialect::kVhdl);
  EXPECT_NE(pkg.find("package asicpp_pkg"), std::string::npos);
  EXPECT_NE(pkg.find("function quantize"), std::string::npos);
  EXPECT_NE(pkg.find("shift_right"), std::string::npos);
}

TEST(Vhdl, SfgComponentStructure) {
  Acc a;
  const HdlComponent h = generate_component(Dialect::kVhdl, a.comp);
  EXPECT_EQ(h.name, "acc_unit");
  // Entity with clock, reset and the data ports at inferred widths.
  EXPECT_NE(h.entity.find("entity acc_unit is"), std::string::npos);
  EXPECT_NE(h.entity.find("clk : in std_logic"), std::string::npos);
  EXPECT_NE(h.entity.find("x : in signed(15 downto 0)"), std::string::npos);
  // sum = acc + x grows one integer bit: wl 17 -> signed(16 downto 0).
  EXPECT_NE(h.entity.find("sum : out signed(16 downto 0)"), std::string::npos);
  // Datapath: a three-address add.
  EXPECT_NE(h.datapath.find("resize(r_acc, 17) + resize(x, 17)"), std::string::npos);
  // Controller: comb + seq processes, register commit through quantize.
  EXPECT_NE(h.controller.find("comb : process(all)"), std::string::npos);
  EXPECT_NE(h.controller.find("seq : process(clk)"), std::string::npos);
  EXPECT_NE(h.controller.find("quantize("), std::string::npos);
  EXPECT_NE(h.controller.find("r_acc <= r_acc_next"), std::string::npos);
  // Full unit assembles and ends properly.
  EXPECT_NE(h.full.find("architecture rtl of acc_unit"), std::string::npos);
  EXPECT_NE(h.full.find("end rtl;"), std::string::npos);
}

TEST(Verilog, SfgComponentStructure) {
  Acc a;
  const HdlComponent h = generate_component(Dialect::kVerilog, a.comp);
  EXPECT_NE(h.entity.find("module acc_unit"), std::string::npos);
  EXPECT_NE(h.entity.find("input wire signed [15:0] x"), std::string::npos);
  EXPECT_NE(h.entity.find("output reg signed [16:0] sum"), std::string::npos);
  EXPECT_NE(h.controller.find("always @*"), std::string::npos);
  EXPECT_NE(h.controller.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(h.full.find("endmodule"), std::string::npos);
}

TEST(Vhdl, FsmComponentHasStateMachine) {
  Clk clk;
  Reg flag("flag", clk, Format{1, 1, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap}, 0.0);
  Reg count("count", clk, kFmt, 0.0);
  Sfg go("go"), stop("stop");
  go.assign(count, count + 1.0).out("o", count.sig());
  stop.assign(flag, Sig(0.0) + 0.0).out("o", count.sig());
  Fsm f("ctl");
  State s0 = f.initial("run");
  State s1 = f.state("halt");
  s0 << cnd(flag) << stop << s1;
  s0 << always << go << s0;
  s1 << always << stop << s1;
  FsmComponent comp("ctl_unit", f);
  CycleScheduler sched(clk);
  comp.bind_output("o", sched.net("o"));
  sched.add(comp);

  const HdlComponent h = generate_component(Dialect::kVhdl, comp);
  EXPECT_NE(h.datapath.find("type state_t is (st_run, st_halt)"), std::string::npos)
      << h.datapath;
  EXPECT_NE(h.controller.find("case state is"), std::string::npos);
  EXPECT_NE(h.controller.find("when st_run =>"), std::string::npos);
  EXPECT_NE(h.controller.find("if r_flag /= 0 then"), std::string::npos);
  EXPECT_NE(h.controller.find("state <= st_run;"), std::string::npos);  // reset
}

TEST(Verilog, FsmUsesLocalparams) {
  Clk clk;
  Reg flag("flag", clk, Format{1, 1, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap}, 0.0);
  Sfg act("act");
  act.assign(flag, ~cnd(flag).expr());
  Fsm f("toggler");
  State s = f.initial("s");
  s << always << act << s;
  FsmComponent comp("toggle_unit", f);
  CycleScheduler sched(clk);
  sched.add(comp);
  const HdlComponent h = generate_component(Dialect::kVerilog, comp);
  EXPECT_NE(h.datapath.find("localparam ST_s = 0;"), std::string::npos);
  EXPECT_NE(h.controller.find("case (state)"), std::string::npos);
}

TEST(Vhdl, DispatchComponentCasesOnInstruction) {
  Clk clk;
  CycleScheduler sched(clk);
  Reg acc("acc", clk, kFmt, 0.0);
  Sig v = Sig::input("v", kFmt);
  Sfg add("add"), clear("clear"), nop("nop");
  add.in(v).assign(acc, acc + v).out("res", acc.sig());
  clear.assign(acc, Sig(0.0) + 0.0).out("res", acc.sig());
  nop.out("res", acc.sig());
  sched::DispatchComponent dp("alu", sched.net("instr"));
  dp.add_instruction(1, add);
  dp.add_instruction(2, clear);
  dp.set_default(nop);
  dp.bind_input(v, sched.net("v"));
  dp.bind_output("res", sched.net("res"));
  sched.add(dp);

  const HdlComponent h = generate_component(Dialect::kVhdl, dp);
  EXPECT_NE(h.entity.find("instr_instr : in signed(15 downto 0)"), std::string::npos);
  EXPECT_NE(h.controller.find("case to_integer(instr_instr) is"), std::string::npos);
  EXPECT_NE(h.controller.find("when 1 =>"), std::string::npos);
  EXPECT_NE(h.controller.find("when 2 =>"), std::string::npos);
  EXPECT_NE(h.controller.find("when others =>"), std::string::npos);
}

TEST(Hdl, UntimedComponentRejected) {
  Clk clk;
  CycleScheduler sched(clk);
  UntimedComponent ram("ram", [](const std::vector<Fixed>& in, std::vector<Fixed>& out) { out = in; });
  EXPECT_THROW(generate_component(Dialect::kVhdl, ram), std::invalid_argument);
}

TEST(Hdl, GenerationIsDeterministic) {
  Acc a1, a2;
  const auto h1 = generate_component(Dialect::kVhdl, a1.comp);
  const auto h2 = generate_component(Dialect::kVhdl, a2.comp);
  // Node ids differ between instances, but the structure must match after
  // normalizing the id-bearing names.
  EXPECT_EQ(h1.entity, h2.entity);
  EXPECT_EQ(h1.full.size(), h2.full.size());
}

TEST(Hdl, SystemLinkageConnectsNets) {
  Clk clk;
  CycleScheduler sched(clk);
  Reg counter("counter", clk, kFmt, 0.0);
  Sfg prod("prod");
  prod.out("o", counter.sig()).assign(counter, counter + 1.0);
  SfgComponent cprod("producer", prod);
  Sig x = Sig::input("x", kFmt);
  Sfg cons("cons");
  cons.in(x).out("y", x * 2.0);
  SfgComponent ccons("consumer", cons);
  cprod.bind_output("o", sched.net("data"));
  ccons.bind_input(x, sched.net("data"));
  ccons.bind_output("y", sched.net("result"));
  sched.add(cprod);
  sched.add(ccons);

  const std::string top = generate_system(Dialect::kVhdl, sched, "top");
  EXPECT_NE(top.find("entity top is"), std::string::npos);
  EXPECT_NE(top.find("signal net_data"), std::string::npos);
  EXPECT_NE(top.find("entity work.producer"), std::string::npos);
  EXPECT_NE(top.find("x => net_data"), std::string::npos);
  EXPECT_NE(top.find("y => net_result"), std::string::npos);

  const std::string vtop = generate_system(Dialect::kVerilog, sched, "top");
  EXPECT_NE(vtop.find("module top"), std::string::npos);
  EXPECT_NE(vtop.find(".x(net_data)"), std::string::npos);
}

TEST(Testbench, ReplaysRecordedTraces) {
  Acc a;
  a.sched.net("x").drive(Fixed(1.5));
  sim::Recorder rec(a.sched);
  rec.watch("x");
  rec.watch("sum");
  a.sched.run(RunOptions{}.for_cycles(4));

  TestbenchSpec spec;
  spec.dut_name = "acc_unit";
  spec.drive_nets = {"x"};
  spec.check_nets = {"sum"};
  spec.net_fmt["x"] = kFmt;
  spec.net_fmt["sum"] = Format{17, 8, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};

  const std::string vhdl = generate_testbench(Dialect::kVhdl, spec, rec);
  EXPECT_NE(vhdl.find("entity acc_unit_tb"), std::string::npos);
  EXPECT_NE(vhdl.find("constant stim_x"), std::string::npos);
  EXPECT_NE(vhdl.find("constant gold_sum"), std::string::npos);
  EXPECT_NE(vhdl.find("assert to_integer(sum) = gold_sum(i)"), std::string::npos);
  // x = 1.5 in <16,7,rnd> has mantissa 1.5 * 2^8 = 384.
  EXPECT_NE(vhdl.find("384"), std::string::npos);

  const std::string vlog = generate_testbench(Dialect::kVerilog, spec, rec);
  EXPECT_NE(vlog.find("module acc_unit_tb"), std::string::npos);
  EXPECT_NE(vlog.find("$finish"), std::string::npos);
}

TEST(Testbench, EmptyRecordingRejected) {
  Acc a;
  sim::Recorder rec(a.sched);
  rec.watch("x");
  TestbenchSpec spec;
  spec.dut_name = "acc_unit";
  spec.drive_nets = {"x"};
  spec.net_fmt["x"] = kFmt;
  EXPECT_THROW(generate_testbench(Dialect::kVhdl, spec, rec), std::invalid_argument);
}

}  // namespace
}  // namespace asicpp::hdl
