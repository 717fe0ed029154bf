// The flow backend's unit surface: Liberty reader (including the LIB-00x
// negative paths — the reader must never throw), the GateType -> cell
// binding, the lowered delay model, canonical Verilog emission, and the
// generated Yosys/LibreLane collateral.
#include <gtest/gtest.h>

#include "flow/liberty.h"
#include "flow/verilog.h"
#include "netlist/netlist.h"
#include "netlist/timing.h"

namespace asicpp::flow {
namespace {

using netlist::GateType;
using netlist::Netlist;

// ---------------------------------------------------------------------------
// Liberty reader.

TEST(Liberty, DefaultLibraryParsesClean) {
  diag::DiagEngine de;
  const LibertyLibrary lib = parse_liberty(default_library_text(), de);
  EXPECT_TRUE(de.empty()) << de.str();
  EXPECT_EQ(lib.name, "asicpp_sc_hd");
  EXPECT_EQ(lib.time_unit, "1ns");
  EXPECT_EQ(lib.cells.size(), 12u);
  EXPECT_DOUBLE_EQ(lib.default_output_load, 0.0175);
}

TEST(Liberty, DefaultLibraryCoversEveryGateType) {
  diag::DiagEngine de;
  const netlist::DelayModel m = delay_model(default_library(), de);
  EXPECT_TRUE(de.empty()) << de.str();
  for (int i = 1; i < netlist::kNumGateTypes; ++i) {  // skip kInput
    const auto t = static_cast<GateType>(i);
    EXPECT_FALSE(m.of(t).cell.empty()) << netlist::gate_name(t);
    EXPECT_GT(m.of(t).area, 0.0) << netlist::gate_name(t);
  }
  // Spot-check the characterization against the committed file.
  EXPECT_DOUBLE_EQ(m.of(GateType::kNot).intrinsic, 0.012);
  EXPECT_DOUBLE_EQ(m.of(GateType::kNot).load_slope, 1.10);
  EXPECT_DOUBLE_EQ(m.of(GateType::kNot).input_cap[0], 0.0017);
  EXPECT_DOUBLE_EQ(m.of(GateType::kDff).intrinsic, 0.28);
  EXPECT_DOUBLE_EQ(m.of(GateType::kMux).input_cap[0], 0.0021);  // S
  EXPECT_DOUBLE_EQ(m.of(GateType::kMux).input_cap[1], 0.0015);  // A1
  EXPECT_DOUBLE_EQ(m.of(GateType::kMux).input_cap[2], 0.0014);  // A0
  EXPECT_DOUBLE_EQ(m.output_load, 0.0175);
}

TEST(Liberty, ParsesCellDetails) {
  const LibertyLibrary& lib = default_library();
  const LibertyCell* dff = lib.find_cell("asicpp_sc_hd__dfxtp_1");
  ASSERT_NE(dff, nullptr);
  EXPECT_TRUE(dff->is_ff);
  EXPECT_EQ(dff->clocked_on, "CLK");
  EXPECT_EQ(dff->next_state, "D");
  const LibertyPin* clk = dff->find_pin("CLK");
  ASSERT_NE(clk, nullptr);
  EXPECT_TRUE(clk->is_clock);
  const LibertyPin* q = dff->find_pin("Q");
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->is_output);
  ASSERT_EQ(q->arcs.size(), 1u);
  EXPECT_DOUBLE_EQ(q->arcs[0].worst_intrinsic(), 0.28);

  const LibertyCell* nand2 = lib.find_cell("asicpp_sc_hd__nand2_1");
  ASSERT_NE(nand2, nullptr);
  const LibertyPin* y = nand2->output_pin();
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->name, "Y");
  EXPECT_EQ(y->arcs.size(), 2u);          // one arc per input pin
  EXPECT_DOUBLE_EQ(y->worst_intrinsic(), 0.022);  // worst over both arcs
}

TEST(LibertyNegative, TruncatedFileYieldsLib001) {
  const std::string& full = default_library_text();
  // Cut the file in the middle of a cell body.
  const std::string cut = full.substr(0, full.size() / 2);
  diag::DiagEngine de;
  const LibertyLibrary lib = parse_liberty(cut, de);  // must not throw
  EXPECT_TRUE(de.has("LIB-001")) << de.str();
  EXPECT_EQ(lib.name, "");  // truncated library group never closed
}

TEST(LibertyNegative, TruncatedAttributeYieldsLib001) {
  diag::DiagEngine de;
  parse_liberty("library (l) { cell (c) { area : 1", de);
  EXPECT_TRUE(de.has("LIB-001")) << de.str();
}

TEST(LibertyNegative, EmptySourceYieldsLib001) {
  diag::DiagEngine de;
  parse_liberty("", de);
  EXPECT_TRUE(de.has("LIB-001")) << de.str();
}

TEST(LibertyNegative, DeepNestingYieldsLib005) {
  // 200,000 nested groups used to overflow the reader's stack.
  const auto nested = [](int depth) {
    std::string s = "library (l) {";
    for (int i = 1; i < depth; ++i) s += " g (x) {";
    return s + std::string(static_cast<std::size_t>(depth), '}');
  };
  diag::DiagEngine deep;
  const LibertyLibrary lib = parse_liberty(nested(200000), deep);  // must not throw
  EXPECT_TRUE(deep.has("LIB-005"));
  EXPECT_EQ(lib.name, "");  // parsing stopped inside the library group
  diag::DiagEngine ok;
  EXPECT_EQ(parse_liberty(nested(64), ok).name, "l");
  EXPECT_TRUE(ok.empty()) << ok.str();
  diag::DiagEngine over;
  parse_liberty(nested(65), over);
  EXPECT_TRUE(over.has("LIB-005")) << over.str();
}

TEST(LibertyNegative, DuplicateCellYieldsLib002FirstWins) {
  diag::DiagEngine de;
  const LibertyLibrary lib = parse_liberty(
      "library (l) {\n"
      "  cell (c) { area : 1.0; }\n"
      "  cell (c) { area : 2.0; }\n"
      "}\n",
      de);
  EXPECT_TRUE(de.has("LIB-002")) << de.str();
  ASSERT_EQ(lib.cells.size(), 1u);
  EXPECT_DOUBLE_EQ(lib.cells[0].area, 1.0);  // first definition wins
}

TEST(LibertyNegative, MalformedAttributeYieldsLib003) {
  diag::DiagEngine de;
  const LibertyLibrary lib = parse_liberty(
      "library (l) { cell (c) { area : banana; pin (A) { capacitance : ; } } }",
      de);
  EXPECT_TRUE(de.has("LIB-003")) << de.str();
  ASSERT_EQ(lib.cells.size(), 1u);
  EXPECT_DOUBLE_EQ(lib.cells[0].area, 0.0);  // bad number -> 0, parse goes on
}

TEST(LibertyNegative, UnknownCellYieldsLib004) {
  diag::DiagEngine de;
  const LibertyLibrary tiny = parse_liberty(
      "library (tiny) { cell (asicpp_sc_hd__buf_1) { area : 5.0;\n"
      "  pin (A) { direction : input; capacitance : 0.002; }\n"
      "  pin (X) { direction : output; function : \"A\"; } } }",
      de);
  ASSERT_TRUE(de.empty()) << de.str();

  // Lowering the model: every unbound GateType reports LIB-004 once.
  diag::DiagEngine lower;
  const netlist::DelayModel m = delay_model(tiny, lower);
  EXPECT_TRUE(lower.has("LIB-004")) << lower.str();
  // The covered type is characterized, the missing ones fall back to unit.
  EXPECT_EQ(m.of(GateType::kBuf).cell, "asicpp_sc_hd__buf_1");
  EXPECT_EQ(m.of(GateType::kNot).cell, "not");  // unit fallback

  // A netlist referencing a missing cell: LIB-004 from the area sum too.
  Netlist nl;
  const auto a = nl.add_input("a");
  nl.mark_output("o", nl.add_gate(GateType::kNot, a));
  diag::DiagEngine area_de;
  const double area = liberty_area(nl, tiny, &area_de);
  EXPECT_TRUE(area_de.has("LIB-004")) << area_de.str();
  EXPECT_DOUBLE_EQ(area, 0.0);  // the inv counts 0; the input is a port
}

// ---------------------------------------------------------------------------
// Delay model semantics.

TEST(DelayModel, LoadDependentArrivalMatchesHandComputation) {
  // in -> inv -> out : one cell driving only the primary-output load.
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto inv = nl.add_gate(GateType::kNot, a);
  nl.mark_output("o", inv);

  diag::DiagEngine de;
  const netlist::DelayModel m = delay_model(default_library(), de);
  const auto rep = netlist::analyze_timing(nl, m);
  const double expect = 0.012 + 1.10 * 0.0175;  // intrinsic + R * out load
  EXPECT_DOUBLE_EQ(rep.critical_delay, expect);
  ASSERT_EQ(rep.endpoints.size(), 1u);
  EXPECT_EQ(rep.endpoints[0].name, "output o");
  EXPECT_DOUBLE_EQ(rep.endpoints[0].slack(1.0), 1.0 - expect);
  EXPECT_DOUBLE_EQ(rep.fmax(), 1.0 / expect);
  EXPECT_DOUBLE_EQ(rep.cell_area, 3.75);
}

TEST(DelayModel, FanoutCapacitanceAddsDelay) {
  // inv driving 3 nand inputs is slower than inv driving 1.
  const auto build = [](int fanout) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto inv = nl.add_gate(GateType::kNot, a);
    for (int i = 0; i < fanout; ++i)
      nl.mark_output("o" + std::to_string(i),
                     nl.add_gate(GateType::kNand, inv, inv));
    return nl;
  };
  diag::DiagEngine de;
  const netlist::DelayModel m = delay_model(default_library(), de);
  const auto light = netlist::analyze_timing(build(1), m);
  const auto heavy = netlist::analyze_timing(build(3), m);
  EXPECT_GT(heavy.critical_delay, light.critical_delay);

  // And the loads come out exactly as cap sums: 2 nand pins per nand.
  const Netlist nl = build(3);
  const auto loads = netlist::compute_loads(nl, m);
  EXPECT_DOUBLE_EQ(loads[1], 6 * 0.0020);  // inv drives 3 nands on A and B
}

TEST(DelayModel, UnitModelReproducesGateDelayAndArea) {
  const netlist::DelayModel unit = netlist::DelayModel::unit();
  for (int i = 0; i < netlist::kNumGateTypes; ++i) {
    const auto t = static_cast<GateType>(i);
    EXPECT_DOUBLE_EQ(unit.of(t).intrinsic, netlist::gate_delay(t));
    EXPECT_DOUBLE_EQ(unit.of(t).area, netlist::gate_area(t));
    EXPECT_DOUBLE_EQ(unit.of(t).load_slope, 0.0);
  }
  EXPECT_DOUBLE_EQ(unit.output_load, 0.0);
}

TEST(DelayModel, LibertyAreaIsInitAware) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto d0 = nl.add_dff(false);
  const auto d1 = nl.add_dff(true);
  nl.set_dff_input(d0, a);
  nl.set_dff_input(d1, a);
  nl.mark_output("q0", d0);
  nl.mark_output("q1", d1);
  // dfxtp_1 (20.0) + dfstp_1 (21.25).
  EXPECT_DOUBLE_EQ(liberty_area(nl, default_library()), 41.25);
}

// ---------------------------------------------------------------------------
// Verilog emission.

/// a, b -> xor(and(a, b), or(a, b)) -> o, plus a DFF loop on the AND.
/// `flip` inverts the creation order of the AND/OR pair, which permutes
/// raw gate ids without changing the structure.
Netlist diamond(bool flip) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  std::int32_t g_and, g_or;
  if (flip) {
    g_or = nl.add_gate(GateType::kOr, a, b);
    g_and = nl.add_gate(GateType::kAnd, a, b);
  } else {
    g_and = nl.add_gate(GateType::kAnd, a, b);
    g_or = nl.add_gate(GateType::kOr, a, b);
  }
  const auto x = nl.add_gate(GateType::kXor, g_and, g_or);
  const auto q = nl.add_dff(true);
  nl.set_dff_input(q, nl.add_gate(GateType::kMux, x, q, g_and));
  nl.mark_output("o", x);
  nl.mark_output("q", q);
  return nl;
}

TEST(Verilog, EmissionIsDeterministicAcrossGateOrderings) {
  VerilogOptions opt;
  opt.module_name = "diamond";
  const std::string v1 = emit_verilog(diamond(false), opt);
  const std::string v2 = emit_verilog(diamond(true), opt);
  EXPECT_EQ(v1, v2);
  // And trivially across repeated emission of one netlist.
  const Netlist nl = diamond(false);
  EXPECT_EQ(emit_verilog(nl, opt), emit_verilog(nl, opt));
}

TEST(Verilog, StructureLooksRight) {
  VerilogOptions opt;
  opt.module_name = "diamond";
  const std::string v = emit_verilog(diamond(false), opt);
  EXPECT_NE(v.find("module diamond ("), std::string::npos);
  EXPECT_NE(v.find("input clk;"), std::string::npos);  // has a DFF
  EXPECT_NE(v.find("input a;"), std::string::npos);
  EXPECT_NE(v.find("output o;"), std::string::npos);
  EXPECT_NE(v.find("asicpp_sc_hd__and2_1"), std::string::npos);
  EXPECT_NE(v.find("asicpp_sc_hd__xor2_1"), std::string::npos);
  // init = true -> the set-variant flop.
  EXPECT_NE(v.find("asicpp_sc_hd__dfstp_1"), std::string::npos);
  EXPECT_NE(v.find(".CLK(clk)"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, BusPortsAreEscaped) {
  Netlist nl;
  const auto a = nl.add_input("x[0]");
  nl.mark_output("y[0]", nl.add_gate(GateType::kBuf, a));
  const std::string v = emit_verilog(nl, {});
  EXPECT_NE(v.find("input \\x[0] ;"), std::string::npos);
  EXPECT_NE(v.find("output \\y[0] ;"), std::string::npos);
  EXPECT_EQ(v.find("input clk"), std::string::npos);  // combinational
}

TEST(Verilog, ConstantsUseConbPins) {
  Netlist nl;
  nl.mark_output("zero", nl.add_gate(GateType::kConst0));
  nl.mark_output("one", nl.add_gate(GateType::kConst1));
  const std::string v = emit_verilog(nl, {});
  EXPECT_NE(v.find("asicpp_sc_hd__conb_1"), std::string::npos);
  EXPECT_NE(v.find(".LO("), std::string::npos);
  EXPECT_NE(v.find(".HI("), std::string::npos);
}

TEST(Verilog, CellSimModelsCoverEveryCell) {
  const std::string sim = cells_sim_verilog();
  for (const char* cell :
       {"buf_1", "inv_1", "and2_1", "or2_1", "nand2_1", "nor2_1", "xor2_1",
        "xnor2_1", "mux2_1", "dfxtp_1", "dfstp_1", "conb_1"})
    EXPECT_NE(sim.find(std::string("module asicpp_sc_hd__") + cell),
              std::string::npos)
        << cell;
}

TEST(Verilog, YosysScriptAndFlowConfig) {
  VerilogOptions opt;
  opt.module_name = "hcor";
  const std::string ys = yosys_script(opt);
  EXPECT_NE(ys.find("read_liberty -lib asicpp_sc_hd.lib"), std::string::npos);
  EXPECT_NE(ys.find("read_verilog hcor.v"), std::string::npos);
  EXPECT_NE(ys.find("hierarchy -check -top hcor"), std::string::npos);
  EXPECT_NE(ys.find("abc -liberty asicpp_sc_hd.lib"), std::string::npos);
  EXPECT_NE(ys.find("write_verilog -noattr hcor_synth.v"), std::string::npos);

  const std::string cfg = flow_config_json(opt, 15.0);
  EXPECT_NE(cfg.find("\"DESIGN_NAME\": \"hcor\""), std::string::npos);
  EXPECT_NE(cfg.find("\"VERILOG_FILES\": \"dir::hcor.v\""), std::string::npos);
  EXPECT_NE(cfg.find("\"CLOCK_PORT\": \"clk\""), std::string::npos);
  EXPECT_NE(cfg.find("\"CLOCK_PERIOD\": 15"), std::string::npos);
}

TEST(Verilog, TestbenchRepliesStimuliAndDisplaysOutputs) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto q = nl.add_dff(false);
  nl.set_dff_input(q, a);
  nl.mark_output("o", q);
  VerilogOptions opt;
  opt.module_name = "pipe";
  const std::string tb = emit_testbench(nl, opt, {{1}, {0}});
  EXPECT_NE(tb.find("module tb;"), std::string::npos);
  EXPECT_NE(tb.find("pipe dut ("), std::string::npos);
  EXPECT_NE(tb.find("a= 1'b1;"), std::string::npos);
  EXPECT_NE(tb.find("$display(\"cycle %0d: %b\", 0, o);"), std::string::npos);
  EXPECT_NE(tb.find("$finish;"), std::string::npos);
}

}  // namespace
}  // namespace asicpp::flow
