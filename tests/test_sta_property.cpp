// Property tests for the library-driven STA: on seeded random netlists,
// the levelized arrival-time sweep must agree exactly with a brute-force
// longest-path reference (same additions in the same order, so the
// comparison is exact double equality, not approximate), and the unit
// model must reproduce the historical gate_delay arithmetic bit for bit.
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "flow/liberty.h"
#include "netlist/netlist.h"
#include "netlist/timing.h"

namespace asicpp::netlist {
namespace {

constexpr int kSeeds = 200;

/// Random DAG-with-registers netlist: combinational fanins always point
/// at earlier gates (acyclic by construction), DFF D-inputs may point
/// anywhere (feedback through registers, like real state machines).
Netlist random_netlist(unsigned seed) {
  std::mt19937 rng(seed);
  Netlist nl;
  std::vector<std::int32_t> ids;

  const int n_inputs = 1 + static_cast<int>(rng() % 4);
  for (int i = 0; i < n_inputs; ++i)
    ids.push_back(nl.add_input("in" + std::to_string(i)));

  static const GateType kComb[] = {
      GateType::kConst0, GateType::kConst1, GateType::kBuf, GateType::kNot,
      GateType::kAnd,    GateType::kOr,     GateType::kNand, GateType::kNor,
      GateType::kXor,    GateType::kXnor,   GateType::kMux};
  std::vector<std::int32_t> dffs;
  const int n_gates = 5 + static_cast<int>(rng() % 56);
  for (int i = 0; i < n_gates; ++i) {
    if (rng() % 8 == 0) {
      const auto d = nl.add_dff(rng() % 2 == 0);
      dffs.push_back(d);
      ids.push_back(d);
      continue;
    }
    const GateType t = kComb[rng() % (sizeof kComb / sizeof kComb[0])];
    const auto pick = [&] {
      return ids[rng() % ids.size()];
    };
    std::int32_t g = -1;
    switch (gate_arity(t)) {
      case 0: g = nl.add_gate(t); break;
      case 1: g = nl.add_gate(t, pick()); break;
      case 2: g = nl.add_gate(t, pick(), pick()); break;
      default: g = nl.add_gate(t, pick(), pick(), pick()); break;
    }
    ids.push_back(g);
  }
  for (const auto d : dffs) nl.set_dff_input(d, ids[rng() % ids.size()]);

  const int n_outputs = 1 + static_cast<int>(rng() % 5);
  for (int i = 0; i < n_outputs; ++i)
    nl.mark_output("o" + std::to_string(i), ids[rng() % ids.size()]);
  return nl;
}

/// Brute-force longest-path arrival: memoized recursion from each gate,
/// structured nothing like the levelized sweep but summing the same
/// delays in the same (fanin-then-gate) order.
struct BruteForce {
  const Netlist& nl;
  const DelayModel& model;
  std::vector<double> delay;
  std::vector<double> memo;
  std::vector<char> done;

  BruteForce(const Netlist& n, const DelayModel& m) : nl(n), model(m) {
    const auto loads = compute_loads(nl, model);
    delay.resize(static_cast<std::size_t>(nl.num_gates()));
    for (std::int32_t id = 0; id < nl.num_gates(); ++id) {
      const CellTiming& c = model.of(nl.gate(id).type);
      delay[static_cast<std::size_t>(id)] =
          c.intrinsic + c.load_slope * loads[static_cast<std::size_t>(id)];
    }
    memo.assign(static_cast<std::size_t>(nl.num_gates()), 0.0);
    done.assign(static_cast<std::size_t>(nl.num_gates()), 0);
  }

  double arrival(std::int32_t id) {
    if (done[static_cast<std::size_t>(id)]) return memo[static_cast<std::size_t>(id)];
    const Gate& g = nl.gate(id);
    double a = 0.0;
    if (g.type == GateType::kDff) {
      a = delay[static_cast<std::size_t>(id)];  // clk-to-q launch
    } else if (gate_arity(g.type) == 0) {
      a = 0.0;  // inputs and constants
    } else {
      double worst = 0.0;
      for (int i = 0; i < gate_arity(g.type); ++i) {
        const double f = arrival(g.in[i]);
        if (f > worst) worst = f;
      }
      a = worst + delay[static_cast<std::size_t>(id)];
    }
    done[static_cast<std::size_t>(id)] = 1;
    memo[static_cast<std::size_t>(id)] = a;
    return a;
  }

  /// Worst arrival over all endpoints (DFF D pins + primary outputs).
  double critical() {
    double worst = 0.0;
    for (std::int32_t id = 0; id < nl.num_gates(); ++id) {
      const Gate& g = nl.gate(id);
      if (g.type == GateType::kDff && g.in[0] >= 0) {
        const double a = arrival(g.in[0]);
        if (a > worst) worst = a;
      }
    }
    for (const auto& [name, id] : nl.outputs()) {
      (void)name;
      const double a = arrival(id);
      if (a > worst) worst = a;
    }
    return worst;
  }
};

class StaProperty : public ::testing::TestWithParam<int> {};

TEST_P(StaProperty, LibraryStaMatchesBruteForceExactly) {
  const Netlist nl = random_netlist(static_cast<unsigned>(GetParam()) * 7919u + 13u);
  diag::DiagEngine de;
  const DelayModel model = flow::delay_model(flow::default_library(), de);
  ASSERT_TRUE(de.empty()) << de.str();

  const TimingReport rep = analyze_timing(nl, model);
  BruteForce ref(nl, model);
  EXPECT_DOUBLE_EQ(rep.critical_delay, ref.critical()) << "seed " << GetParam();

  // Every endpoint arrival matches the brute-force recursion too.
  for (const Endpoint& ep : rep.endpoints) {
    std::int32_t src = -1;
    if (ep.name.rfind("dff ", 0) == 0)
      src = nl.gate(std::stoi(ep.name.substr(4))).in[0];
    else
      src = nl.outputs().at(ep.name.substr(std::string("output ").size()));
    ASSERT_GE(src, 0);
    EXPECT_DOUBLE_EQ(ep.arrival, ref.arrival(src)) << ep.name;
  }
}

TEST_P(StaProperty, UnitModeReproducesGateDelayArithmetic) {
  const Netlist nl = random_netlist(static_cast<unsigned>(GetParam()) * 7919u + 13u);

  // The historical algorithm, re-implemented directly on gate_delay():
  // levelized sweep, DFFs launch at their own delay.
  const auto order = nl.levelize();
  std::vector<double> arrival(static_cast<std::size_t>(nl.num_gates()), 0.0);
  for (std::int32_t id = 0; id < nl.num_gates(); ++id)
    if (nl.gate(id).type == GateType::kDff)
      arrival[static_cast<std::size_t>(id)] = gate_delay(GateType::kDff);
  for (const auto id : order) {
    const Gate& g = nl.gate(id);
    double worst = 0.0;
    for (int i = 0; i < gate_arity(g.type); ++i)
      worst = std::max(worst, arrival[static_cast<std::size_t>(g.in[i])]);
    arrival[static_cast<std::size_t>(id)] = worst + gate_delay(g.type);
  }
  double critical = 0.0;
  for (std::int32_t id = 0; id < nl.num_gates(); ++id) {
    const Gate& g = nl.gate(id);
    if (g.type == GateType::kDff && g.in[0] >= 0)
      critical = std::max(critical, arrival[static_cast<std::size_t>(g.in[0])]);
  }
  for (const auto& [name, id] : nl.outputs()) {
    (void)name;
    critical = std::max(critical, arrival[static_cast<std::size_t>(id)]);
  }

  const TimingReport rep = analyze_timing(nl);  // default = unit model
  EXPECT_DOUBLE_EQ(rep.critical_delay, critical) << "seed " << GetParam();
  // Unit cell_area must equal the netlist's own equivalent-gate area.
  EXPECT_DOUBLE_EQ(rep.cell_area, nl.area());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaProperty, ::testing::Range(0, kSeeds));

TEST(StaReport, EndpointsSortedWorstFirst) {
  const Netlist nl = random_netlist(42);
  const TimingReport rep = analyze_timing(nl);
  for (std::size_t i = 1; i < rep.endpoints.size(); ++i)
    EXPECT_GE(rep.endpoints[i - 1].arrival, rep.endpoints[i].arrival);
  if (!rep.endpoints.empty()) {
    EXPECT_DOUBLE_EQ(rep.endpoints.front().arrival, rep.critical_delay);
  }
}

TEST(StaReport, FormatCriticalPathNamesCells) {
  Netlist nl;
  const auto a = nl.add_input("a");
  nl.mark_output("o", nl.add_gate(GateType::kNand, a, a));
  diag::DiagEngine de;
  const DelayModel model = flow::delay_model(flow::default_library(), de);
  const TimingReport rep = analyze_timing(nl, model);
  const std::string text = format_critical_path(nl, model, rep);
  EXPECT_NE(text.find("asicpp_sc_hd__nand2_1"), std::string::npos);
  EXPECT_NE(text.find("input a"), std::string::npos);
  EXPECT_NE(text.find("output o"), std::string::npos);
}

}  // namespace
}  // namespace asicpp::netlist
