#include "flow/examples.h"

#include <stdexcept>

#include "dect/hcor.h"
#include "dect/vliw.h"
#include "fixpt/fixed.h"
#include "sched/cyclesched.h"
#include "sched/untimed.h"
#include "sfg/clk.h"
#include "sfg/sig.h"
#include "synth/dpsynth.h"
#include "synth/system.h"

namespace asicpp::flow {
namespace {

using fixpt::Fixed;

/// The paper's Fig 6 three-component circular system (same recipe as the
/// JIT smoke tool): two timed SFG components plus an untimed increment,
/// closed into a feedback ring.
Example build_fig6() {
  const fixpt::Format kF{16, 7, true, fixpt::Quant::kRound,
                         fixpt::Overflow::kSaturate};
  sfg::Clk clk;
  sched::CycleScheduler sched(clk);
  sfg::Reg state("state", clk, kF, 1.0);
  sfg::Sig in1 = sfg::Sig::input("in1", kF);
  sfg::Sfg s1("s1");
  sched::SfgComponent c1("comp1", s1);
  sfg::Sig in2 = sfg::Sig::input("in2", kF);
  sfg::Sfg s2("s2");
  sched::SfgComponent c2("comp2", s2);
  sched::UntimedComponent c3("comp3", [](const std::vector<Fixed>& in, std::vector<Fixed>& out) {
    out.push_back(in[0] + Fixed(1.0));
  });
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

  synth::SystemSynthSpec spec;
  spec.net_fmt["n31"] = kF;
  spec.untimed["comp3"] = [kF](synth::WordBuilder& wb,
                               const std::vector<synth::Bus>& in) {
    return std::vector<synth::Bus>{
        wb.quantize(wb.add(in[0], wb.constant(1.0, kF), kF), kF)};
  };
  spec.observe = {"n12", "n23", "n31"};

  Example ex;
  ex.name = "fig6";
  ex.description = "Fig 6 circular system: two SFG components + an untimed "
                   "increment, closed into a ring";
  ex.clock_period_ns = 20.0;
  synth::synthesize_system(sched, ex.nl, spec);
  return ex;
}

/// The simulation service's quickstart design: a 1-tap moving average.
Example build_quickstart() {
  const fixpt::Format kFx{12, 3, true, fixpt::Quant::kRound,
                          fixpt::Overflow::kSaturate};
  sfg::Clk clk;
  sched::CycleScheduler sched(clk);
  sfg::Reg z1("z1", clk, kFx, 0.0);
  sfg::Sig x = sfg::Sig::input("x", kFx);
  sfg::Sfg avg("avg");
  sched::SfgComponent comp("mavg", avg);
  avg.in(x).out("y", (x + z1) >> 1).assign(z1, x);
  comp.bind_input(x, sched.net("x"));
  comp.bind_output("y", sched.net("y"));
  sched.add(comp);
  sched.net("x").drive(Fixed(0.0));  // pin net: becomes a primary input

  synth::SystemSynthSpec spec;
  spec.net_fmt["x"] = kFx;
  spec.observe = {"y"};

  Example ex;
  ex.name = "quickstart";
  ex.description = "service quickstart: 1-tap moving average";
  ex.clock_period_ns = 10.0;
  synth::synthesize_system(sched, ex.nl, spec);
  return ex;
}

/// The HCOR header correlator, component-synthesized exactly like the
/// hdl_flow example's HDL path.
Example build_hcor() {
  dect::Hcor hcor;
  Example ex;
  ex.name = "hcor";
  ex.description = "DECT header correlator (Table 1's 6 Kgate design)";
  ex.clock_period_ns = 15.0;
  synth::synthesize_component(hcor.component(), ex.nl);
  return ex;
}

/// The DECT transceiver in structural-tables mode (fully timed: ROM and
/// RAM as gates), scaled down so the golden file stays reviewable.
Example build_dect() {
  dect::VliwParams p;
  p.num_datapaths = 2;
  p.num_rams = 1;
  p.rom_length = 6;
  p.structural_tables = true;
  dect::DectTransceiver t(p);
  t.drive_sample(0.0);

  synth::SystemSynthSpec spec;
  spec.net_fmt["sample"] = dect::kVliwData;
  spec.net_fmt["hold_request"] = dect::kVliwBit;
  for (int d = 0; d < p.num_datapaths; ++d)
    spec.observe.push_back("data_" + std::to_string(d));

  Example ex;
  ex.name = "dect";
  ex.description = "DECT transceiver, structural tables (2 datapaths, "
                   "1 RAM, 6-word ROM)";
  ex.clock_period_ns = 40.0;
  synth::synthesize_system(t.scheduler(), ex.nl, spec);
  return ex;
}

}  // namespace

std::vector<std::string> example_names() {
  return {"fig6", "quickstart", "hcor", "dect"};
}

Example build_example(const std::string& name) {
  if (name == "fig6") return build_fig6();
  if (name == "quickstart") return build_quickstart();
  if (name == "hcor") return build_hcor();
  if (name == "dect") return build_dect();
  throw std::invalid_argument("unknown flow example: " + name);
}

std::vector<Example> build_all_examples() {
  std::vector<Example> all;
  for (const std::string& name : example_names())
    all.push_back(build_example(name));
  return all;
}

}  // namespace asicpp::flow
