// System-level synthesis: link several components (including an untimed
// RAM given a structural image) into one netlist and check it reproduces
// the compiled simulation cycle for cycle.
#include <cmath>
#include <gtest/gtest.h>

#include "fsm/fsm.h"
#include "netlist/equiv.h"
#include "netlist/netsim.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sim/compiled.h"
#include "sfg/clk.h"
#include "synth/system.h"

namespace asicpp::synth {
namespace {

using fixpt::Fixed;
using fixpt::Format;
using fsm::Fsm;
using fsm::State;
using fsm::always;
using fsm::cnd;
using netlist::LevelizedSim;
using netlist::read_bus;
using sched::CycleScheduler;
using sched::DispatchComponent;
using sched::FsmComponent;
using sched::SfgComponent;
using sched::UntimedComponent;
using sfg::Clk;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;

const Format kF{8, 3, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};

TEST(SystemSynth, ProducerConsumerPipeline) {
  Clk clk;
  CycleScheduler sched(clk);
  Reg counter("counter", clk, kF, 0.0);
  Sfg prod("prod");
  prod.out("o", counter.sig()).assign(counter, (counter + 0.5).cast(kF));
  SfgComponent cprod("producer", prod);
  Sig x = Sig::input("x", kF);
  Sfg cons("cons");
  cons.in(x).out("y", x + x);
  SfgComponent ccons("consumer", cons);
  cprod.bind_output("o", sched.net("data"));
  ccons.bind_input(x, sched.net("data"));
  ccons.bind_output("y", sched.net("result"));
  sched.add(cprod);
  sched.add(ccons);

  SystemSynthSpec spec;
  spec.observe = {"result"};
  netlist::Netlist nl;
  const auto rep = synthesize_system(sched, nl, spec);
  EXPECT_GT(rep.gates, 0);
  ASSERT_EQ(rep.components.size(), 2u);

  sim::CompiledSystem cs = sim::CompiledSystem::compile(sched);
  LevelizedSim sim(nl);
  const Format rf = fixpt::add_format(kF, kF);
  for (int t = 0; t < 40; ++t) {
    sim.settle();
    cs.cycle();
    const double expect = cs.net_value("result");
    EXPECT_EQ(read_bus(sim, "net_result", rf.wl, rf.is_signed),
              static_cast<long long>(std::llround(std::ldexp(expect, rf.frac_bits()))))
        << "cycle " << t;
    sim.cycle();
  }
}

TEST(SystemSynth, PinDrivenNetBecomesPrimaryInput) {
  Clk clk;
  CycleScheduler sched(clk);
  Sig pin = Sig::input("pin", kF);
  Reg r("r", clk, kF, 0.0);
  Sfg s("s");
  s.in(pin).assign(r, (r + pin).cast(kF)).out("o", r.sig());
  SfgComponent c("integ", s);
  c.bind_input(pin, sched.net("pin"));
  c.bind_output("o", sched.net("o"));
  sched.add(c);
  sched.net("pin").drive(Fixed(0.5));

  SystemSynthSpec spec;
  spec.net_fmt["pin"] = kF;
  spec.observe = {"o"};
  netlist::Netlist nl;
  synthesize_system(sched, nl, spec);
  ASSERT_TRUE(nl.inputs().count("net_pin[0]"));

  LevelizedSim sim(nl);
  netlist::set_bus(sim, "net_pin", kF.wl,
                   static_cast<long long>(std::llround(std::ldexp(0.5, kF.frac_bits()))));
  for (int t = 0; t < 6; ++t) sim.cycle();
  sim.settle();
  EXPECT_EQ(read_bus(sim, "net_o", kF.wl, true),
            static_cast<long long>(std::llround(std::ldexp(3.0, kF.frac_bits()))));
}

TEST(SystemSynth, DispatchWithRamMatchesCompiledSim) {
  // The controller/dispatch/RAM system from the scheduler tests.
  Clk clk;
  CycleScheduler sched(clk);
  const Format bitf{1, 1, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap};
  const Format af{4, 4, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap};
  Reg phase("phase", clk, bitf, 0.0);
  Reg addr("addr", clk, af, 0.0);
  Sfg emit_w("emit_w"), emit_r("emit_r");
  emit_w.out("instr", Sig(1.0) + 0.0).out("addr", addr.sig()).assign(phase, Sig(1.0) + 0.0);
  emit_r.out("instr", Sig(2.0) + 0.0)
      .out("addr", addr.sig())
      .assign(phase, Sig(0.0) + 0.0)
      .assign(addr, addr + 1.0);
  Fsm ctl("ctl");
  State s = ctl.initial("s");
  s << !cnd(phase) << emit_w << s;
  s << cnd(phase) << emit_r << s;
  FsmComponent cctl("ctl", ctl);

  const Format df{12, 7, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};
  Sig dp_addr = Sig::input("dp_addr", af);
  Sig rdata = Sig::input("rdata", df);
  Reg acc("acc", clk, df, 0.0);
  Sfg wr("wr"), rd("rd");
  wr.in(dp_addr).out("wdata", dp_addr * 2.0 + 1.0).out("we", Sig(1.0) + 0.0);
  rd.in(rdata)
      .out("wdata", Sig(0.0) + 0.0)
      .out("we", Sig(0.0) + 0.0)
      .assign(acc, (acc + rdata).cast(df));
  DispatchComponent dp("dp", sched.net("instr"));
  dp.add_instruction(1, wr);
  dp.add_instruction(2, rd);
  dp.bind_input(dp_addr, sched.net("addr"));
  dp.bind_input(rdata, sched.net("rdata"));
  dp.bind_output("wdata", sched.net("wdata"));
  dp.bind_output("we", sched.net("we"));
  dp.bind_output("acc_probe", sched.net("acc_probe"));
  wr.out("acc_probe", acc.sig());
  rd.out("acc_probe", acc.sig());

  std::vector<double> storage(16, 0.0);
  UntimedComponent ram("ram", [&storage, df](const std::vector<Fixed>& in, std::vector<Fixed>& out) {
    const bool we = in[0].value() != 0.0;
    const auto a = static_cast<std::size_t>(in[1].value()) % 16;
    out.push_back(Fixed(storage[a]));
    if (we) storage[a] = fixpt::quantize(in[2].value(), df);
  });
  ram.bind_input(sched.net("we"));
  ram.bind_input(sched.net("addr"));
  ram.bind_input(sched.net("wdata"));
  ram.bind_output(sched.net("rdata"));

  cctl.bind_output("instr", sched.net("instr"));
  cctl.bind_output("addr", sched.net("addr"));
  sched.add(cctl);
  sched.add(dp);
  sched.add(ram);

  SystemSynthSpec spec;
  spec.untimed["ram"] = make_ram_builder(4, df);
  spec.net_fmt["rdata"] = df;
  spec.observe = {"acc_probe"};
  netlist::Netlist nl;
  const auto rep = synthesize_system(sched, nl, spec);
  EXPECT_GT(rep.dffs, 16 * df.wl);  // the RAM words dominate

  sim::CompiledSystem cs = sim::CompiledSystem::compile(sched);
  LevelizedSim sim(nl);
  for (int t = 0; t < 24; ++t) {
    sim.settle();
    cs.cycle();
    const double expect = cs.net_value("acc_probe");
    EXPECT_EQ(read_bus(sim, "net_acc_probe", df.wl, df.is_signed),
              static_cast<long long>(std::llround(std::ldexp(expect, df.frac_bits()))))
        << "cycle " << t;
    sim.cycle();
  }
}

TEST(SystemSynth, MissingBuilderOrFormatRejected) {
  Clk clk;
  CycleScheduler sched(clk);
  UntimedComponent u("mystery", [](const std::vector<Fixed>& in, std::vector<Fixed>& out) { out = in; });
  u.bind_input(sched.net("a"));
  u.bind_output(sched.net("b"));
  sched.add(u);
  netlist::Netlist nl;
  SystemSynthSpec spec;
  EXPECT_THROW(synthesize_system(sched, nl, spec), std::invalid_argument);
  spec.net_fmt["b"] = kF;
  netlist::Netlist nl2;
  EXPECT_THROW(synthesize_system(sched, nl2, spec), std::invalid_argument);
}

}  // namespace
}  // namespace asicpp::synth
