// Table 1, HCOR rows: the 6 Kgate header correlator simulated at every
// description level of the paper —
//   C++ (interpreted objects)   : the cycle scheduler walking the SFG DAG
//   C++ (compiled)              : the regenerated tape simulator
//   VHDL (RT)  [stand-in]       : the RT description on the event kernel
//   VHDL (netlist) [stand-in]   : event-driven gate simulation of the
//                                 synthesized, optimized netlist
// plus the source-code-size and process-size columns.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "batch/batch.h"
#include "common.h"
#include "dect/hcor.h"
#include "eventsim/elaborate.h"
#include "hdl/hdlgen.h"
#include "jit/jit.h"
#include "netlist/netsim.h"
#include "sim/compiled.h"
#include "synth/dpsynth.h"
#include "synth/optimize.h"

using namespace asicpp;
using dect::Hcor;
using dect::HcorRt;

namespace {

unsigned g_lfsr = 0xBEEF;
int noise_bit() {
  g_lfsr = (g_lfsr >> 1) ^ (static_cast<unsigned>(-(static_cast<int>(g_lfsr & 1u))) & 0xB400u);
  return static_cast<int>(g_lfsr & 1u);
}

netlist::Netlist& hcor_netlist() {
  static netlist::Netlist nl = [] {
    Hcor h;
    netlist::Netlist raw;
    synth::synthesize_component(h.component(), raw);
    return synth::optimize(raw);
  }();
  return nl;
}

void BM_Hcor_InterpretedObjects(benchmark::State& state) {
  Hcor h;
  for (auto _ : state) h.step(noise_bit());
  state.counters["cycles/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Hcor_InterpretedObjects);

void BM_Hcor_CompiledCode(benchmark::State& state) {
  Hcor h;
  h.scheduler().net("rx").drive(fixpt::Fixed(1.0));
  sim::CompiledSystem cs = sim::CompiledSystem::compile(h.scheduler());
  for (auto _ : state) {
    h.scheduler().net("rx").drive(fixpt::Fixed(noise_bit() ? 1.0 : 0.0));
    cs.cycle();
  }
  state.counters["cycles/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["proc_bytes"] = static_cast<double>(cs.footprint_bytes());
}
BENCHMARK(BM_Hcor_CompiledCode);

// The in-process JIT: the same optimized tape emitted as C++, compiled to
// a shared object once (cached across runs), and driven over the live slot
// arrays — the paper's compiled-code speed without leaving the process.
// jit_native = 0 means the toolchain was unavailable and the tape fallback
// was measured instead.
void BM_Hcor_JitCompiled(benchmark::State& state) {
  Hcor h;
  h.scheduler().net("rx").drive(fixpt::Fixed(1.0));
  jit::JitSystem js = jit::JitSystem::compile(h.scheduler());
  for (auto _ : state) {
    h.scheduler().net("rx").drive(fixpt::Fixed(noise_bit() ? 1.0 : 0.0));
    js.cycle();
  }
  state.counters["cycles/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["proc_bytes"] = static_cast<double>(js.footprint_bytes());
  state.counters["jit_native"] = js.native() ? 1.0 : 0.0;
  state.counters["jit_from_cache"] = js.from_cache() ? 1.0 : 0.0;
  state.counters["jit_compile_s"] = js.compile_seconds();
}
BENCHMARK(BM_Hcor_JitCompiled);

// Multi-instance throughput: one 8-lane SoA batch vs 8 independent
// compiled-tape simulators, every instance fed the same noise stream (a
// pin drive on the shared sched::Net broadcasts to all lanes, exactly
// matching the fleet's per-instance drive). cycles/s is the aggregate
// instance-cycle rate in both variants.
constexpr unsigned kBatchLanes = 8;

void BM_Hcor_Batched(benchmark::State& state) {
  Hcor h;
  h.scheduler().net("rx").drive(fixpt::Fixed(1.0));
  batch::BatchedSystem bs = batch::BatchedSystem::compile(h.scheduler(), kBatchLanes);
  for (auto _ : state) {
    h.scheduler().net("rx").drive(fixpt::Fixed(noise_bit() ? 1.0 : 0.0));
    bs.cycle();
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatchLanes,
      benchmark::Counter::kIsRate);
  state.counters["lanes"] = kBatchLanes;
  state.counters["proc_bytes"] = static_cast<double>(bs.footprint_bytes());
}
BENCHMARK(BM_Hcor_Batched);

void BM_Hcor_CompiledFleet(benchmark::State& state) {
  std::vector<std::unique_ptr<Hcor>> fleet;
  std::vector<sim::CompiledSystem> sims;
  sims.reserve(kBatchLanes);
  for (unsigned i = 0; i < kBatchLanes; ++i) {
    fleet.push_back(std::make_unique<Hcor>());
    fleet.back()->scheduler().net("rx").drive(fixpt::Fixed(1.0));
    sims.push_back(sim::CompiledSystem::compile(fleet.back()->scheduler()));
  }
  for (auto _ : state) {
    const double rx = noise_bit() ? 1.0 : 0.0;
    for (unsigned i = 0; i < kBatchLanes; ++i) {
      fleet[i]->scheduler().net("rx").drive(fixpt::Fixed(rx));
      sims[i].cycle();
    }
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatchLanes,
      benchmark::Counter::kIsRate);
  state.counters["lanes"] = kBatchLanes;
}
BENCHMARK(BM_Hcor_CompiledFleet);

void BM_Hcor_RtEventDriven(benchmark::State& state) {
  HcorRt rt;
  for (auto _ : state) rt.step(noise_bit());
  state.counters["cycles/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["proc_bytes"] = static_cast<double>(rt.kernel().footprint_bytes());
}
BENCHMARK(BM_Hcor_RtEventDriven);

void BM_Hcor_RtElaborated(benchmark::State& state) {
  // The generated-RT path: the same captured design, auto-elaborated onto
  // the event kernel (what simulating the generated RT VHDL costs).
  Hcor h;
  eventsim::Kernel k;
  eventsim::RtModel rt(k, h.scheduler());
  for (auto _ : state) {
    h.scheduler().net("rx").drive(fixpt::Fixed(noise_bit() ? 1.0 : 0.0));
    rt.tick();
  }
  state.counters["cycles/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["proc_bytes"] = static_cast<double>(k.footprint_bytes());
}
BENCHMARK(BM_Hcor_RtElaborated);

void BM_Hcor_NetlistEventDriven(benchmark::State& state) {
  netlist::EventSim sim(hcor_netlist());
  sim.settle();
  for (auto _ : state) {
    sim.set_input("rx[0]", noise_bit() != 0);
    sim.cycle();
  }
  state.counters["cycles/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["proc_bytes"] = static_cast<double>(sim.footprint_bytes());
}
BENCHMARK(BM_Hcor_NetlistEventDriven);

void BM_Hcor_NetlistLevelized(benchmark::State& state) {
  netlist::LevelizedSim sim(hcor_netlist());
  for (auto _ : state) {
    sim.set_input("rx[0]", noise_bit() != 0);
    sim.cycle();
  }
  state.counters["cycles/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Hcor_NetlistLevelized);

}  // namespace

// The paper's actual compiled-code methodology: regenerate the design as
// C++ source, compile it with the host compiler, and time the resulting
// binary. Returns cycles/second (0 on any failure).
double measure_generated_binary(std::uint64_t cycles) {
  Hcor h;
  h.scheduler().net("rx").drive(fixpt::Fixed(1.0));
  sim::CompiledSystem cs = sim::CompiledSystem::compile(h.scheduler());
  const std::string dir = "/tmp";
  const std::string src = dir + "/hcor_gen_bench.cpp";
  const std::string bin = dir + "/hcor_gen_bench";
  {
    std::ofstream os(src);
    cs.emit_cpp(os, /*watch_nets=*/{}, cycles);  // no per-cycle printing
  }
  if (std::system(("c++ -O2 -std=c++17 -o " + bin + " " + src).c_str()) != 0) return 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  if (std::system(bin.c_str()) != 0) return 0.0;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return secs > 0.0 ? static_cast<double>(cycles) / secs : 0.0;
}

int main(int argc, char** argv) {
  using asicpp::bench::count_lines_between;
  using asicpp::bench::count_string_lines;

  // Smoke mode (CI): skip the netlist synthesis report and the 20 M-cycle
  // generated-binary timing; the registered benchmarks below still run and
  // the JSON report is still written.
  if (std::getenv("ASICPP_BENCH_SMOKE") != nullptr) {
    benchmark::Initialize(&argc, argv);
    asicpp::bench::JsonReporter reporter("table1_hcor");
    benchmark::RunSpecifiedBenchmarks(&reporter);
    return 0;
  }

  std::printf("== Table 1 / HCOR: design size and source code size ==\n");
  const auto& nl = hcor_netlist();
  std::printf("gates: %d comb + %d dff (area %.0f eq-gates, depth %d)"
              "   [paper: 6K gates]\n",
              nl.num_comb(), nl.num_dff(), nl.area(), nl.depth());

  const long cpp_lines =
      count_lines_between("src/dect/hcor.cpp", "--- cycle-true description ---",
                          "--- RT description");
  const long rt_lines =
      count_lines_between("src/dect/hcor.cpp", "--- RT description", "");
  Hcor h;
  const auto vhdl = hdl::generate_component(hdl::Dialect::kVhdl, h.component());
  std::ostringstream gen_cpp;
  sim::CompiledSystem::compile(h.scheduler()).emit_cpp(gen_cpp, {"detect"}, 1);
  std::printf("source lines:  C++(objects) %ld | RT(event) %ld | generated VHDL %ld"
              " | generated C++ %ld\n",
              cpp_lines, rt_lines, count_string_lines(vhdl.full),
              count_string_lines(gen_cpp.str()));
  std::printf("paper shape: C++ objects ~5x more compact than RT HDL; netlist huge\n");

  // The real Fig 7 path: generated C++ through the host compiler.
  const double gen_rate = measure_generated_binary(20'000'000);
  if (gen_rate > 0.0)
    std::printf("generated C++ recompiled with c++ -O2: %.3g Mcycles/s "
                "(includes process startup)\n\n",
                gen_rate / 1e6);
  else
    std::printf("generated-C++ timing unavailable (no host compiler?)\n\n");

  benchmark::Initialize(&argc, argv);
  asicpp::bench::JsonReporter reporter("table1_hcor");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
