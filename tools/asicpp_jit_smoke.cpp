// JIT engine smoke check for CI.
//
// Builds the Fig 6 circular system (two timed components plus an untimed
// native closure) and the full DECT transceiver, runs both through the
// in-process JIT cold (empty artifact cache) and warm (second compile of
// the same IR), cross-checks every probed net against the interpreted
// compiled tape, and prints one markdown table suitable for a CI job
// summary:
//
//   | design | engine path | compile s | cache | cycles/s |
//
// Exit status: 0 everything native and bit-identical, 1 a trace diverged
// or a warm compile missed the cache, 2 the toolchain was unavailable
// (the JIT fell back to the interpreted tape — advisory, not a failure,
// so a runner without a host compiler does not break CI; pass --strict to
// turn that into a failure too).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dect/vliw.h"
#include "fixpt/fixed.h"
#include "jit/jit.h"
#include "sched/cyclesched.h"
#include "sched/untimed.h"
#include "sfg/clk.h"
#include "sfg/sig.h"
#include "sim/compiled.h"

using namespace asicpp;
using fixpt::Fixed;

namespace {

const fixpt::Format kF{16, 7, true, fixpt::Quant::kRound,
                       fixpt::Overflow::kSaturate};

/// The paper's Fig 6 three-component circular system; the untimed closure
/// exercises the JIT's host-callback path.
struct Fig6System {
  sfg::Clk clk;
  sched::CycleScheduler sched{clk};
  sfg::Reg state{"state", clk, kF, 1.0};
  sfg::Sig in1 = sfg::Sig::input("in1", kF);
  sfg::Sfg s1{"s1"};
  sched::SfgComponent c1{"comp1", s1};
  sfg::Sig in2 = sfg::Sig::input("in2", kF);
  sfg::Sfg s2{"s2"};
  sched::SfgComponent c2{"comp2", s2};
  sched::UntimedComponent c3{"comp3", [](const std::vector<Fixed>& in, std::vector<Fixed>& out) {
    out.push_back(in[0] + Fixed(1.0));
  }};

  Fig6System() {
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
  }
};

struct SmokeRow {
  std::string design;
  std::string path;      // "native" or "tape fallback"
  double compile_s = 0.0;
  bool from_cache = false;
  double cycles_per_s = 0.0;
};

int g_failures = 0;
bool g_fallback = false;
std::vector<SmokeRow> g_rows;

/// Run `js` for `cycles` cycles, checking `nets` against `cs` every cycle.
/// Returns the measured JIT cycles/s (cross-check cycles excluded from the
/// timed region).
template <typename DriveFn>
double run_checked(sim::CompiledSystem& js, sim::CompiledSystem& cs,
                   const std::vector<std::string>& nets, std::uint64_t cycles,
                   DriveFn&& drive_both) {
  for (std::uint64_t c = 0; c < cycles; ++c) {
    drive_both(c);
    js.cycle();
    cs.cycle();
    for (const std::string& n : nets) {
      if (js.net_value(n) != cs.net_value(n)) {
        std::fprintf(stderr,
                     "FAIL: net %s diverged at cycle %llu: jit %.17g vs "
                     "tape %.17g\n",
                     n.c_str(), static_cast<unsigned long long>(c),
                     js.net_value(n), cs.net_value(n));
        ++g_failures;
        return 0.0;
      }
    }
  }
  const std::uint64_t timed = cycles * 4;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t c = 0; c < timed; ++c) {
    drive_both(cycles + c);
    js.cycle();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return secs > 0.0 ? static_cast<double>(timed) / secs : 0.0;
}

void record(const std::string& design, const sim::CompiledSystem& js,
            bool expect_cache_hit, double rate) {
  SmokeRow row;
  row.design = design;
  row.path = js.native() ? "native" : "tape fallback";
  row.compile_s = js.compile_seconds();
  row.from_cache = js.from_cache();
  row.cycles_per_s = rate;
  g_rows.push_back(row);
  if (!js.native()) {
    g_fallback = true;
    return;
  }
  if (expect_cache_hit && !js.from_cache()) {
    std::fprintf(stderr, "FAIL: %s warm compile missed the artifact cache\n",
                 design.c_str());
    ++g_failures;
  }
}

void smoke_fig6(const jit::JitOptions& jo, bool warm) {
  Fig6System sys;
  sim::CompiledSystem js = jit::compile(sys.sched, {}, jo);
  Fig6System ref;
  sim::CompiledSystem cs = sim::CompiledSystem::compile(ref.sched);
  const double rate = run_checked(js, cs, {"n12", "n23", "n31"}, 2000,
                                  [](std::uint64_t) {});
  record(warm ? "fig6 (warm)" : "fig6 (cold)", js, warm, rate);
}

void smoke_dect(const jit::JitOptions& jo, bool warm) {
  dect::DectTransceiver t;
  t.drive_sample(0.5);
  sim::CompiledSystem js = jit::compile(t.scheduler(), {}, jo);
  dect::DectTransceiver r;
  r.drive_sample(0.5);
  sim::CompiledSystem cs = sim::CompiledSystem::compile(r.scheduler());
  const double rate =
      run_checked(js, cs, {"sample", "hold_request"}, 500, [&](std::uint64_t c) {
        const double v = (c % 7) * 0.125 - 0.375;
        t.drive_sample(v);
        r.drive_sample(v);
      });
  record(warm ? "DECT (warm)" : "DECT (cold)", js, warm, rate);
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--strict") == 0) strict = true;

  jit::JitOptions jo;  // store dir via $ASICPP_STORE_DIR (CI sets it)
  std::printf("jit artifact cache: %s\n\n", jit::cache_dir(jo).c_str());

  smoke_fig6(jo, /*warm=*/false);
  smoke_fig6(jo, /*warm=*/true);
  smoke_dect(jo, /*warm=*/false);
  smoke_dect(jo, /*warm=*/true);

  std::printf("| design | engine path | compile s | cache | cycles/s |\n");
  std::printf("|---|---|---|---|---|\n");
  for (const SmokeRow& r : g_rows)
    std::printf("| %s | %s | %.3f | %s | %.3g |\n", r.design.c_str(),
                r.path.c_str(), r.compile_s, r.from_cache ? "hit" : "miss",
                r.cycles_per_s);

  if (g_failures > 0) return 1;
  if (g_fallback) {
    std::fprintf(stderr,
                 "note: JIT fell back to the interpreted tape "
                 "(host toolchain unavailable?)\n");
    return strict ? 1 : 2;
  }
  return 0;
}
