// Differential execution driver: one spec, every execution path.
//
// Elaborates a generated design once per engine and replays it through
// every representation the environment can translate the description into
// (section 4-6 of the paper). Engines are resolved by name through
// engine::Registry::global(); the built-in set, in canonical order:
//
//   iterative — interpreted CycleScheduler, iterative three-phase sweep
//   levelized — interpreted CycleScheduler, levelized static schedule
//               (falls back iteratively for unschedulable systems)
//   compiled  — CompiledSystem flat-tape simulation
//   cppgen    — the emitted standalone C++ simulator, compiled with the
//               host compiler, run, and its printed trace parsed back
//   gates     — whole-system synthesis to a gate netlist, simulated with
//               netlist::LevelizedSim, output buses read back as values
//   jit       — the in-process JIT (src/jit): the optimized tape emitted
//               as C++, compiled to a shared object and dlopen'd; it runs
//               the tape up to a cycle drawn from the seed (in the first
//               half of the run) and swaps to native code there, so each
//               fuzz seed also covers a tier swap
//   batched   — the lane-batched SoA evaluator (src/batch): the spec runs
//               in every lane of an N-wide batch, the reported trace comes
//               from lane seed % N, and lane invariance is asserted every
//               cycle — so each fuzz seed also sweeps lane positions
//
// Every engine produces a cycle-by-cycle trace of all component output
// nets; traces are compared bit for bit against the first engine that ran
// and the first divergence per pair is reported as a structured VERIFY-001
// diagnostic. Engines that cannot represent a spec (dataflow adapters
// have no compiled/gate image, untimed closures have no generated-code
// image) are skipped with VERIFY-003; an engine that throws mid-run is a
// finding in itself (VERIFY-002). An unknown engine name throws
// std::invalid_argument listing the registered names — the same message
// every selection surface (diff_run, asicpp-fuzz --engines, benches)
// produces.
//
// In addition to the engine axis, every spec is replayed with the
// optimizer pass pipeline disabled (`pass_axis`): each registered engine
// with Capabilities::pass_axis contributes one replay using its
// noopt_passes() pipeline (the interpreted engine falls back to the
// original recursive graph walk, the compiled engine to the raw,
// unoptimized tape). A divergence between the optimized reference and a
// passes-off replay is a VERIFY-005 finding — an optimization pass
// changed observable behaviour.
//
// A third axis exercises checkpoint/restore (`ckpt_axis`): every selected
// engine with Capabilities::checkpointable (iterative, levelized,
// compiled, jit, batched) is run to a cycle k, snapshotted through its save_state()
// stream, the snapshot is restored into a *freshly built* engine, and the
// run continues there. The stitched prefix+resumed trace must be
// bit-identical to that engine's straight-through trace; a mismatch is a
// VERIFY-006 finding — snapshot state is incomplete or restore perturbed
// the simulation. The cppgen and gates engines have no in-process
// snapshot surface and are covered transitively (they are compiled from
// the same scheduler state).
//
// Stable code registry (documented in DESIGN.md section 7):
//   VERIFY-001 cross-representation trace divergence
//   VERIFY-002 engine failed to execute the spec
//   VERIFY-003 engine skipped (spec outside the engine's domain)
//   VERIFY-004 auto-shrink summary (see verify/shrink.h)
//   VERIFY-005 optimizer pass pipeline changed observable behaviour
//   VERIFY-006 checkpoint/restore replay diverged from straight-through run
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "engine/engine.h"
#include "opt/options.h"
#include "verify/gen.h"

namespace asicpp::verify {

/// Test-only hook: perturb one engine's captured trace at (cycle, net) by
/// `delta`, faking a translation bug so the detection and shrinking
/// machinery can be exercised end to end. Addressed by net *name* so the
/// injected divergence survives structural shrinking.
struct TraceMutant {
  bool enabled = false;
  std::string engine = "iterative";  ///< registry name of the engine to mutate
  std::uint64_t cycle = 0;
  std::string net;
  double delta = 1.0;
};

struct DiffOptions {
  /// Registry names of the engines to run, in order; the first that runs
  /// is the reference trace. Empty = every registered engine in canonical
  /// order. Unknown names throw std::invalid_argument listing the
  /// registered set.
  std::vector<std::string> engines;
  /// Scratch directory for the generated-simulator engine (default:
  /// $TMPDIR or /tmp).
  std::string workdir;
  /// Host compiler for the generated simulator and the jit engine.
  std::string cxx = "c++";
  /// Artifact-store directory override for engines with cacheable compile
  /// products (jit). Empty = the $ASICPP_STORE_DIR / $XDG_CACHE_HOME
  /// resolution chain (see pipeline/artifact.h).
  std::string store_dir;
  /// Route VERIFY diagnostics into this engine (optional; the DiffResult
  /// carries the findings either way).
  diag::DiagEngine* diagnostics = nullptr;
  TraceMutant mutant;
  /// Optimizer pipeline applied to every engine's lowered graphs.
  opt::PassOptions passes{};
  /// Replay the spec with the optimizer disabled (recursive interpreter +
  /// raw compiled tape) and diff against the optimized reference;
  /// mismatches are VERIFY-005 findings.
  bool pass_axis = true;
  /// Snapshot each selected checkpointable engine at cycle k, restore into
  /// a fresh engine, and continue; mismatches against the straight-through
  /// trace are VERIFY-006 findings.
  bool ckpt_axis = true;
  /// Checkpoint cycle k for the ckpt axis. 0 (the default) derives a
  /// pseudo-random 1 <= k < cycles from the spec seed, so a fuzz campaign
  /// sweeps the checkpoint position across the trace.
  std::uint64_t ckpt_cycle = 0;
  /// Lane count for the batched engine's SoA replay (>= 1); forwarded as
  /// TraceOptions::lanes. The reported lane is seed % lanes.
  unsigned lanes = 4;
};

/// One engine's captured trace; `engine` is the registry name.
using EngineTrace = engine::Trace;

struct Divergence {
  std::string ref;    ///< reference engine (registry name)
  std::string other;  ///< diverging engine (registry name)
  std::uint64_t cycle = 0;
  std::string net;
  double ref_value = 0.0;
  double other_value = 0.0;
};

struct DiffResult {
  std::vector<std::string> probes;
  std::vector<EngineTrace> traces;
  /// First divergence of each non-reference engine against the reference.
  std::vector<Divergence> divergences;
  /// Passes-off replays (pass_axis) and their divergences against the
  /// optimized reference (VERIFY-005).
  std::vector<EngineTrace> noopt_traces;
  std::vector<Divergence> pass_divergences;
  /// Checkpoint-replay traces (ckpt_axis): prefix cycles run on a fresh
  /// engine, a snapshot handed to a second fresh engine, the rest run
  /// there. Divergences are against the same engine's straight-through
  /// trace (VERIFY-006).
  std::vector<EngineTrace> ckpt_traces;
  std::vector<Divergence> ckpt_divergences;
  /// Checkpoint cycle the ckpt axis actually used (0 when the axis was
  /// off or the spec was too short to snapshot mid-run).
  std::uint64_t ckpt_cycle = 0;

  int engines_ran() const;
  bool engine_failed() const;
  /// Clean: every selected engine either agreed cycle-for-cycle with the
  /// reference or was legitimately skipped, the passes-off replays agreed
  /// too, and every checkpoint replay resumed bit-identically.
  bool ok() const {
    return divergences.empty() && pass_divergences.empty() &&
           ckpt_divergences.empty() && !engine_failed();
  }
  /// The earliest divergence (by cycle), or nullptr.
  const Divergence* first() const;
  std::string summary() const;
};

/// Run `spec` through the selected engines and compare all traces.
DiffResult diff_run(const Spec& spec, const DiffOptions& opts = {});

/// Run many specs through diff_run across `jobs` worker lanes (1 = serial,
/// 0 = hardware). Deterministic by construction: results come back in spec
/// order, each spec gets a private DiagEngine sink, and those sinks are
/// merged into opts.diagnostics in spec order after every spec completes —
/// so results and diagnostics are byte-identical for any job count.
std::vector<DiffResult> diff_run_batch(const std::vector<Spec>& specs,
                                       const DiffOptions& opts = {},
                                       unsigned jobs = 1);

}  // namespace asicpp::verify
