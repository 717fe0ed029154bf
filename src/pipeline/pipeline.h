// Unified compile pipeline.
//
// One entry point turns *any* design description into a live engine
// instance: a `CompileRequest` carries either corpus/service spec text
// (parsed by verify::from_text), an already-elaborated verify::Spec, or a
// caller-owned live scheduler, plus the engine name and the per-engine
// knobs (pass pipeline, host compiler, artifact-store directory, batch
// lanes). `compile()` runs the staged flow
//
//   parse      spec text -> verify::Spec          (spec_text requests)
//   elaborate  Spec -> validated design + probes
//   bind       design -> engine::Instance          (Registry + instantiate
//                                                   / bind for live designs)
//
// and returns a `CompileResult` owning the instance, with per-stage wall
// times, the content-addressed spec key, and whether the engine served its
// compile artifact from the shared ArtifactStore (the jit engine's warm
// path). A cold jit bind is tiered by default: it returns once the unit is
// emitted, and native code takes over from the tape when its background
// build lands (CompileRequest::swap_at unset). diff_run, the benches,
// asicpp-fuzz's corpus replays and every simulation-service session go
// through this one path, so "how a design becomes something that cycles"
// exists exactly once.
//
// Failures are values, not exceptions: `ok == false` with a one-line
// `error`, and (when a DiagEngine is attached) a structured finding:
//
//   PIPE-001  spec text failed to parse / validate
//   PIPE-002  unknown engine name (lists the registered set)
//   PIPE-003  engine failed to instantiate the design
//   PIPE-004  spec outside the engine's domain (skip, not a crash)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "engine/engine.h"
#include "opt/options.h"
#include "verify/gen.h"

namespace asicpp::pipeline {

struct CompileRequest {
  /// Canonical spec text (verify::to_text form). Used when `has_spec` and
  /// `design` are not set.
  std::string spec_text;
  /// Already-elaborated spec; takes precedence over spec_text.
  verify::Spec spec;
  bool has_spec = false;
  /// Caller-owned live scheduler (takes precedence over both spec forms;
  /// in_process engines only). The caller keeps it alive for the
  /// instance's lifetime.
  sched::CycleScheduler* design = nullptr;
  /// Probe list for design-based requests (spec requests derive theirs).
  std::vector<std::string> probes;

  /// Registry name of the engine to bind.
  std::string engine = "compiled";
  opt::PassOptions passes{};
  /// Scratch directory for engines that shell out (cppgen).
  std::string workdir;
  /// Host compiler for engines that compile generated code (cppgen, jit).
  std::string cxx = "c++";
  /// Artifact-store directory override (empty = the shared env chain).
  std::string store_dir;
  /// Lane count for the batched engine.
  unsigned lanes = 4;
  /// jit: where native code takes over from the tape
  /// (jit::JitOptions::swap_at). Unset: return once the unit is emitted and
  /// cycle on the tape until the native code, built in the background,
  /// takes over at a cycle boundary. k: at cycle k, which waits for it; 0
  /// waits in compile() (diff_run, and benches that time native code).
  std::optional<std::uint64_t> swap_at;
  /// Optional sink for PIPE diagnostics and the engine's own findings
  /// (JIT-00x). A tiered jit reports its build's findings at a later cycle
  /// boundary, so a sink must outlive the instance.
  diag::DiagEngine* diagnostics = nullptr;
};

struct StageTiming {
  std::string stage;  ///< "parse", "elaborate" or "bind"
  double seconds = 0.0;
};

struct CompileResult {
  bool ok = false;
  std::string error;  ///< one line; the PIPE code is mirrored in `code`
  std::string code;   ///< "" when ok, else "PIPE-001".."PIPE-004"

  std::string engine;
  /// The elaborated spec (spec-based requests; default-constructed for
  /// design-based ones — check spec_based).
  verify::Spec spec;
  bool spec_based = false;
  /// Content key of the request: FNV-1a over the canonical spec text, the
  /// engine name and the engine-relevant options, prefixed with the store
  /// revision. Two sessions with equal keys share compile artifacts.
  std::uint64_t spec_key = 0;
  /// The engine served its compile artifact from the shared ArtifactStore.
  bool store_hit = false;
  /// Seconds the engine spent in an external compiler (0 on a store hit,
  /// and for a tiered bind, which does not wait for the compiler).
  double compile_seconds = 0.0;
  std::vector<StageTiming> stages;
  /// Nets to observe: the spec's probe list, or the request's for
  /// design-based requests.
  std::vector<std::string> probes;
  /// The live simulation; null when !ok.
  std::unique_ptr<engine::Instance> instance;
};

/// Run the pipeline. Never throws for request-level failures (bad text,
/// unknown engine, domain limits, engine crashes) — those come back as
/// ok == false.
CompileResult compile(const CompileRequest& req);

/// The content key `compile` assigns to a spec-based request (exposed so
/// tests and the fuzzer's journal fingerprint can reason about identity).
std::uint64_t request_key(const verify::Spec& spec, const CompileRequest& req);

}  // namespace asicpp::pipeline
