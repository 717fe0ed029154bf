// Unified execution-engine registry.
//
// Every way the environment can execute one design description — the
// interpreted cycle scheduler (iterative or levelized), the compiled-tape
// simulator, the in-process JIT, the regenerated standalone C++ simulator,
// synthesized gates, the lane-batched SoA evaluator — is an `Engine`: a named, capability-tagged object
// that can replay a verify::Spec into a cycle-by-cycle trace. The
// `Registry` resolves engines by name, so every surface that selects
// engines (diff_run, asicpp-fuzz --engines, bench variant selection, the
// pipeline and the simulation service) shares one name set and one error
// message for unknown names, and a new engine becomes available everywhere
// with a single registration call.
//
// The execution surface of every engine is one abstraction, `Instance`: a
// live simulation that can cycle, be probed and poked, and (for engines
// with a snapshot surface) save/restore its state. Engines produce
// instances two ways — `instantiate()` materializes a verify::Spec into a
// private System, `bind()` attaches to a caller-owned live scheduler (the
// bench and service path, in_process engines only). The shared
// `Engine::trace()` / `trace_ckpt()` loops drive instances, so the
// per-engine code is exactly the instance construction and the probe/poke
// plumbing — the capture loops formerly duplicated per engine live here
// once.
//
// Capability flags replace the per-engine switch statements the
// differential driver used to carry:
//
//   checkpointable — has an in-process save_state/restore_state surface,
//                    so the VERIFY-006 checkpoint axis applies;
//   pass_aware     — consumes opt::PassOptions (TraceOptions::passes);
//   pass_axis      — contributes a passes-off replay to the VERIFY-005
//                    axis (noopt_passes() names the pipeline to use);
//   in_process     — can be bound to a live scheduler as an Instance for
//                    benchmarking and service sessions (bind()).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "opt/options.h"
#include "verify/gen.h"

namespace asicpp::engine {

struct Capabilities {
  bool checkpointable = false;
  bool pass_aware = false;
  bool pass_axis = false;
  bool in_process = false;
};

/// Per-trace knobs shared by every engine; engines ignore what they cannot
/// consume (pass_aware / external-toolchain engines).
struct TraceOptions {
  /// Optimizer pipeline applied to the lowered graphs (pass-aware engines).
  opt::PassOptions passes{};
  /// Scratch directory for engines that shell out (cppgen). Empty = $TMPDIR
  /// or /tmp.
  std::string workdir;
  /// Host compiler for engines that compile generated code (cppgen, jit).
  std::string cxx = "c++";
  /// Artifact-store directory override for engines with cacheable compile
  /// products (jit). Empty = the $ASICPP_STORE_DIR / $XDG_CACHE_HOME
  /// resolution chain (see pipeline/artifact.h).
  std::string store_dir;
  /// Lane count for the batched engine: the spec replays in every lane of
  /// an N-wide SoA batch, the reported trace comes from lane seed % N, and
  /// every cycle the engine asserts lane invariance (any lane diverging
  /// from lane 0 is a determinism-contract violation reported via
  /// Trace::fail_reason). Other engines ignore it. 0 is treated as 1.
  unsigned lanes = 4;
  /// jit: where native code takes over from the tape
  /// (jit::JitOptions::swap_at). Unset: once its build lands, with no
  /// wait. k: at cycle k, which waits for the build. The trace loops keep
  /// 0, so they exercise native code from the swap cycle on.
  std::optional<std::uint64_t> swap_at = 0;
  /// Sink for the engine's own findings (JIT-00x); null = the engine's
  /// own. A tiered jit reports at a later cycle boundary, so the sink must
  /// outlive the instance.
  diag::DiagEngine* diagnostics = nullptr;
};

/// Which code a tiered engine (jit) runs: it starts on the compiled tape
/// and swaps to native code at a cycle boundary once that is built.
struct Tier {
  bool native = false;
  std::uint64_t swap_cycle = 0;  ///< first cycle run natively (when native)
  /// The open reused a stored compile artifact (no compiler ran).
  bool from_cache = false;
  /// Wall-clock seconds spent in the host compiler (0 on a store hit, and
  /// until a background build is taken over).
  double compile_seconds = 0.0;
};

/// One engine's replay of a spec. `values[cycle][probe]` follows
/// Spec::probes() order.
struct Trace {
  std::string engine;
  bool ran = false;
  std::string skip_reason;  ///< non-empty: spec outside the engine's domain
  std::string fail_reason;  ///< non-empty: the engine blew up mid-run
  std::vector<std::vector<double>> values;
};

/// One live simulation, engine-agnostic: the unit the shared trace loops,
/// the bench harness and the service's sessions all drive. Obtained from
/// Engine::instantiate (spec-materializing) or Engine::bind (live
/// scheduler).
class Instance {
 public:
  virtual ~Instance() = default;

  /// Simulate one clock cycle. Engine-specific failures (deadlocks,
  /// lane-invariance violations, an exhausted precomputed trace) throw;
  /// the shared trace loops convert them into Trace::fail_reason.
  virtual void cycle() = 0;

  /// Value of a net after the last cycle.
  virtual double probe(const std::string& net) const = 0;

  /// True when probe(net) can answer (after a cycle, for engines that
  /// observe nothing before one).
  virtual bool has_net(const std::string& net) const = 0;

  /// Drive an external input net before the next cycle. Engines without a
  /// poke surface (cppgen, gates) throw std::runtime_error.
  virtual void poke(const std::string& net, double v);

  /// Snapshot surface; false = this engine has none (cppgen, gates).
  virtual bool save_state(std::ostream& os);
  virtual bool restore_state(std::istream& is);

  /// The running tier of a tiered engine and what its open cost; nullopt
  /// for the others.
  virtual std::optional<Tier> tier() const { return std::nullopt; }
};

class Engine {
 public:
  virtual ~Engine() = default;

  virtual const std::string& name() const = 0;
  virtual const Capabilities& caps() const = 0;

  /// Non-empty: why `spec` is outside this engine's domain (reported as
  /// Trace::skip_reason by the shared loops).
  virtual std::string domain_limit(const verify::Spec& spec) const;

  /// Materialize `spec` into a live instance (the instance owns its
  /// System). Hard failures throw; nullptr means the engine has no spec
  /// instantiation at all.
  virtual std::unique_ptr<Instance> instantiate(
      const verify::Spec& spec, const TraceOptions& opts) const;

  /// Bind to a caller-owned live scheduler (in_process engines only;
  /// others return nullptr). The caller keeps the scheduler alive.
  virtual std::unique_ptr<Instance> bind(sched::CycleScheduler& sched,
                                         const TraceOptions& opts) const;

  /// Replay `spec` and capture all probe nets per cycle. Domain limits are
  /// reported via Trace::skip_reason, crashes via fail_reason; trace()
  /// itself does not throw for engine failures.
  virtual Trace trace(const verify::Spec& spec,
                      const TraceOptions& opts) const;

  /// Checkpoint-replay variant (VERIFY-006): run the first k cycles on a
  /// fresh instance, snapshot, restore into a second fresh instance, run
  /// the rest there, return the stitched trace. Only meaningful when
  /// caps().checkpointable.
  virtual Trace trace_ckpt(const verify::Spec& spec, const TraceOptions& opts,
                           std::uint64_t k) const;

  /// Pass pipeline for this engine's passes-off replay on the VERIFY-005
  /// axis (only consulted when caps().pass_axis).
  virtual opt::PassOptions noopt_passes() const;
};

/// Name-indexed engine collection. `global()` returns the process-wide
/// registry, pre-populated with the built-in engines in their canonical
/// order: iterative, levelized, compiled, cppgen, gates, jit, batched.
/// All member functions are thread-safe: concurrent service sessions may
/// resolve engines while another thread registers one.
class Registry {
 public:
  static Registry& global();

  /// Register an engine; a later registration of an existing name replaces
  /// the earlier one (latest wins).
  void add(std::unique_ptr<Engine> e);

  /// nullptr when unknown.
  const Engine* find(const std::string& name) const;
  /// Throws std::invalid_argument listing the registered names.
  const Engine& at(const std::string& name) const;

  std::vector<const Engine*> all() const;
  std::vector<std::string> names() const;
  /// "iterative, levelized, compiled, cppgen, gates, jit, batched" — the
  /// unknown-name error text shared by every selection surface.
  std::string names_csv() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

/// Defined in engines.cpp; invoked once by Registry::global().
void register_builtin_engines(Registry& r);

}  // namespace asicpp::engine
