// In-process JIT compiled engine.
//
// Closes the gap EXPERIMENTS.md measures between the in-memory tape
// simulator and the same generated C++ rebuilt with `c++ -O2` as a
// standalone process: `JitSystem` emits the optimized lowered IR as the
// compiled system's C++ translation unit (sim/cppunit.h — the same unit the
// standalone simulator wraps in a main()), compiles it to a shared object
// with the host toolchain, `dlopen`s it, and drives it in-process over the
// *live* arrays of a width-1 sim::LaneDriver (the CompiledSystem it was
// compiled from). External pin drives, pokes, probes, snapshots and the
// deadlock post-mortem all keep working because the native code shares the
// tape engine's state — only phases 0-3 are swapped for compiled code.
//
// Compiled artifacts live in the shared content-addressed artifact store
// (pipeline/artifact.h) under stage "jit", keyed by an FNV-1a content hash
// of the emitted source (which embeds the lowered IR), the compiler
// command, the ABI revision, the cache format version and the store
// revision — repeated runs of the same design (the fuzzer's common case,
// and every concurrent daemon session of one design) pay compilation once.
//
// Every failure degrades gracefully to the interpreted tape (native()
// returns false, traces stay bit-identical), with a structured diagnostic:
//
//   JIT-001 host toolchain missing (compiler not found)
//   JIT-002 generated source failed to compile
//   JIT-003 compiled artifact failed to load (dlopen/dlsym/ABI/IR-hash)
//   JIT-004 stale or corrupt cache entry discarded (recompiled)
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "opt/options.h"
#include "sched/run.h"
#include "sim/compiled.h"
#include "sim/cppunit.h"

namespace asicpp::jit {

/// Cache format revision: participates in the artifact cache key, so a
/// layout change invalidates old entries instead of misloading them.
inline constexpr std::uint32_t kJitFormatVersion = 1;

struct JitOptions {
  /// Host compiler driver.
  std::string cxx = "c++";
  /// Extra flags between the driver and `-shared -fPIC`.
  std::string flags = "-O2 -std=c++17 -w";
  /// Artifact-store directory. Empty = the shared store's env chain:
  /// $ASICPP_STORE_DIR, else $XDG_CACHE_HOME/asicpp-store, else
  /// $HOME/.cache/asicpp-store, else /tmp/asicpp-store (see
  /// pipeline/artifact.h).
  std::string cache_dir;
  /// Recompile even when a cached artifact exists.
  bool force_recompile = false;
  /// JIT-00x diagnostics sink (falls back to the compiled system's engine).
  diag::DiagEngine* diagnostics = nullptr;
};

class JitSystem {
 public:
  /// Compile `sched` to tape form (exactly CompiledSystem::compile), emit
  /// the optimized IR as C++, and build/load the native cycle kernel.
  /// Never throws for toolchain problems — on any JIT failure the instance
  /// falls back to interpreting the tape and native() reports false.
  static JitSystem compile(const sched::CycleScheduler& sched,
                           const opt::PassOptions& passes = {},
                           const JitOptions& jopts = {});

  /// Simulate one clock cycle (native kernel, or the tape fallback).
  /// Semantics identical to CompiledSystem's cycle(), including
  /// sched::DeadlockError with the SCHED-001 post-mortem.
  void cycle();

  /// Unified engine entry point: cycles, watchdogs, schedule mode,
  /// threads, checkpoint cadence — same contract as CompiledSystem::run.
  RunResult run(const RunOptions& opts);

  std::uint64_t cycles() const { return cs_.cycles(); }

  // --- JIT status ---

  /// True when the native kernel is loaded and driving cycle().
  bool native() const { return native_; }
  /// True when compile() reused a cached artifact (no compiler run).
  bool from_cache() const { return from_cache_; }
  /// Wall-clock seconds spent in the external compiler (0 on cache hit).
  double compile_seconds() const { return compile_seconds_; }
  /// Path of the loaded shared object (empty when !native()).
  const std::string& artifact_path() const { return artifact_path_; }

  // --- pass-through surface (same behaviour as CompiledSystem) ---

  void set_schedule_mode(ScheduleMode m) { cs_.set_schedule_mode(m); }
  ScheduleMode schedule_mode() const { return cs_.schedule_mode(); }
  void set_threads(unsigned n) { cs_.set_threads(n); }
  unsigned threads() const { return cs_.threads(); }
  void attach_diagnostics(diag::DiagEngine& de) { cs_.attach_diagnostics(de); }
  diag::DiagEngine& diagnostics() { return cs_.diagnostics(); }
  const opt::PassStats& pass_stats() const { return cs_.pass_stats(); }
  bool levelizable() const { return cs_.levelizable(); }

  double net_value(const std::string& name) const { return cs_.net_value(name); }
  double reg_value(const std::string& name) const { return cs_.reg_value(name); }
  void poke(const std::string& input_name, double v) { cs_.poke(input_name, v); }
  std::size_t footprint_bytes() const { return cs_.footprint_bytes(); }
  void reset() { cs_.reset(); }

  /// Snapshots share the compiled tape's format, engine kind and IR
  /// content hash: a JIT snapshot restores into a CompiledSystem of the
  /// same design (and vice versa), and a snapshot of a different design or
  /// pass pipeline is rejected with CKPT-003.
  std::uint64_t state_hash() const { return cs_.state_hash(); }
  void save_state(std::ostream& os) const { cs_.save_state(os); }
  void restore_state(std::istream& is) { cs_.restore_state(is); }

 private:
  explicit JitSystem(sim::CompiledSystem cs) : cs_(std::move(cs)) {}

  sim::JitState make_state();
  void native_cycle();
  bool load(const std::string& path, std::string* why);
  static int fire_untimed_cb(void* host, int comp);

  // The tape engine this kernel replaces cycle by cycle: the native code
  // runs over its slot, token and per-component arrays, so the fallback,
  // snapshots, probes and the deadlock post-mortem need no copies.
  sim::CompiledSystem cs_;

  bool native_ = false;
  bool from_cache_ = false;
  double compile_seconds_ = 0.0;
  std::string artifact_path_;
  std::shared_ptr<void> so_;  ///< dlopen handle (dlclose on last owner)
  // Exported entry points of the loaded object.
  int (*fn_cycle_)(sim::JitState*, int) = nullptr;
  void (*fn_begin_)(sim::JitState*) = nullptr;
  int (*fn_try_slot_)(sim::JitState*, int) = nullptr;
  int (*fn_finish_)(sim::JitState*) = nullptr;

  // The first exception an untimed closure threw inside the native kernel,
  // rethrown once the cycle returns. A firing reads only `raised`; the
  // mutex is taken to record an exception, which under the level-parallel
  // walk may race with one from another pool lane.
  struct UntimedFault {
    std::atomic<bool> raised{false};
    std::mutex mu;
    std::exception_ptr ex;
  };
  std::shared_ptr<UntimedFault> fault_ = std::make_shared<UntimedFault>();
};

/// Resolve the artifact-store directory per JitOptions::cache_dir rules —
/// a thin wrapper over pipeline::ArtifactStore::resolve_dir (exposed for
/// tests and the CI smoke tool).
std::string cache_dir(const JitOptions& jopts = {});

/// Run `cmd` through the shell, appending its stdout and stderr to `out`.
/// Returns the pclose() status (-1 when the shell could not start). Used
/// for the host-compiler runs of the JIT and of the cppgen engine.
int run_command(const std::string& cmd, std::string* out);

}  // namespace asicpp::jit
