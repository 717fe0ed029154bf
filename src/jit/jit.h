// In-process JIT compiled engine.
//
// Closes the gap EXPERIMENTS.md measures between the in-memory tape
// simulator and the same generated C++ rebuilt with `c++ -O2` as a
// standalone process: `JitSystem` emits the optimized lowered IR as the
// compiled system's C++ (sim/cppunit.h — the same text the standalone
// simulator wraps in a main()), compiles it to a shared object with the
// host toolchain, `dlopen`s it, and drives it in-process over the *live*
// arrays of a width-1 sim::LaneDriver (the CompiledSystem it was compiled
// from). External pin drives, pokes, probes, snapshots and the deadlock
// post-mortem all keep working because the native code shares the tape
// engine's state — only phases 0-3 are swapped for compiled code.
//
// A one-part unit is compiled and linked by one compiler run. A split unit
// (Image::parts; DECT has 4 parts) is written part by part into a private
// directory, its parts are compiled to objects concurrently, and the
// objects are linked into the one shared object; the directory is removed
// on every path. Every command runs from an argv vector, without a shell,
// and all of the process's commands together (every build, and the cppgen
// engine's) run at most par::Pool::hardware_lanes() at once.
//
// Two tiers. compile() returns once the tape is compiled, the unit is
// emitted and the store has been checked. A stored artifact is loaded at
// once. Otherwise a build (the part compiles, the link, the store's rename
// and the load) runs on a background thread (par::spawn_background), and
// until it lands the instance cycles on the tape. At the first cycle
// boundary after the build ends, cycle() and run() take its kernel over
// and native() flips; the kernel runs on the tape's own arrays, so traces,
// probes and snapshots cannot tell the tiers apart. Without
// JitOptions::tiered, compile() waits for the build before it returns, so
// direct callers, diff_run and the fuzzer run native code from a known
// cycle: 0, or JitOptions::hold_swap. Builds are single-flight per (store
// directory, content key):
// concurrent cold compiles of one unit share one build, and a build
// outlives the instance that started it, so its artifact still lands in
// the store. Builds still running at process exit are joined then.
//
// Compiled artifacts live in the shared content-addressed artifact store
// (pipeline/artifact.h) under stage "jit": `jit-<key>.cpp` (the whole unit
// as one file, as emit_unit writes it) and `jit-<key>.so`. The key
// (content_key) is an FNV-1a hash of every part's text (which embeds the
// lowered IR), the compile and link commands, the ABI revision, the cache
// format version and the store revision — never of the lane count, so a
// store is shared by hosts of any width. Repeated runs of the same design
// (the fuzzer's common case, and every concurrent daemon session of one
// design) pay compilation once.
//
// Every failure degrades gracefully to the interpreted tape (native()
// returns false, traces stay bit-identical), with a structured diagnostic.
// A build reports into no DiagEngine: its findings are recorded into
// JitOptions::diagnostics at the boundary that takes the build over, on
// the thread that cycles the instance.
//
//   JIT-001 host toolchain missing (compiler not found or not runnable)
//   JIT-002 generated source failed to compile or link (the note names
//           the failing part's command and its output)
//   JIT-003 compiled artifact failed to load (dlopen/dlsym/ABI/IR-hash)
//   JIT-004 stale or corrupt cache entry discarded (recompiled)
#pragma once

#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
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
inline constexpr std::uint32_t kJitFormatVersion = 2;

struct JitOptions {
  /// Host compiler driver: one executable, looked up on $PATH and run
  /// without a shell.
  std::string cxx = "c++";
  /// Flags after the driver in every compile and link command, split on
  /// whitespace.
  std::string flags = "-O2 -std=c++17 -w";
  /// Artifact-store directory. Empty = the shared store's env chain:
  /// $ASICPP_STORE_DIR, else $XDG_CACHE_HOME/asicpp-store, else
  /// $HOME/.cache/asicpp-store, else /tmp/asicpp-store (see
  /// pipeline/artifact.h).
  std::string cache_dir;
  /// Recompile even when a cached artifact exists.
  bool force_recompile = false;
  /// JIT-00x diagnostics sink (falls back to the compiled system's engine).
  /// A tiered instance reports its build's findings at a later cycle
  /// boundary, so the sink must outlive the instance.
  diag::DiagEngine* diagnostics = nullptr;
  /// Return without waiting for a cold build: the tape runs until native
  /// code lands. false: compile() waits for the build.
  bool tiered = false;
  /// Cycles to run on the tape even once native code is ready: the kernel
  /// takes over at the first cycle boundary at or after this cycle. Tests
  /// and the fuzzer's jit axis place the swap with it.
  std::uint64_t hold_swap = 0;
};

struct Kernel;  ///< a loaded artifact's handle and entry points (jit.cpp)
struct Build;   ///< a background build, shared by its key's instances (jit.cpp)

class JitSystem {
 public:
  /// Compile `sched` to tape form (exactly CompiledSystem::compile), emit
  /// the optimized IR as C++, and load the native cycle kernel from the
  /// store or build it (waiting for the build unless jopts.tiered).
  /// Never throws for toolchain problems — on any JIT failure the instance
  /// falls back to interpreting the tape and native() reports false.
  static JitSystem compile(const sched::CycleScheduler& sched,
                           const opt::PassOptions& passes = {},
                           const JitOptions& jopts = {});

  /// Simulate one clock cycle (native kernel, or the tape). Takes over a
  /// build that has ended first. Semantics identical to CompiledSystem's
  /// cycle(), including sched::DeadlockError with the SCHED-001
  /// post-mortem.
  void cycle();

  /// Unified engine entry point: cycles, watchdogs, schedule mode,
  /// checkpoint cadence — same contract as CompiledSystem::run.
  RunResult run(const RunOptions& opts);

  std::uint64_t cycles() const { return cs_.cycles(); }

  // --- JIT status ---

  /// True when the native kernel is loaded and driving cycle().
  bool native() const { return native_; }
  /// The first cycle the native kernel ran (when native()).
  std::uint64_t swap_cycle() const { return swap_cycle_; }
  /// True when compile() reused a cached artifact (no compiler run).
  bool from_cache() const { return from_cache_; }
  /// Wall-clock seconds the build spent in the external compiler (0 on a
  /// cache hit, and while a tiered build runs).
  double compile_seconds() const { return compile_seconds_; }
  /// Path of the loaded shared object (empty when !native()).
  std::string artifact_path() const;

  // --- pass-through surface (same behaviour as CompiledSystem) ---

  void set_schedule_mode(ScheduleMode m) { cs_.set_schedule_mode(m); }
  ScheduleMode schedule_mode() const { return cs_.schedule_mode(); }
  void attach_diagnostics(diag::DiagEngine& de) { cs_.attach_diagnostics(de); }
  diag::DiagEngine& diagnostics() { return cs_.diagnostics(); }
  const opt::PassStats& pass_stats() const { return cs_.pass_stats(); }
  bool levelizable() const { return cs_.levelizable(); }

  bool has_net(const std::string& name) const { return cs_.has_net(name); }
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
  /// At a cycle boundary: take over build_ once it has ended, its findings
  /// at once and its kernel from cycle hold_swap_ on.
  void take_build();
  static int fire_untimed_cb(void* host, int comp);

  // The tape engine this kernel replaces cycle by cycle: the native code
  // runs over its slot, token and per-component arrays, so the fallback,
  // snapshots, probes and the deadlock post-mortem need no copies.
  sim::CompiledSystem cs_;

  bool native_ = false;
  bool from_cache_ = false;
  double compile_seconds_ = 0.0;
  std::uint64_t swap_cycle_ = 0;
  std::uint64_t hold_swap_ = 0;
  diag::DiagEngine* sink_ = nullptr;  ///< JitOptions::diagnostics
  /// The build this instance has not taken over yet; null once it has.
  std::shared_ptr<Build> build_;
  std::shared_ptr<const Kernel> kernel_;  ///< null until native
  int (*fn_cycle_)(sim::JitState*, int) = nullptr;  ///< the object's cycle entry

  /// The first exception an untimed closure threw inside the native kernel,
  /// rethrown once the cycle returns; later firings in that cycle fail.
  std::exception_ptr untimed_fault_;
};

/// Resolve the artifact-store directory per JitOptions::cache_dir rules —
/// a thin wrapper over pipeline::ArtifactStore::resolve_dir (exposed for
/// tests and the CI smoke tool).
std::string cache_dir(const JitOptions& jopts = {});

/// Store key of a unit compiled with `jopts` (see the header comment).
std::uint64_t content_key(const sim::UnitParts& unit, const JitOptions& jopts);

/// One external command, run from its argv (argv[0] is looked up on $PATH
/// when it has no '/'), without a shell.
struct Command {
  std::vector<std::string> argv;
  /// waitpid() status; -1 when the command did not start.
  int status = -1;
  /// errno of a failed start (ENOENT: no such executable), else 0.
  int start_error = 0;
  /// What the command wrote to stdout and stderr.
  std::string output;
  bool ok() const { return start_error == 0 && status == 0; }
  /// argv joined by spaces, for diagnostics.
  std::string text() const;
};

/// Run every command, at most `lanes` (>= 1) at once and within the
/// process-wide limit of par::Pool::hardware_lanes() running commands,
/// filling in their status and output. Used for the host-compiler runs of
/// the JIT and of the cppgen engine.
void run_commands(std::vector<Command>& cmds, unsigned lanes);

/// Run one command, appending its stdout and stderr to `out`. Returns the
/// waitpid() status, -1 when it did not start.
int run_command(const std::vector<std::string>& argv, std::string* out);

}  // namespace asicpp::jit
