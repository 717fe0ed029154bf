// In-process JIT: the native tier of the compiled engine.
//
// Closes the gap EXPERIMENTS.md measures between the in-memory tape
// simulator and the same generated C++ rebuilt with `c++ -O2` as a
// standalone process: `jit::compile` compiles the tape, emits its optimized
// lowered IR as the compiled system's C++ (sim/cppunit.h — the same text
// the standalone simulator wraps in a main()), builds it into a shared
// object with the host toolchain, `dlopen`s it, and attaches it to the
// sim::CompiledSystem as its native tier, which drives the *live* arrays
// of that width-1 sim::LaneDriver. External pin drives, pokes, probes,
// snapshots and the deadlock post-mortem all keep working because the
// native code shares the tape engine's state — only phases 0-3 are
// swapped for compiled code.
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
// until it lands the system cycles on the tape. JitOptions::swap_at places
// the swap: unset, the kernel takes over at the first cycle boundary after
// the build ends and nothing waits; k, at the first boundary at or after
// cycle k, which waits for the build (so with 0, compile() waits, and
// direct callers, diff_run and the fuzzer run native code from a known
// cycle). Builds are single-flight per (store directory, content key):
// concurrent cold compiles of one unit share one build, and a build
// outlives the system that started it, so its artifact still lands in the
// store. Builds still running at process exit are joined then.
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
// the thread that cycles the system.
//
//   JIT-001 host toolchain missing (compiler not found or not runnable)
//   JIT-002 generated source failed to compile or link (the note names
//           the failing part's command and its output)
//   JIT-003 compiled artifact failed to load (dlopen/dlsym/ABI/IR-hash)
//   JIT-004 stale or corrupt cache entry discarded (recompiled)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "opt/options.h"
#include "sched/cyclesched.h"
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
  /// JIT-00x diagnostics sink (falls back to the compiled system's engine).
  /// A build's findings are reported at a later cycle boundary, so the sink
  /// must outlive the system.
  diag::DiagEngine* diagnostics = nullptr;
  /// Where the native kernel takes over from the tape. Unset: at the first
  /// cycle boundary after its build lands, and nothing waits for the build.
  /// k: at the first boundary at or after cycle k, which waits for the
  /// build; with 0, compile() waits. Tests and the fuzzer's jit axis place
  /// the swap with it.
  std::optional<std::uint64_t> swap_at = 0;
};

/// Compile `sched` to tape form (exactly CompiledSystem::compile), emit the
/// optimized IR as C++, and attach the native kernel as the system's native
/// tier: loaded from the store, or from a build started or joined here
/// (see JitOptions::swap_at for who waits). Never throws for toolchain
/// problems — on any JIT failure the system keeps interpreting the tape and
/// native() reports false. Its snapshots are the compiled tape's: they
/// restore into a CompiledSystem of the same design, and a snapshot of a
/// different design or pass pipeline is rejected with CKPT-003.
sim::CompiledSystem compile(const sched::CycleScheduler& sched,
                            const opt::PassOptions& passes = {},
                            const JitOptions& jopts = {});

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
