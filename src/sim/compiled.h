// Compiled-code system simulator.
//
// `CompiledSystem::compile` regenerates a system assembled for the
// (interpreted) cycle scheduler as a sim::Image — flat tapes over a slot
// array, the paper's compiled-code simulation path (section 5): same
// clock-cycle semantics, drastically lower per-operation cost. Compilation
// snapshots the current register/FSM state, so a system can be compiled
// mid-run and continues bit-identically.
//
// The cycle itself is sim::LaneDriver's (sim/driver.h); CompiledSystem is
// its width-1 instantiation plus the solo engine's surface: snapshots,
// probes and pokes, and C++ emission.
//
// A CompiledSystem may also have a native tier: a build of its own emitted
// unit (jit::compile, src/jit) whose cycle kernel takes over cycle() and
// run() at a cycle boundary and runs phases 0-3 on the driver's own arrays
// (sim::JitState points at them). Traces, probes, pokes and snapshots
// cannot tell the tiers apart.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "opt/options.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sim/cppunit.h"
#include "sim/driver.h"
#include "sim/image.h"

namespace asicpp::sim {

/// A loaded native cycle kernel: the asicpp_jit_cycle entry of an object
/// built from emit_parts()'s text.
struct NativeKernel {
  int (*cycle)(JitState*, int) = nullptr;
  /// Owning handle of the loaded object; its deleter (jit.cpp) unloads it.
  std::shared_ptr<const void> object;
  std::string path;
};

/// A build of a native kernel, shared by every system that waits for it.
/// Its thread writes the kernel, the findings and the seconds, then sets
/// `done`; they are read-only after.
struct NativeBuild {
  NativeKernel kernel;  ///< no cycle entry when the build failed
  std::vector<diag::Diagnostic> findings;
  double compile_seconds = 0.0;
  /// A stored artifact, loaded without a build (set before it is shared).
  bool from_cache = false;
  /// Owned apart from the build, so the build's thread drops its build
  /// (and the object with it) before setting it: the last system holding
  /// the object unloads it.
  std::shared_ptr<std::atomic<bool>> done = std::make_shared<std::atomic<bool>>(false);
};

class CompiledSystem : public LaneDriver<1> {
 public:
  /// Compile `sched` into an image (Image::compile: the pass pipeline
  /// `passes` runs over each SFG's lowered IR; PassOptions::raw() keeps the
  /// unoptimized graphs) and seed the simulator from its current state.
  /// Throws ElabError (SIM-001) for unknown Component subclasses.
  static CompiledSystem compile(const sched::CycleScheduler& sched,
                                const opt::PassOptions& passes = {});

  /// Simulate one clock cycle: on the native kernel once it has taken over
  /// (a build that has ended is taken over first), else on the tape. A
  /// tape-only system tests one pointer.
  void cycle() {
    if (tier_ != nullptr)
      tier_cycle();
    else
      LaneDriver<1>::cycle();
  }

  /// LaneDriver::run, stepping through cycle(), so a build that lands
  /// mid-run takes over at the next cycle boundary. Profiled runs stay on
  /// the tape (per-component timing needs the tape's instrumented loop).
  RunResult run(const RunOptions& opts);

  // --- native tier ---

  /// Give this system the native tier of `build` (jit::compile). Its
  /// findings are reported into `sink` (null: diagnostics()) at the first
  /// cycle boundary after it ends. Its kernel takes over at the first cycle
  /// boundary after it ends when `swap_at` is unset, so nothing waits for
  /// it; else at the first boundary at or after cycle *swap_at, which waits
  /// for it (with 0, this call waits).
  void attach_native(std::shared_ptr<const NativeBuild> build,
                     std::optional<std::uint64_t> swap_at, diag::DiagEngine* sink);
  /// True when the native kernel has taken over cycle().
  bool native() const { return tier_ != nullptr && tier_->kernel.cycle != nullptr; }
  /// The first cycle the native kernel ran (when native()).
  std::uint64_t swap_cycle() const { return tier_ != nullptr ? tier_->swap_cycle : 0; }
  /// True when the native tier reused a stored artifact (no compiler ran).
  bool from_cache() const { return tier_ != nullptr && tier_->from_cache; }
  /// Wall-clock seconds the build spent in the host compiler (0 on a store
  /// hit, and until the build is taken over).
  double compile_seconds() const { return tier_ != nullptr ? tier_->compile_seconds : 0.0; }
  /// Path of the loaded object (empty when !native()).
  std::string artifact_path() const { return native() ? tier_->kernel.path : std::string(); }

  /// Why levelization failed (empty when levelizable()).
  const std::string& schedule_reason() const { return img_->sched_reason; }
  /// Number of levels in the static order (0 when not levelizable).
  int schedule_levels() const { return img_->sched_levels; }

  // --- serialized checkpoint/restore (see ckpt/snapshot.h) ---

  /// Serialize the full runtime state (slot array, net tokens, FSM states,
  /// untimed firing counters, cycle count) in the versioned ckpt format,
  /// bound to state_hash(): a system compiled from a different spec — or
  /// with a different pass pipeline — rejects the snapshot with CKPT-003.
  void save_state(std::ostream& os) const;

  /// Restore a save_state() snapshot. Throws ckpt::SnapshotError with a
  /// CKPT-001..004 diagnostic on mismatch or corruption; on failure the
  /// simulator state is left exactly as it was.
  void restore_state(std::istream& is);

  /// Last token value seen on net `name`.
  double net_value(const std::string& name) const;
  /// Current value of register `name` (first registered with that name).
  double reg_value(const std::string& name) const;
  /// Override the value of an unbound input signal by name; the value
  /// persists across cycles.
  void poke(const std::string& input_name, double v);

  /// Emit the cycle kernel as C++ over the JitState block (sim/cppunit.h):
  /// one straight-line function per tape, one try function per component,
  /// and the four-phase cycle as extern "C" entry points, in the image's
  /// parts. The jit builds the native tier from the parts; emit_unit()
  /// writes them as one translation unit, which emit_cpp() wraps.
  UnitParts emit_parts() const { return img_->emit_parts(); }
  void emit_unit(std::ostream& os) const { img_->emit_unit(os); }

  /// Emit a standalone C++ program that reproduces this system's
  /// simulation (Fig 7's "C++ RT description"): emit_unit()'s text plus a
  /// main() running `run_cycles` cycles from the current state, printing
  /// the value of each net in `watch_nets` per cycle. External pin drives
  /// are frozen at their current values. A deadlock exits 3 naming the
  /// unfired components; an opcode with no table entry and no default
  /// exits 4. Systems with untimed components are rejected (native C++
  /// closures have no image).
  void emit_cpp(std::ostream& os, const std::vector<std::string>& watch_nets,
                std::uint64_t run_cycles) const;

 private:
  struct NativeTier {
    /// The build not taken over yet; null once it has been.
    std::shared_ptr<const NativeBuild> build;
    NativeKernel kernel;  ///< no cycle entry until native
    std::optional<std::uint64_t> swap_at;
    diag::DiagEngine* sink = nullptr;
    bool from_cache = false;
    double compile_seconds = 0.0;
    std::uint64_t swap_cycle = 0;
    /// The first exception an untimed closure threw inside the kernel,
    /// rethrown once the cycle returns; later firings in that cycle fail.
    std::exception_ptr untimed_fault;
  };

  explicit CompiledSystem(std::shared_ptr<const Image> img)
      : LaneDriver<1>(std::move(img), 1, "compiled simulator") {}

  void restore_state_impl(std::istream& is);

  void tier_cycle();
  /// At a cycle boundary: take the pending build over once it has ended,
  /// its findings at once and its kernel per swap_at.
  void take_build();
  void native_cycle();
  /// JitState::fire_untimed: fire untimed component `comp` on the host.
  static int fire_untimed(void* host, int comp);

  /// Null for a tape-only system.
  std::unique_ptr<NativeTier> tier_;
};

}  // namespace asicpp::sim
