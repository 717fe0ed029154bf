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
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "opt/options.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sim/driver.h"
#include "sim/image.h"

namespace asicpp::jit {
class JitSystem;
}  // namespace asicpp::jit

namespace asicpp::sim {

class CompiledSystem : public LaneDriver<1> {
 public:
  /// Compile `sched` into an image (Image::compile: the pass pipeline
  /// `passes` runs over each SFG's lowered IR; PassOptions::raw() keeps the
  /// unoptimized graphs) and seed the simulator from its current state.
  /// Throws ElabError (SIM-001) for unknown Component subclasses.
  static CompiledSystem compile(const sched::CycleScheduler& sched,
                                const opt::PassOptions& passes = {});

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
  /// parts. The JIT compiles the parts; emit_unit() writes them as one
  /// translation unit, which emit_cpp() wraps.
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
  // The JIT engine (src/jit) compiles emit_parts()'s text and points its
  // JitState block at this driver's arrays.
  friend class asicpp::jit::JitSystem;

  explicit CompiledSystem(std::shared_ptr<const Image> img)
      : LaneDriver<1>(std::move(img), 1, "compiled simulator") {}

  void restore_state_impl(std::istream& is);
};

}  // namespace asicpp::sim
