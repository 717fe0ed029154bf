// The compiled image of a system.
//
// `Image::compile` takes a system assembled for the (interpreted) cycle
// scheduler and regenerates it as flat tapes over a slot array — the
// paper's compiled-code simulation path (section 5): one application-
// specific simulator regenerated from the SFG/FSM data structure. The
// image holds only what compilation derives: the tapes, the component
// table, the net and slot maps, the static level order and the slot values
// and FSM states the scheduler had when it was compiled. It is immutable
// afterwards and shared by every engine built over it (the solo tape, the
// lane batch, the JIT and the standalone simulator), each of which keeps
// its runtime state in its own arrays (see sim/driver.h).
//
// Supported component kinds: FsmComponent, SfgComponent, DispatchComponent
// (fully compiled) and UntimedComponent (invoked as native C++, which is
// what "high-level description" means in the paper).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fixpt/format.h"
#include "opt/options.h"
#include "sched/cyclesched.h"
#include "sched/opcode_table.h"
#include "sched/untimed.h"
#include "sim/cppunit.h"
#include "sim/tape.h"

namespace asicpp::sim {

struct Image {
  struct SfgCode {
    Tape pre;   ///< input-independent ops (token production)
    Tape main;  ///< input-dependent ops + register next-values
    std::vector<Instr> load_inputs;  ///< net slot -> input slot copies
    std::vector<std::int32_t> required_nets;
    struct Push {
      std::int32_t net;
      std::int32_t src;
    };
    std::vector<Push> pre_pushes;
    std::vector<Push> main_pushes;
    struct Commit {
      std::int32_t dst;  ///< register current-value slot
      std::int32_t src;  ///< computed next-value slot
      fixpt::Format fmt;
      bool has_fmt;
      std::int32_t q;    ///< fmt's entry in Image::quantizers; -1 without one
    };
    std::vector<Commit> commits;
  };

  struct GuardedTransition {
    bool always = false;
    Tape guard;
    std::int32_t guard_slot = -1;
    std::vector<std::int32_t> sfgs;
    std::int32_t to = -1;
  };

  enum class Kind { kFsm, kSfg, kDispatch, kUntimed };

  struct Comp {
    Kind kind;
    std::string name;
    // kFsm
    std::vector<std::vector<GuardedTransition>> by_state;
    std::int32_t initial = -1;  ///< reset state
    std::int32_t start = 0;     ///< state at compile time (0 for other kinds)
    // kSfg / kDispatch
    std::int32_t solo_sfg = -1;
    std::int32_t instr_net = -1;
    sched::OpcodeTable<std::int32_t> table{-1};  ///< opcode -> SFG id
    // kUntimed
    sched::UntimedComponent* untimed = nullptr;
    std::vector<std::int32_t> in_nets;
    std::vector<std::int32_t> out_nets;

    /// Every SFG id the component runs, ascending.
    std::vector<std::int32_t> sfg_ids() const;
  };

  struct RegInit {
    std::int32_t slot;
    double init;
  };

  /// One step of the static level order: a component firing, or — for
  /// dispatch components — the decode/token-production step preceding it.
  struct SchedSlot {
    std::int32_t comp;
    bool decode;
  };

  /// Translate every component and net of `sched` into tape form, running
  /// the optimization pass pipeline (`passes`) over each SFG's lowered IR
  /// before tape emission. PassOptions::raw() compiles the unoptimized
  /// graphs — the differential reference for the pass pipeline. Throws
  /// ElabError (SIM-001) for unknown Component subclasses.
  static std::shared_ptr<const Image> compile(const sched::CycleScheduler& sched,
                                              const opt::PassOptions& passes);

  /// Emit the cycle kernel as C++ over the JitState block (sim/cppunit.h):
  /// one part per entry of `parts`, each compilable on its own after the
  /// shared prelude.
  UnitParts emit_parts() const;
  /// The same text as one translation unit: the prelude once, then every
  /// part's body.
  void emit_unit(std::ostream& os) const;

  /// Bytes of the static structures (tapes, tables, maps).
  std::size_t footprint_bytes() const;

  std::vector<SfgCode> sfgs;
  std::vector<Comp> comps;
  std::vector<sched::Net*> nets;               ///< net id -> live net (pin drives)
  std::vector<std::int32_t> net_slots;         ///< net id -> slot
  std::vector<std::string> net_names;          ///< net id -> name
  std::unordered_map<std::string, std::int32_t> net_ids;
  std::map<std::string, std::int32_t> reg_slots;
  std::map<std::string, std::int32_t> input_slots;
  std::vector<RegInit> reg_inits;
  /// Unbound input slots, rewritten from per-lane values every cycle so
  /// pokes persist.
  std::vector<std::int32_t> refresh;
  std::vector<double> init_slots;  ///< slot values at compile time
  /// One resolved quantizer per distinct format the tapes and commits
  /// quantize into (Instr::q, SfgCode::Commit::q).
  fixpt::QuantizerTable quantizers;
  int max_iters = 64;

  // Static schedule.
  std::vector<SchedSlot> level_order;
  std::vector<std::size_t> level_offsets;  ///< level l = order [l, l+1); empty when not levelizable
  bool levelizable = false;
  int sched_levels = 0;
  std::string sched_reason;  ///< why levelization failed

  /// Components grouped into the parts of the emitted C++ (emit_parts):
  /// whole strongly connected groups of the component dependency graph,
  /// parts in an order where every dependency points forward, members in
  /// index order. Derived from the image alone, so every host splits a
  /// design the same way; a design under kPartWeight is one part.
  std::vector<std::vector<std::int32_t>> parts;
  /// Emitted tape instructions a part aims for, and the most parts a
  /// design is split into.
  static constexpr std::size_t kPartWeight = 1280;
  static constexpr std::size_t kMaxParts = 8;

  /// IR content hash over the slot layout, net names, every emitted tape
  /// instruction and commit, and the component/transition structure. Binds
  /// snapshots and JIT artifacts to one image.
  std::uint64_t ir_hash = 0;
  opt::PassStats pass_stats{};

 private:
  class Builder;
  void build_schedule();
  void build_parts(const std::vector<std::size_t>& act_comp,
                   const std::vector<std::vector<std::int32_t>>& needs,
                   const std::vector<std::vector<std::int32_t>>& produces);
  void compute_ir_hash();
};

}  // namespace asicpp::sim
