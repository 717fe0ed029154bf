// Levelized static schedule for the phase-2 evaluation sweep.
//
// The three-phase cycle scheduler (Fig 6) resolves the firing order of the
// components every cycle by iterative relaxation: sweep all components,
// fire the ones whose input tokens arrived, repeat. The order it discovers
// is a property of the interconnect graph, not of the data — so it can be
// computed once, after elaboration, and replayed with zero retry passes
// (the compiled-simulator insight of section 5, applied to the scheduler
// itself; cf. Strauch's statically ordered AOC C-models).
//
// The dependency graph is built conservatively from per-component *static*
// dependency declarations (Component::static_deps): an edge runs from every
// possible phase-2 producer of a net to each of its consumers, unioned over
// all FSM transitions / dispatch instructions. Tokens produced in phase 1
// (register- or constant-only outputs, external pin drives) impose no
// ordering. Instruction-dispatched components contribute two slots: a
// decode step gated on the instruction token (which performs the deferred
// token production) and the firing step proper — this is what collapses
// the datapath→RAM→datapath chains of the VLIW transceiver into a
// three-level walk instead of an apparent cycle.
//
// When the union graph is cyclic, or a component has no static description
// (dataflow adapters, custom Component subclasses), the system keeps the
// iterative scheduler: `Schedule::build` returns an invalid schedule whose
// reason() names the obstacle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/component.h"

namespace asicpp::sched {

/// Generic levelization over integer-keyed actions: action `i` needs the
/// nets in `needs[i]`, produces the nets in `produces[i]`, and (when
/// `after[i] >= 0`) must run after action `after[i]` (intra-component
/// decode→fire edges). Nets no action produces are treated as available
/// up front (phase-1 tokens, external drives). Returns the level of each
/// action, or an empty vector when the dependency graph is cyclic; in that
/// case `cycle_out`, when non-null, receives one offending action cycle.
std::vector<int> levelize_actions(const std::vector<std::vector<std::int32_t>>& needs,
                                  const std::vector<std::vector<std::int32_t>>& produces,
                                  const std::vector<int>& after,
                                  std::vector<int>* cycle_out = nullptr);

/// A level order laid out for the phase-2 walk (sched/phase2.h).
struct LevelOrder {
  std::vector<int> order;            ///< actions ascending by level, stable
  std::vector<std::size_t> offsets;  ///< level l = order [offsets[l], offsets[l+1])
  std::string reason;                ///< why there is none (empty when ordered)
};

/// Levelize actions (levelize_actions) and lay them out for the walk, or,
/// when the graph is cyclic, name the cycle: "dependency cycle: a b", each
/// component once (a dispatch component's decode and firing actions may
/// both sit on it). Action `a` belongs to component `comp[a]`, named
/// `names[comp[a]]`. Shared by Schedule::build and the compiled image.
LevelOrder order_actions(const std::vector<std::vector<std::int32_t>>& needs,
                         const std::vector<std::vector<std::int32_t>>& produces,
                         const std::vector<int>& after, const std::vector<std::size_t>& comp,
                         const std::vector<std::string>& names);

/// A static phase-2 schedule for the interpreted cycle scheduler: an
/// ordered list of try_fire attempts (dispatch components appear twice,
/// once for decode/token-production and once for firing).
class Schedule {
 public:
  struct Slot {
    Component* comp = nullptr;
    std::size_t index = 0;  ///< comp's position in the component list
  };

  /// Levelize `comps`. The returned schedule is invalid (and reason() says
  /// why) when any component lacks a static description or the conservative
  /// dependency graph has a cycle.
  static Schedule build(const std::vector<Component*>& comps);

  bool valid() const { return !offsets_.empty(); }
  const std::string& reason() const { return reason_; }

  /// Phase-2 walk order, ascending by level.
  const std::vector<Slot>& order() const { return order_; }
  int levels() const { return valid() ? static_cast<int>(offsets_.size()) - 1 : 0; }

  /// Group boundaries of order() by level: level l spans order() indices
  /// [offsets[l], offsets[l+1]). Size levels()+1, empty when invalid.
  const std::vector<std::size_t>& level_offsets() const { return offsets_; }

  /// Number of components the schedule was built for (staleness check).
  std::size_t component_count() const { return ncomps_; }

 private:
  std::string reason_;
  std::vector<Slot> order_;
  std::vector<std::size_t> offsets_;
  std::size_t ncomps_ = 0;
};

}  // namespace asicpp::sched
