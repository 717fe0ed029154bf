// Component model: everything the generators need to know about one timed
// component, collected from the sched:: component classes. Shared by the
// HDL emitters (hdl/) and the synthesis back-end (synth/).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fixpt/format.h"
#include "fsm/fsm.h"
#include "opt/options.h"
#include "sched/component.h"
#include "sched/fsmcomp.h"
#include "sched/net.h"
#include "sched/opcode_table.h"
#include "sfg/wordlen.h"

namespace asicpp::hdl {

struct CompModel {
  enum class Kind { kFsm, kSfg, kDispatch } kind = Kind::kSfg;
  std::string name;
  std::vector<sfg::Sfg*> sfgs;
  fsm::Fsm* fsm = nullptr;                       ///< Kind::kFsm
  sched::OpcodeTable<sfg::Sfg*> table{nullptr};  ///< Kind::kDispatch
  std::string instr_port;                        ///< Kind::kDispatch
  std::vector<sfg::NodePtr> inputs;              ///< declared input signals
  std::vector<std::string> out_ports;            ///< declaration order
  std::map<std::string, fixpt::Format> out_fmt;  ///< merged across producers
  std::vector<sfg::NodePtr> regs;
  sfg::FormatMap fmts;
  std::map<std::string, sched::Net*> out_binds;  ///< for system linkage
  std::vector<std::pair<sfg::NodePtr, sched::Net*>> in_binds;

  /// Pass-optimized clones: when the optimizer pipeline changes a graph it
  /// is rebuilt into a fresh Sfg owned here, and `sfgs` / `table` point
  /// at the clone. Leaves and untouched interior nodes are shared
  /// with the original, so unchanged graphs stay byte-identical in the
  /// emitted HDL.
  std::vector<std::unique_ptr<sfg::Sfg>> owned;
  std::map<const sfg::Sfg*, sfg::Sfg*> opt_map;  ///< original → view

  /// The graph generators should consume for `s`: its pass-optimized clone
  /// when the pipeline changed it, otherwise `s` itself. Needed where a
  /// generator follows the FSM's transition actions directly.
  sfg::Sfg& optimized(sfg::Sfg& s) const {
    const auto it = opt_map.find(&s);
    return it != opt_map.end() ? *it->second : s;
  }
};

/// Sanitize to a legal HDL/netlist identifier.
std::string sanitize(const std::string& s);

/// Collect the model, running the optimizer pass pipeline over every graph
/// (PassOptions::raw() or none() disables it). Throws std::invalid_argument
/// for untimed components.
CompModel build_component_model(sched::Component& comp,
                                const opt::PassOptions& passes = {});

}  // namespace asicpp::hdl
