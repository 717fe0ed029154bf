// Lowered SFG intermediate representation.
//
// An elaborated Sfg lowers into a linearized, slot-indexed instruction
// list: every reachable node becomes one `LIns` whose position in the list
// is its dense value slot, operands reference strictly smaller slots
// (topological order by construction), and the shared_ptr graph walk is
// gone from the execution path. All five engine backends (interpreted
// eval, compiled tape, generated C++, HDL emission, datapath synthesis)
// consume this form; the pass pipeline in passes.h transforms it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fixpt/format.h"
#include "opt/options.h"
#include "sfg/node.h"

namespace asicpp::sfg {
class Sfg;
}

namespace asicpp::opt {

/// One lowered instruction. Leaves (kInput / kConst / kReg) are
/// instructions too: they load the slot from their origin node (or `cval`
/// for constants), which keeps the executable form entirely linear.
struct LIns {
  sfg::Op op = sfg::Op::kConst;
  std::int32_t a = -1;  ///< operand slots; always < this instruction's slot
  std::int32_t b = -1;
  std::int32_t c = -1;
  fixpt::Format fmt{};   ///< kCast target / declared leaf format
  bool has_fmt = false;
  double cval = 0.0;          ///< kConst value
  sfg::NodePtr origin;        ///< source node; null for pass-created consts
  /// kCast: index of its resolved quantizer in LoweredSfg::quantizers, set
  /// by resolve_casts(); -1 before.
  std::int32_t q = -1;

  bool is_leaf() const {
    return op == sfg::Op::kInput || op == sfg::Op::kConst ||
           op == sfg::Op::kReg;
  }
};

struct LoweredSfg {
  std::vector<LIns> ins;  ///< topologically ordered; index == value slot

  struct Out {
    std::string port;
    std::int32_t slot = -1;
    bool needs_inputs = false;  ///< copied from Sfg::Output (analyze())
    sfg::NodePtr node;          ///< original output expression node
  };
  std::vector<Out> outputs;

  struct RegWrite {
    sfg::NodePtr reg;
    std::int32_t slot = -1;
  };
  std::vector<RegWrite> assigns;

  /// Instruction indices (ascending) reachable from the input-independent
  /// outputs — the phase-1 token-production subset — and the rest.
  std::vector<std::int32_t> pre;
  std::vector<std::int32_t> main;

  /// One quantizer per distinct cast format (resolve_casts()).
  fixpt::QuantizerTable quantizers;

  PassStats stats;

  /// Recompute `pre` and `main` from the current outputs/instructions
  /// (passes call this after renumbering slots).
  void recompute_pre();

  /// Resolve every kCast's quantizer into `quantizers` (LIns::q), so
  /// execution quantizes without rebuilding one per cast. lower(),
  /// lower_expr() and run_passes() end with it.
  void resolve_casts();
};

/// Lower an elaborated Sfg (analyze() is called if needed). No passes run;
/// the result mirrors the graph one-to-one, each distinct node appearing
/// exactly once.
LoweredSfg lower(const sfg::Sfg& s);

/// Lower a free-standing expression (FSM guards). The root becomes the
/// single entry of `outputs`, port "".
LoweredSfg lower_expr(const sfg::NodePtr& n);

/// Which instructions exec_lowered runs: all, the phase-1 subset (`pre`),
/// or the rest (`main`, valid once `pre` ran on the same leaf values).
enum class Part { kAll, kPre, kMain };

/// Execute the lowered form over `slots` (size >= ins.size()): leaves load
/// from their origin node / constant, operators apply the shared
/// semantics, casts use their resolved quantizer, so `l` must have been
/// resolved (resolve_casts()) since its instructions last changed.
void exec_lowered(const LoweredSfg& l, double* slots, Part part = Part::kAll);

/// Materialize the (optimized) lowered form back into an expression graph.
/// Leaves reuse their origin nodes; an interior instruction whose operator
/// and operands are unchanged reuses its origin too, so an identity
/// round-trip returns the original nodes and emitted names stay stable.
/// Fresh nodes (restructured instructions, pass-created constants) are
/// named "<prefix><slot>" for deterministic codegen. Returns the node per
/// requested slot.
std::vector<sfg::NodePtr> rebuild(const LoweredSfg& l,
                                  const std::string& prefix);

}  // namespace asicpp::opt
