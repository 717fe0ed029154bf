// Signal flow graphs.
//
// An Sfg assembles signal expressions into one clock cycle of data
// processing (section 3.1): declared inputs, named outputs, and next-value
// assignments to registered signals. Declaring the desired inputs and
// outputs enables the semantic checks the paper mentions — dangling-input
// and dead-code detection — and the input-dependency analysis the cycle
// scheduler's token-production phase relies on (which outputs depend only
// on registered or constant signals).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "fixpt/fixed.h"
#include "opt/options.h"
#include "sfg/sig.h"

namespace asicpp::opt {
struct LoweredSfg;
}

namespace asicpp::sfg {

class Sfg {
 public:
  explicit Sfg(std::string name);
  ~Sfg();
  Sfg(Sfg&&) noexcept;
  Sfg& operator=(Sfg&&) noexcept;

  const std::string& name() const { return name_; }

  /// Declare an input port of this SFG. The Sig must be an input signal.
  Sfg& in(const Sig& s);
  /// Declare a named output computed by `expr`.
  Sfg& out(const std::string& port, const Sig& expr);
  /// Schedule `expr` as the next value of registered signal `r`.
  Sfg& assign(const Reg& r, const Sig& expr);
  /// Node-level assign, used when materializing a pass-optimized clone
  /// (hdl/synth consumption); `reg` must be a registered-signal node.
  Sfg& assign_node(NodePtr reg, NodePtr expr);

  struct Output {
    std::string port;
    NodePtr expr;
    bool needs_inputs = false;  ///< depends on at least one declared input
  };
  struct RegAssign {
    NodePtr reg;
    NodePtr expr;
  };

  const std::vector<NodePtr>& inputs() const { return inputs_; }
  const std::vector<Output>& outputs() const { return outputs_; }
  const std::vector<RegAssign>& reg_assigns() const { return assigns_; }

  /// Dependency analysis; runs lazily before simulation / checks /
  /// static scheduling. Const: it only fills the memoized needs_inputs
  /// classification of the declared outputs.
  void analyze() const;

  /// Accumulating lint pass. Reports *all* violations of this SFG into
  /// `de` in one run, each with a stable code:
  ///   SFG-001 dangling input (expression reaches an undeclared input)
  ///   SFG-002 dead code (declared input never used)
  ///   SFG-003 duplicate output port
  ///   SFG-004 double assignment to one register
  ///   SFG-005 width mismatch (bitwise op on different widths; assignment
  ///           that silently narrows into the register format)
  ///   SFG-006 registers of one SFG bound to different clocks
  void check(diag::DiagEngine& de);

  // --- simulation (interpreted mode) ---

  /// Pass pipeline applied when this SFG is lowered for evaluation. The
  /// default runs every pass; PassOptions::none() restores the original
  /// recursive graph walk (the differential reference).
  void set_pass_options(const opt::PassOptions& p);
  const opt::PassOptions& pass_options() const { return popts_; }

  /// Drop the cached lowered form and its resolved plan (formats or values
  /// were mutated behind the Sfg's back, e.g. by wordlength optimization
  /// knobs).
  void invalidate_lowered();

  /// Lowered, pass-optimized form of this SFG (built lazily). Also the
  /// source of the optimizer's instruction-count statistics.
  const opt::LoweredSfg& lowered() const;

  /// Build the lowered form and the evaluation plan resolved from it (each
  /// register commit's quantizer, which outputs are written back) now
  /// instead of on first use. The cycle scheduler calls this outside phase
  /// 2, so its firings only read them.
  void resolve() const;

  /// Process-wide count of changes to any Sfg's ports, assignments, pass
  /// options or lowered form. Components that cache what they resolved
  /// from their SFGs (sched::TimedBase's port tables) compare it to know
  /// when to resolve again.
  static std::uint64_t changes() { return changes_.load(std::memory_order_relaxed); }

  /// Set the current value of a declared input by port name.
  void set_input(const std::string& port, const fixpt::Fixed& v);

  /// Phase-1 evaluation: compute only outputs that do not depend on inputs
  /// (they are functions of registers and constants alone).
  void eval_register_outputs(std::uint64_t stamp);

  /// Full evaluation: all outputs plus register next-values. Requires all
  /// inputs to carry this cycle's values. What eval_register_outputs ran
  /// under the same stamp is not run again: registers only change in phase
  /// 3, so its results still hold.
  void eval(std::uint64_t stamp);

  /// Convenience: eval with a fresh stamp.
  void eval();

  /// Value of output `port` after eval.
  fixpt::Fixed output_value(const std::string& port) const;

  /// Commit next-values of the registers assigned by this SFG (phase 3).
  void update_registers();

 private:
  struct Plan;  // sfg.cpp
  bool depends_on_declared_input(const NodePtr& n) const;
  const Plan& plan() const;
  /// Ports, assignments, pass options or formats changed: drop what was
  /// resolved from them and count the change.
  void changed();

  std::string name_;
  std::vector<NodePtr> inputs_;
  mutable std::vector<Output> outputs_;  ///< mutable: analyze() memoizes needs_inputs
  std::vector<RegAssign> assigns_;
  mutable bool analyzed_ = false;
  opt::PassOptions popts_{};
  mutable std::unique_ptr<opt::LoweredSfg> lowered_;
  mutable std::unique_ptr<Plan> plan_;
  mutable std::vector<double> slots_;  ///< IR value slots, sized with the plan
  std::uint64_t pre_stamp_ = 0;  ///< stamp of the last eval_register_outputs
  static inline std::atomic<std::uint64_t> changes_{0};
};

}  // namespace asicpp::sfg
