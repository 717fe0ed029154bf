// The optimization pass pipeline over the lowered IR.
//
// Passes are value-preserving by construction: every rewrite either
// computes the replacement with the shared semantics helper (folding) or
// redirects a slot to an operand that provably carries the same double
// (identities, CSE). Bitwise identities (x | 0, x & ~0) are deliberately
// absent — bitwise operators reinterpret the rounded integer mantissa, so
// they are not value-identities on the double domain; likewise NOT is a
// logical complement, not an involution, so NOT(NOT x) does not fold.
//
// Each pass returns its rewrite count and is independently callable for
// unit testing; run_passes drives them to a fixpoint (canonicalize, fold,
// identities, CSE) and finishes with one DCE sweep.
#pragma once

#include "opt/ir.h"
#include "opt/options.h"

namespace asicpp::opt {

/// Order the operands of commutative operators (add, mul, and, or, xor,
/// eq, ne) by ascending slot so structurally equal expressions hash equal.
int canonicalize(LoweredSfg& l);

/// Replace instructions whose operands are all constants with the constant
/// result (computed by apply_op_value — exactly the engine semantics), and
/// muxes with a constant selector with the chosen arm.
int fold_constants(LoweredSfg& l);

/// Algebraic identities: x+0, 0+x, x-0, x*1, 1*x, x*0, 0*x, shift-by-0,
/// neg(neg(x)), mux with identical arms.
int simplify_identities(LoweredSfg& l);

/// Structural-hashing common-subexpression elimination.
int cse(LoweredSfg& l);

/// Remove instructions unreachable from the outputs and register
/// assignments, renumbering the surviving slots.
int dce(LoweredSfg& l);

/// Run the pipeline per `opts` (the `lower` flag is ignored here — the
/// caller decided to lower by calling this). Updates l.stats and l.pre,
/// and resolves the surviving casts (resolve_casts()).
PassStats run_passes(LoweredSfg& l, const PassOptions& opts);

}  // namespace asicpp::opt
