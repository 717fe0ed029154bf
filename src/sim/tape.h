// Linear operation tapes: the compiled-code simulation format.
//
// The paper's code generator regenerates an "application-specific and
// optimized compiled code simulator" from the SFG/FSM data structure
// (section 5, Fig 7). The tape is that simulator's executable form: each
// SFG's lowered IR (see opt/ir.h) maps onto straight-line, topologically
// ordered operations over a flat slot array — no graph traversal, no
// virtual dispatch, no memoization stamps. Operator semantics are not
// re-implemented here: execution delegates to opt::apply_op_value, the one
// definition shared with interpreted eval and the C++ code generator.
#pragma once

#include <cstdint>
#include <vector>

#include "fixpt/format.h"
#include "sfg/node.h"

namespace asicpp::sim {

struct Instr {
  /// Operator applied via opt::apply_op_value. The sentinel sfg::Op::kCount
  /// marks a plain copy (dst = a), quantized through `fmt` when `quant` is
  /// set — the form used for net-to-input loads.
  sfg::Op op = sfg::Op::kCount;
  bool quant = false;
  std::int32_t dst = -1;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t c = -1;
  fixpt::Format fmt{};
  /// kCast and quantized copies: index of `fmt`'s resolved quantizer in
  /// the table exec() is given (sim::Image::quantizers).
  std::int32_t q = -1;

  static Instr apply(sfg::Op op, std::int32_t dst, std::int32_t a,
                     std::int32_t b = -1, std::int32_t c = -1,
                     const fixpt::Format& fmt = {}) {
    Instr i;
    i.op = op;
    i.dst = dst;
    i.a = a;
    i.b = b;
    i.c = c;
    i.fmt = fmt;
    return i;
  }
  static Instr copy(std::int32_t dst, std::int32_t a) {
    Instr i;
    i.dst = dst;
    i.a = a;
    return i;
  }
  static Instr copy_q(std::int32_t dst, std::int32_t a, const fixpt::Format& fmt) {
    Instr i;
    i.quant = true;
    i.dst = dst;
    i.a = a;
    i.fmt = fmt;
    return i;
  }
};

using Tape = std::vector<Instr>;

/// Execute `tape` over the slot array, quantizing through `quantizers`
/// (indexed by Instr::q). Slot values are the quantized word-level values
/// (doubles), identical to what interpreted evaluation computes.
void exec(const Tape& tape, double* slots, const fixpt::Quantizer* quantizers);

}  // namespace asicpp::sim
