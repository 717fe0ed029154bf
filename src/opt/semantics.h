// The single definition of per-operator value semantics.
//
// Every execution engine — interpreted eval, the compiled tape executor,
// the generated standalone C++ simulator — computes operator results
// through these helpers, so the five representations stay bit-identical by
// construction instead of by parallel-maintained switch statements.
// Word-level values are doubles: arithmetic is exact, bitwise operators
// act on the rounded integer interpretation, and quantization happens only
// at format boundaries (kCast, register commit, input load), mirroring the
// paper's section-3 quantization model.
#pragma once

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "fixpt/format.h"
#include "sfg/node.h"

namespace asicpp::opt {

inline long long value_as_int(double v) {
  return static_cast<long long>(std::llround(v));
}

/// Apply one operator to already-evaluated operand values. `fmt` is only
/// read for kCast. Throws for leaves (they carry values, not semantics).
inline double apply_op_value(sfg::Op op, double a, double b, double c,
                             const fixpt::Format& fmt) {
  using sfg::Op;
  switch (op) {
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kMul: return a * b;
    case Op::kNeg: return -a;
    // Bitwise operators act on the integer interpretation of the value;
    // they are intended for flags, instruction words and address math.
    case Op::kAnd: return static_cast<double>(value_as_int(a) & value_as_int(b));
    case Op::kOr: return static_cast<double>(value_as_int(a) | value_as_int(b));
    case Op::kXor: return static_cast<double>(value_as_int(a) ^ value_as_int(b));
    case Op::kNot: return value_as_int(a) == 0 ? 1.0 : 0.0;
    case Op::kShl: return std::ldexp(a, static_cast<int>(b));
    case Op::kShr: return std::ldexp(a, -static_cast<int>(b));
    case Op::kMux: return a != 0.0 ? b : c;
    case Op::kEq: return a == b ? 1.0 : 0.0;
    case Op::kNe: return a != b ? 1.0 : 0.0;
    case Op::kLt: return a < b ? 1.0 : 0.0;
    case Op::kLe: return a <= b ? 1.0 : 0.0;
    case Op::kGt: return a > b ? 1.0 : 0.0;
    case Op::kGe: return a >= b ? 1.0 : 0.0;
    case Op::kCast: return fixpt::quantize(a, fmt);
    case Op::kInput:
    case Op::kConst:
    case Op::kReg:
    case Op::kCount:
      break;
  }
  throw std::logic_error("apply_op_value: leaf node has no operator");
}

/// Double literal emitted as hexfloat so it round-trips exactly through
/// the host compiler.
inline std::string cpp_double_lit(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return std::string(buf);
}

/// C++ expression text quantizing `a` into `fmt` via the generated unit's
/// `q(...)` helper — the textual form of fixpt::quantize. Used for kCast,
/// net-to-input loads, and register commits.
inline std::string cpp_quantize_expr(const std::string& a,
                                     const fixpt::Format& fmt) {
  return "q(" + a + ", " + std::to_string(fmt.frac_bits()) + ", " +
         cpp_double_lit(fmt.max_value()) + ", " + cpp_double_lit(fmt.min_value()) +
         ", " + std::string(fmt.quant == fixpt::Quant::kRound ? "1" : "0") +
         ", " + std::string(fmt.ovf == fixpt::Overflow::kSaturate ? "1" : "0") +
         ", " + cpp_double_lit(std::ldexp(1.0, fmt.wl)) + ")";
}

/// C++ expression text computing `apply_op_value(op, a, b, c, fmt)` inside
/// the generated C++ unit (sim/cppunit.h), which defines `ll(double)`
/// (rounded integer interpretation) and `q(...)` (quantize); this helper's
/// output references exactly those names, so the generated code and the
/// in-process engines share one semantics definition.
inline std::string cpp_op_expr(sfg::Op op, const std::string& a,
                               const std::string& b, const std::string& c,
                               const fixpt::Format& fmt) {
  using sfg::Op;
  const auto quantize_call = [&]() { return cpp_quantize_expr(a, fmt); };
  switch (op) {
    case Op::kAdd: return a + " + " + b;
    case Op::kSub: return a + " - " + b;
    case Op::kMul: return a + " * " + b;
    case Op::kNeg: return "-" + a;
    case Op::kAnd: return "(double)(ll(" + a + ") & ll(" + b + "))";
    case Op::kOr: return "(double)(ll(" + a + ") | ll(" + b + "))";
    case Op::kXor: return "(double)(ll(" + a + ") ^ ll(" + b + "))";
    case Op::kNot: return "ll(" + a + ") == 0 ? 1.0 : 0.0";
    case Op::kShl: return "std::ldexp(" + a + ", (int)" + b + ")";
    case Op::kShr: return "std::ldexp(" + a + ", -(int)" + b + ")";
    case Op::kMux: return a + " != 0.0 ? " + b + " : " + c;
    case Op::kEq: return a + " == " + b + " ? 1.0 : 0.0";
    case Op::kNe: return a + " != " + b + " ? 1.0 : 0.0";
    case Op::kLt: return a + " < " + b + " ? 1.0 : 0.0";
    case Op::kLe: return a + " <= " + b + " ? 1.0 : 0.0";
    case Op::kGt: return a + " > " + b + " ? 1.0 : 0.0";
    case Op::kGe: return a + " >= " + b + " ? 1.0 : 0.0";
    case Op::kCast: return quantize_call();
    case Op::kInput:
    case Op::kConst:
    case Op::kReg:
    case Op::kCount:
      break;
  }
  throw std::logic_error("cpp_op_expr: leaf node has no operator");
}

}  // namespace asicpp::opt
