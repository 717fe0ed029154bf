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
/// the host compiler (infinities and NaNs as GCC/Clang builtins; a NaN
/// keeps its sign, not its payload).
inline std::string cpp_double_lit(double v) {
  if (std::isinf(v)) return v < 0 ? "-__builtin_inf()" : "__builtin_inf()";
  if (std::isnan(v)) return std::signbit(v) ? "-__builtin_nan(\"\")" : "__builtin_nan(\"\")";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return std::string(buf);
}

/// `fmt`'s round and saturate flags as the generated unit's int arguments.
inline std::string cpp_quant_modes(const fixpt::Format& fmt) {
  return std::string(fmt.quant == fixpt::Quant::kRound ? "1" : "0") + ", " +
         (fmt.ovf == fixpt::Overflow::kSaturate ? "1" : "0");
}

/// Name of the generated unit's quantize helper for `fmt`, e.g.
/// `qc_s16_m3_rw`: signedness and wl, iwl (`m` for minus), round or
/// truncate, saturate or wrap.
inline std::string cpp_quantizer_name(const fixpt::Format& fmt) {
  const auto num = [](int v) {
    return v < 0 ? "m" + std::to_string(-v) : std::to_string(v);
  };
  return std::string("qc_") + (fmt.is_signed ? "s" : "u") + num(fmt.wl) + "_" +
         num(fmt.iwl) + "_" + (fmt.quant == fixpt::Quant::kRound ? "r" : "t") +
         (fmt.ovf == fixpt::Overflow::kSaturate ? "s" : "w");
}

/// Definition of that helper for a format in the Quantizer's exact
/// domain: an out-of-line function applying the generated unit's `q()` to
/// the resolved constants 2^frac, 2^-frac, mantissa bounds and wrap span
/// (hexfloat literals), then the round and saturate flags.
inline std::string cpp_quantizer_def(const fixpt::Format& fmt) {
  const fixpt::Quantizer qz(fmt);
  return "__attribute__((noinline)) static double " + cpp_quantizer_name(fmt) +
         "(double v) {\n  return q(v, QConst{" + cpp_double_lit(qz.scale()) + ", " +
         cpp_double_lit(qz.inv()) + ", " + cpp_double_lit(qz.hi()) + ", " +
         cpp_double_lit(qz.lo()) + ", " + cpp_double_lit(qz.span()) + ", " +
         cpp_quant_modes(fmt) + "});\n}\n";
}

/// C++ expression text quantizing `a` into `fmt` — the textual form of
/// fixpt::quantize, used for kCast, net-to-input loads and register
/// commits. A format in the Quantizer's exact domain calls its helper in
/// the generated unit (cpp_quantizer_def); any other format calls
/// `q_ldexp(...)`, the ldexp formulation.
inline std::string cpp_quantize_expr(const std::string& a,
                                     const fixpt::Format& fmt) {
  if (fixpt::Quantizer(fmt).exact()) return cpp_quantizer_name(fmt) + "(" + a + ")";
  return "q_ldexp(" + a + ", " + std::to_string(fmt.frac_bits()) + ", " +
         cpp_double_lit(fmt.max_value()) + ", " + cpp_double_lit(fmt.min_value()) +
         ", " + cpp_quant_modes(fmt) + ", " + cpp_double_lit(std::ldexp(1.0, fmt.wl)) +
         ")";
}

/// C++ expression text computing `apply_op_value(op, a, b, c, fmt)` inside
/// the generated C++ unit (sim/cppunit.h), which defines `ll(double)`
/// (rounded integer interpretation) and the quantize helpers of
/// cpp_quantize_expr; this helper's output references exactly those
/// names, so the generated code and the in-process engines share one
/// semantics definition.
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
    case Op::kShl: return "__builtin_ldexp(" + a + ", (int)" + b + ")";
    case Op::kShr: return "__builtin_ldexp(" + a + ", -(int)" + b + ")";
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
