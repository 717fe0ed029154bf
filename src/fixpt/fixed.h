// Quantization-based fixed-point value type.
//
// `Fixed` is the word-level value carried by signals in the cycle-true
// descriptions of the paper. Arithmetic between Fixed values is performed in
// double precision and the *result* is exact; quantization happens when a
// value is bound to a Format — on construction, on `cast`, or on assignment
// into a formatted target. This mirrors the paper's observation (section 3)
// that simulating quantization instead of bit vectors gives significant
// simulation speedups while remaining bit-true at format boundaries.
#pragma once

#include <iosfwd>

#include "fixpt/format.h"

namespace asicpp::fixpt {

class Fixed {
 public:
  /// Zero in the default (unconstrained) representation.
  Fixed() = default;

  /// An unconstrained value: exact, not yet bound to a format.
  /*implicit*/ Fixed(double v) : v_(v) {}

  /// A value quantized into format `f`.
  Fixed(double v, const Format& f) : v_(quantize(v, f)), fmt_(f), bound_(true) {}

  /// A value bound to `f` that is already a value of `f` (a Quantizer(f)
  /// result), so it is not quantized again: equal to Fixed(v, f) for such
  /// a `v`.
  static Fixed quantized(double v, const Format& f) {
    Fixed x(v);
    x.fmt_ = f;
    x.bound_ = true;
    return x;
  }

  double value() const { return v_; }
  const Format& format() const { return fmt_; }
  bool bound() const { return bound_; }

  /// Integer mantissa (value / lsb). Only meaningful for bound values.
  long long raw() const;

  /// Re-quantize this value into format `f`.
  Fixed cast(const Format& f) const { return Fixed(v_, f); }

  /// Assign preserving *this*'s format (the registered-signal assignment
  /// semantics: the target keeps its wordlength).
  Fixed& assign(const Fixed& rhs);

  Fixed operator-() const { return Fixed(-v_); }

  Fixed& operator+=(const Fixed& r);
  Fixed& operator-=(const Fixed& r);
  Fixed& operator*=(const Fixed& r);

  friend Fixed operator+(const Fixed& a, const Fixed& b) { return Fixed(a.v_ + b.v_); }
  friend Fixed operator-(const Fixed& a, const Fixed& b) { return Fixed(a.v_ - b.v_); }
  friend Fixed operator*(const Fixed& a, const Fixed& b) { return Fixed(a.v_ * b.v_); }
  /// Division is exact in double precision; quantize by casting the result.
  friend Fixed operator/(const Fixed& a, const Fixed& b) { return Fixed(a.v_ / b.v_); }

  friend bool operator==(const Fixed& a, const Fixed& b) { return a.v_ == b.v_; }
  friend bool operator!=(const Fixed& a, const Fixed& b) { return a.v_ != b.v_; }
  friend bool operator<(const Fixed& a, const Fixed& b) { return a.v_ < b.v_; }
  friend bool operator<=(const Fixed& a, const Fixed& b) { return a.v_ <= b.v_; }
  friend bool operator>(const Fixed& a, const Fixed& b) { return a.v_ > b.v_; }
  friend bool operator>=(const Fixed& a, const Fixed& b) { return a.v_ >= b.v_; }

  friend std::ostream& operator<<(std::ostream& os, const Fixed& f);

 private:
  double v_ = 0.0;
  Format fmt_{};
  bool bound_ = false;
};

}  // namespace asicpp::fixpt
