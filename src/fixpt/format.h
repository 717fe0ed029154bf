// Fixed-point number formats.
//
// The paper (section 3) simulates finite-wordlength effects with a C++
// fixed-point library that models *quantization* of values rather than their
// bit-vector representation; this is where most of the simulation speedup at
// the word level comes from. A Format captures everything needed to quantize
// a real value: total wordlength, integer wordlength, signedness, and the
// rounding / overflow disciplines.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace asicpp::fixpt {

/// Rounding discipline applied when a value has more fractional precision
/// than the target format can hold.
enum class Quant {
  kTruncate,  ///< drop extra bits (round toward -infinity on the mantissa)
  kRound,     ///< round to nearest, ties away from zero
};

/// Overflow discipline applied when a value exceeds the representable range.
enum class Overflow {
  kSaturate,  ///< clamp to the closest representable extreme
  kWrap,      ///< two's-complement wraparound of the mantissa
};

/// Describes a fixed-point representation <wl, iwl> as in the paper's fixed
/// point library: `wl` total bits including the sign bit when signed, `iwl`
/// integer bits (excluding sign). Fractional bits = wl - iwl - (sign ? 1 : 0).
/// A negative fractional-bit count is allowed (coarser-than-integer grids).
struct Format {
  int wl = 32;
  int iwl = 15;
  bool is_signed = true;
  Quant quant = Quant::kTruncate;
  Overflow ovf = Overflow::kSaturate;

  constexpr int frac_bits() const { return wl - iwl - (is_signed ? 1 : 0); }

  /// Smallest representable increment.
  double lsb() const;
  /// Largest representable value.
  double max_value() const;
  /// Smallest (most negative) representable value.
  double min_value() const;

  bool operator==(const Format&) const = default;

  std::string to_string() const;
};

/// The resolved constants of one Format: quantize(v, f) is Quantizer(f)(v).
/// In the exact domain (1 <= wl <= 1023, iwl <= 1023, |frac_bits| <= 1022)
/// each is a normal double that the ldexp formulation in format.cpp
/// computes exactly, so it is built from exponent bits and integers, and
/// scaling by 2^±frac is a multiply. Both round correctly, so results are
/// bit-identical for every value, NaN payloads included. Other formats
/// resolve to the ldexp formulation itself.
class Quantizer {
 public:
  explicit Quantizer(const Format& f)
      : frac_(f.frac_bits()),
        round_(f.quant == Quant::kRound),
        saturate_(f.ovf == Overflow::kSaturate),
        exact_(f.wl >= 1 && f.wl <= 1023 && f.iwl <= 1023 && frac_ >= -1022 &&
               frac_ <= 1022) {
    if (!exact_) {
      resolve_ldexp(f);
      return;
    }
    const int mag = f.wl - (f.is_signed ? 1 : 0);
    scale_ = pow2(frac_);
    inv_ = pow2(-frac_);
    // 2^mag - 1 rounds to 2^mag above 53 bits, as it does in max_value().
    hi_ = mag <= 53 ? static_cast<double>((std::uint64_t{1} << mag) - 1) : pow2(mag);
    lo_ = f.is_signed ? -pow2(f.wl - 1) : 0.0;
    span_ = pow2(f.wl);
  }

  double operator()(double v) const {
    if (!exact_) [[unlikely]] return via_ldexp(v);
    return fold(round_ ? std::round(v * scale_) : std::floor(v * scale_)) * inv_;
  }

  /// The resolved constants, for emitters that write this quantizer out as
  /// code (opt::cpp_quantize_expr). Meaningful only when exact(): 2^frac,
  /// 2^-frac, the rounded mantissa's bounds and its wraparound span.
  bool exact() const { return exact_; }
  double scale() const { return scale_; }
  double inv() const { return inv_; }
  double hi() const { return hi_; }
  double lo() const { return lo_; }
  double span() const { return span_; }

 private:
  static double pow2(int e) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52);
  }
  double fold(double m) const {  // overflow handling of a rounded mantissa
    if (m > hi_ || m < lo_) {
      if (saturate_) return m > hi_ ? hi_ : lo_;
      m = std::fmod(m - lo_, span_);  // two's-complement wraparound
      if (m < 0) m += span_;
      m += lo_;
    }
    return m;
  }
  void resolve_ldexp(const Format& f);
  double via_ldexp(double v) const;

  double scale_ = 0.0, inv_ = 0.0, hi_ = 0.0, lo_ = 0.0, span_ = 0.0;
  int frac_;
  bool round_, saturate_, exact_;
};

/// Quantize `v` into format `f` (rounding, then overflow handling).
inline double quantize(double v, const Format& f) { return Quantizer(f)(v); }

/// One Quantizer per distinct Format, each at a dense index, so a
/// per-cycle path holds the index and never builds a quantizer.
class QuantizerTable {
 public:
  /// Index of `f`'s quantizer, added on first use.
  std::int32_t index(const Format& f) {
    for (std::size_t i = 0; i < fmts_.size(); ++i)
      if (fmts_[i] == f) return static_cast<std::int32_t>(i);
    fmts_.push_back(f);
    qs_.emplace_back(f);
    return static_cast<std::int32_t>(qs_.size() - 1);
  }
  const Quantizer& operator[](std::int32_t i) const { return qs_[static_cast<std::size_t>(i)]; }
  const Quantizer* data() const { return qs_.data(); }
  void clear() {
    fmts_.clear();
    qs_.clear();
  }

 private:
  std::vector<Format> fmts_;
  std::vector<Quantizer> qs_;
};

/// True when `v` is exactly representable in `f`.
bool representable(double v, const Format& f);

/// Format able to hold the exact sum of values in formats a and b.
Format add_format(const Format& a, const Format& b);
/// Format able to hold the exact product of values in formats a and b.
Format mul_format(const Format& a, const Format& b);

}  // namespace asicpp::fixpt
