#include "fixpt/format.h"

#include <cmath>
#include <sstream>

namespace asicpp::fixpt {

double Format::lsb() const { return std::ldexp(1.0, -frac_bits()); }

double Format::max_value() const {
  const int magnitude_bits = wl - (is_signed ? 1 : 0);
  return (std::ldexp(1.0, magnitude_bits) - 1.0) * lsb();
}

double Format::min_value() const {
  if (!is_signed) return 0.0;
  return -std::ldexp(1.0, wl - 1) * lsb();
}

std::string Format::to_string() const {
  std::ostringstream os;
  os << (is_signed ? "fix<" : "ufix<") << wl << ',' << iwl << ','
     << (quant == Quant::kRound ? "rnd" : "trn") << ','
     << (ovf == Overflow::kSaturate ? "sat" : "wrap") << '>';
  return os.str();
}

// The defining ldexp formulation, used off the exact domain, where a scale
// factor or bound is not a normal double and may carry its own rounding.
void Quantizer::resolve_ldexp(const Format& f) {
  hi_ = std::ldexp(f.max_value(), frac_);
  lo_ = std::ldexp(f.min_value(), frac_);
  span_ = std::ldexp(1.0, f.wl);
}

double Quantizer::via_ldexp(double v) const {
  const double scaled = std::ldexp(v, frac_);
  return std::ldexp(fold(round_ ? std::round(scaled) : std::floor(scaled)), -frac_);
}

bool representable(double v, const Format& f) { return quantize(v, f) == v; }

Format add_format(const Format& a, const Format& b) {
  Format r;
  r.is_signed = a.is_signed || b.is_signed;
  const int frac = std::max(a.frac_bits(), b.frac_bits());
  const int iwl = std::max(a.iwl, b.iwl) + 1;  // one carry bit
  r.iwl = iwl;
  r.wl = iwl + frac + (r.is_signed ? 1 : 0);
  r.quant = a.quant;
  r.ovf = a.ovf;
  return r;
}

Format mul_format(const Format& a, const Format& b) {
  Format r;
  r.is_signed = a.is_signed || b.is_signed;
  const int frac = a.frac_bits() + b.frac_bits();
  const int iwl = a.iwl + b.iwl + 1;
  r.iwl = iwl;
  r.wl = iwl + frac + (r.is_signed ? 1 : 0);
  r.quant = a.quant;
  r.ovf = a.ovf;
  return r;
}

}  // namespace asicpp::fixpt
