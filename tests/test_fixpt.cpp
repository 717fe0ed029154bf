#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fixpt/bitvector.h"
#include "fixpt/fixbits.h"
#include "fixpt/fixed.h"
#include "fixpt/format.h"

namespace asicpp::fixpt {
namespace {

Format fmt(int wl, int iwl, bool s = true, Quant q = Quant::kTruncate,
           Overflow o = Overflow::kSaturate) {
  return Format{wl, iwl, s, q, o};
}

TEST(Format, LsbAndRange) {
  const Format f = fmt(8, 3);  // 1 sign, 3 integer, 4 fractional bits
  EXPECT_EQ(f.frac_bits(), 4);
  EXPECT_DOUBLE_EQ(f.lsb(), 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 127.0 / 16.0);
  EXPECT_DOUBLE_EQ(f.min_value(), -8.0);
}

TEST(Format, UnsignedRange) {
  const Format f = fmt(8, 8, /*s=*/false);  // pure unsigned integer
  EXPECT_EQ(f.frac_bits(), 0);
  EXPECT_DOUBLE_EQ(f.max_value(), 255.0);
  EXPECT_DOUBLE_EQ(f.min_value(), 0.0);
}

TEST(Format, NegativeFracBitsGrid) {
  const Format f = fmt(4, 5, /*s=*/false);  // lsb = 2
  EXPECT_EQ(f.frac_bits(), -1);
  EXPECT_DOUBLE_EQ(f.lsb(), 2.0);
  EXPECT_DOUBLE_EQ(quantize(5.0, f), 4.0);
}

TEST(Quantize, TruncateRoundsTowardMinusInfinity) {
  const Format f = fmt(8, 3);
  EXPECT_DOUBLE_EQ(quantize(1.03, f), 1.0);
  EXPECT_DOUBLE_EQ(quantize(-1.03, f), -1.0625);
}

TEST(Quantize, RoundToNearest) {
  const Format f = fmt(8, 3, true, Quant::kRound);
  EXPECT_DOUBLE_EQ(quantize(1.03, f), 1.0);
  EXPECT_DOUBLE_EQ(quantize(1.04, f), 1.0625);
  EXPECT_DOUBLE_EQ(quantize(-1.04, f), -1.0625);
}

TEST(Quantize, SaturateClampsBothEnds) {
  const Format f = fmt(8, 3);
  EXPECT_DOUBLE_EQ(quantize(100.0, f), f.max_value());
  EXPECT_DOUBLE_EQ(quantize(-100.0, f), f.min_value());
}

TEST(Quantize, WrapIsModular) {
  const Format f = fmt(8, 7, true, Quant::kTruncate, Overflow::kWrap);
  // 8-bit signed integer grid: 130 wraps to -126.
  EXPECT_DOUBLE_EQ(quantize(130.0, f), -126.0);
  EXPECT_DOUBLE_EQ(quantize(-130.0, f), 126.0);
}

TEST(Quantize, RepresentableIsFixpoint) {
  const Format f = fmt(12, 5, true, Quant::kRound);
  const double q = quantize(3.14159, f);
  EXPECT_TRUE(representable(q, f));
  EXPECT_DOUBLE_EQ(quantize(q, f), q);
}

TEST(FormatPropagation, AddGrowsOneBit) {
  const Format a = fmt(8, 3), b = fmt(8, 3);
  const Format s = add_format(a, b);
  // Any sum of two representable values must be representable in s.
  EXPECT_TRUE(representable(a.max_value() + b.max_value(), s));
  EXPECT_TRUE(representable(a.min_value() + b.min_value(), s));
}

TEST(FormatPropagation, MulHoldsFullProduct) {
  const Format a = fmt(8, 3), b = fmt(6, 2);
  const Format p = mul_format(a, b);
  EXPECT_TRUE(representable(a.max_value() * b.max_value(), p));
  EXPECT_TRUE(representable(a.min_value() * b.min_value(), p));
  EXPECT_TRUE(representable(a.min_value() * b.max_value(), p));
}

TEST(Fixed, UnboundArithmeticIsExact) {
  const Fixed a(1.5), b(2.25);
  EXPECT_DOUBLE_EQ((a + b).value(), 3.75);
  EXPECT_DOUBLE_EQ((a - b).value(), -0.75);
  EXPECT_DOUBLE_EQ((a * b).value(), 3.375);
  EXPECT_FALSE((a + b).bound());
}

TEST(Fixed, ConstructionQuantizes) {
  const Fixed a(1.03, fmt(8, 3));
  EXPECT_DOUBLE_EQ(a.value(), 1.0);
  EXPECT_TRUE(a.bound());
  EXPECT_EQ(a.raw(), 16);
}

TEST(Fixed, AssignKeepsTargetFormat) {
  Fixed acc(0.0, fmt(8, 3));
  acc.assign(Fixed(1.03));
  EXPECT_DOUBLE_EQ(acc.value(), 1.0);
  acc += Fixed(100.0);  // saturates
  EXPECT_DOUBLE_EQ(acc.value(), fmt(8, 3).max_value());
}

TEST(Fixed, CastRequantizes) {
  const Fixed a(3.14159, fmt(24, 8, true, Quant::kRound));
  const Fixed b = a.cast(fmt(8, 3));
  EXPECT_DOUBLE_EQ(b.value(), 3.125);
}

TEST(Fixed, ComparisonsOnValue) {
  const Fixed a(1.0), b(2.0);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(a <= a);
  EXPECT_TRUE(a == Fixed(1.0));
  EXPECT_TRUE(a != b);
}

// --- BitVector ---

TEST(BitVector, ConstructionAndRoundTrip) {
  const BitVector b(12, -5);
  EXPECT_EQ(b.width(), 12);
  EXPECT_EQ(b.to_int64(), -5);
  EXPECT_EQ(b.to_uint64(), 0xFFBu);
}

TEST(BitVector, FromBinaryString) {
  const BitVector b = BitVector::from_binary_string("1010");
  EXPECT_EQ(b.to_uint64(), 10u);
  EXPECT_EQ(b.to_int64(), -6);  // 4-bit two's complement
  EXPECT_EQ(b.to_string(), "0b1010");
}

TEST(BitVector, AddWrapsAtWidth) {
  const BitVector a(8, 200), b(8, 100);
  EXPECT_EQ((a + b).to_uint64(), 44u);  // 300 mod 256
}

TEST(BitVector, SubIsTwosComplement) {
  const BitVector a(8, 5), b(8, 9);
  EXPECT_EQ((a - b).to_int64(), -4);
}

TEST(BitVector, MulWrapsAtWidth) {
  const BitVector a(8, 20), b(8, 30);
  EXPECT_EQ((a * b).to_uint64(), 600u % 256u);
}

TEST(BitVector, WideArithmeticCrossesLimbs) {
  // 100-bit: (2^70 + 3) + (2^70 + 5) = 2^71 + 8.
  BitVector a(100), b(100);
  a.set_bit(70, true);
  a.set_bit(0, true);
  a.set_bit(1, true);
  b.set_bit(70, true);
  b.set_bit(0, true);
  b.set_bit(2, true);
  const BitVector s = a + b;
  EXPECT_TRUE(s.bit(71));
  EXPECT_FALSE(s.bit(70));
  EXPECT_TRUE(s.bit(3));
  EXPECT_FALSE(s.bit(0));
}

TEST(BitVector, LogicOps) {
  const BitVector a(4, 0b1100), b(4, 0b1010);
  EXPECT_EQ((a & b).to_uint64(), 0b1000u);
  EXPECT_EQ((a | b).to_uint64(), 0b1110u);
  EXPECT_EQ((a ^ b).to_uint64(), 0b0110u);
  EXPECT_EQ((~a).to_uint64(), 0b0011u);
}

TEST(BitVector, Shifts) {
  const BitVector a(8, 0b10010000);
  EXPECT_EQ((a << 1).to_uint64(), 0b00100000u);
  EXPECT_EQ(a.lshr(4).to_uint64(), 0b00001001u);
  EXPECT_EQ(a.ashr(4).to_int64(), BitVector(8, 0b11111001).to_int64());
}

TEST(BitVector, SliceConcatExtend) {
  const BitVector a(8, 0b10110100);
  EXPECT_EQ(a.slice(2, 4).to_uint64(), 0b1101u);
  const BitVector hi(4, 0b1011), lo(4, 0b0100);
  EXPECT_EQ(hi.concat(lo).to_uint64(), 0b10110100u);
  EXPECT_EQ(BitVector(4, -3).extend(8, true).to_int64(), -3);
  EXPECT_EQ(BitVector(4, -3).extend(8, false).to_uint64(), 13u);
}

TEST(BitVector, Comparisons) {
  EXPECT_TRUE(BitVector(8, -1).slt(BitVector(8, 0)));
  EXPECT_FALSE(BitVector(8, -1).ult(BitVector(8, 0)));
  EXPECT_TRUE(BitVector(8, 3).ult(BitVector(8, 200)));
  EXPECT_TRUE(BitVector(8, 0).is_zero());
  EXPECT_FALSE(BitVector(8, 1).is_zero());
}

// --- Fixed <-> BitVector bridge ---

TEST(FixBits, RoundTrip) {
  const Format f = fmt(10, 4, true, Quant::kRound);
  const Fixed x(2.71828, f);
  const BitVector b = to_bits(x, f);
  EXPECT_EQ(b.width(), 10);
  EXPECT_EQ(from_bits(b, f).value(), x.value());
}

TEST(FixBits, NegativeValues) {
  const Format f = fmt(8, 3);
  const Fixed x(-1.5, f);
  EXPECT_EQ(to_bits(x, f).to_int64(), -24);  // -1.5 * 16
  EXPECT_DOUBLE_EQ(from_bits(BitVector(8, -24), f).value(), -1.5);
}

TEST(FixBits, WidthMismatchThrows) {
  EXPECT_THROW(from_bits(BitVector(7, 0), fmt(8, 3)), std::invalid_argument);
}

// --- Property sweeps ---

// Quantization agrees with exact bit-true integer arithmetic for every
// format in the sweep: quantize == decode(encode) over random values.
class QuantBitTrueEquiv : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(QuantBitTrueEquiv, QuantizeMatchesMantissaGrid) {
  const auto [wl, iwl, sgn] = GetParam();
  if (iwl + (sgn ? 1 : 0) > wl) GTEST_SKIP();
  Format f = fmt(wl, iwl, sgn, Quant::kRound);
  std::mt19937 rng(static_cast<unsigned>(wl * 131 + iwl * 7 + sgn));
  std::uniform_real_distribution<double> dist(f.min_value() * 1.5, f.max_value() * 1.5);
  for (int i = 0; i < 200; ++i) {
    const double v = dist(rng);
    const Fixed q(v, f);
    // Round-trip through the bit representation must be lossless.
    EXPECT_EQ(from_bits(to_bits(q, f), f).value(), q.value())
        << f.to_string() << " v=" << v;
    // The quantized value sits on the lsb grid within range.
    EXPECT_LE(q.value(), f.max_value());
    EXPECT_GE(q.value(), f.min_value());
    EXPECT_TRUE(representable(q.value(), f));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, QuantBitTrueEquiv,
    ::testing::Combine(::testing::Values(4, 8, 12, 16, 24, 32),
                       ::testing::Values(0, 1, 3, 7),
                       ::testing::Bool()));

// Quantization error bound: |q - v| < lsb for round-to-nearest within range.
class QuantErrorBound : public ::testing::TestWithParam<int> {};

TEST_P(QuantErrorBound, ErrorBelowOneLsb) {
  const int wl = GetParam();
  const Format f = fmt(wl, wl / 2, true, Quant::kRound);
  std::mt19937 rng(static_cast<unsigned>(wl));
  std::uniform_real_distribution<double> dist(f.min_value(), f.max_value());
  for (int i = 0; i < 500; ++i) {
    const double v = dist(rng);
    EXPECT_LT(std::abs(quantize(v, f) - v), f.lsb()) << f.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Wordlengths, QuantErrorBound,
                         ::testing::Values(6, 8, 10, 14, 18, 26));

// quantize is bit-identical to the ldexp formulation it replaced, kept here
// verbatim as the reference: compared as bit patterns (so -0.0, NaN signs
// and payloads count), over every mode, signedness, wl 1..70, iwl from
// below zero to beyond wl, plus formats off the Quantizer's exact domain.
double quantize_ldexp_reference(double v, const Format& f) {
  const double scaled = std::ldexp(v, f.frac_bits());
  double mant = (f.quant == Quant::kRound) ? std::round(scaled)
                                           : std::floor(scaled);
  const double hi = std::ldexp(f.max_value(), f.frac_bits());
  const double lo = std::ldexp(f.min_value(), f.frac_bits());
  if (mant > hi || mant < lo) {
    if (f.ovf == Overflow::kSaturate) {
      mant = (mant > hi) ? hi : lo;
    } else {
      const double span = std::ldexp(1.0, f.wl);
      mant = std::fmod(mant - lo, span);
      if (mant < 0) mant += span;
      mant += lo;
    }
  }
  return std::ldexp(mant, -f.frac_bits());
}

class QuantizerBitIdentity
    : public ::testing::TestWithParam<std::tuple<Quant, Overflow>> {};

TEST_P(QuantizerBitIdentity, MatchesLdexpReference) {
  const auto [quant, ovf] = GetParam();
  std::vector<Format> formats;
  for (const bool s : {false, true})
    for (int wl = 1; wl <= 70; ++wl)
      for (int iwl = -wl - 4; iwl <= wl + 4; ++iwl)
        formats.push_back(Format{wl, iwl, s, quant, ovf});
  // Off the exact domain (and on its edges): wl < 1 or > 1023, scale
  // factors 2^±frac or bounds 2^iwl that are subnormal or overflow.
  for (const bool s : {false, true})
    for (const auto& [wl, iwl] : std::vector<std::pair<int, int>>{
             {0, 0}, {0, -3}, {-2, 1}, {1023, 0}, {1024, 0}, {1025, 1000},
             {1100, 50}, {2000, -10}, {8, 1023}, {8, 1024}, {8, 1030},
             {8, -1021}, {8, -1022}, {8, -1023}, {1, -1021}, {1, -1022},
             {1, -1050}, {1, 1022}, {1, 1023}, {2, 1023}, {1024, 500},
             {1025, 600}, {64, -1000}, {60, 1080}, {4, -1017}, {4, -1018},
             {4, 1026}, {4, 1027}, {53, -969}, {53, -970}, {40, -1100}})
      formats.push_back(Format{wl, iwl, s, quant, ovf});

  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  const auto dbl = [](std::uint64_t u) { return std::bit_cast<double>(u); };
  const double specials[] = {
      0.0, -0.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      dbl(0x7ff8'0000'dead'beefULL), dbl(0xfff4'0000'0000'1234ULL),  // payloads
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), dbl(0x000f'ffff'ffff'ffffULL),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 0.5, -0.5, 1.5, -2.5, 1e300, -1e300};
  std::mt19937_64 rng(static_cast<unsigned>(quant) * 2 + static_cast<unsigned>(ovf));
  std::size_t checked = 0;
  for (const Format& f : formats) {
    std::vector<double> vs(std::begin(specials), std::end(specials));
    // Values near the format's grid and range: ties, bounds, just outside.
    const double lsb = f.lsb(), hi = f.max_value(), lo = f.min_value();
    for (const double v : {lsb / 2, -lsb / 2, lsb * 1.5, hi, lo, hi + lsb, lo - lsb,
                           hi + lsb / 2, lo - lsb / 2, hi * 3, lo * 3 - lsb})
      vs.push_back(v);
    const double a = std::min(lo, -hi) * 2.5 - lsb, b = hi * 2.5 + lsb;
    if (std::isfinite(b - a) && a < b) {
      std::uniform_real_distribution<double> near(a, b);
      for (int i = 0; i < 24; ++i) vs.push_back(near(rng));
    }
    for (int i = 0; i < 24; ++i) vs.push_back(dbl(rng()));  // any bit pattern
    for (const double v : vs) {
      const double want = quantize_ldexp_reference(v, f);
      const double got = quantize(v, f);
      ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
          << f.to_string() << " v=" << std::hexfloat << v << " got " << got
          << " (0x" << std::hex << bits(got) << ") want " << want << " (0x"
          << bits(want) << ")";
      ++checked;
    }
  }
  EXPECT_GT(checked, 200000u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, QuantizerBitIdentity,
    ::testing::Combine(::testing::Values(Quant::kTruncate, Quant::kRound),
                       ::testing::Values(Overflow::kSaturate, Overflow::kWrap)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Quant::kRound ? "rnd" : "trn") +
             (std::get<1>(info.param) == Overflow::kSaturate ? "_sat" : "_wrap");
    });

// BitVector arithmetic agrees with int64 arithmetic for widths <= 32. The
// reference wraps modulo 2^64 in uint64_t: the int64 product overflows
// from width 32 up, which is undefined behaviour in signed arithmetic.
class BitVectorArithProperty : public ::testing::TestWithParam<int> {};

TEST_P(BitVectorArithProperty, MatchesInt64) {
  const int w = GetParam();
  std::mt19937_64 rng(static_cast<unsigned>(w) * 977);
  const std::int64_t mask = (w == 64) ? -1 : ((1LL << w) - 1);
  const auto umask = static_cast<std::uint64_t>(mask);
  for (int i = 0; i < 300; ++i) {
    const auto xa = static_cast<std::int64_t>(rng()) & mask;
    const auto xb = static_cast<std::int64_t>(rng()) & mask;
    const auto ua = static_cast<std::uint64_t>(xa), ub = static_cast<std::uint64_t>(xb);
    const BitVector a(w, xa), b(w, xb);
    EXPECT_EQ((a + b).to_uint64(), (ua + ub) & umask);
    EXPECT_EQ((a - b).to_uint64(), (ua - ub) & umask);
    EXPECT_EQ((a * b).to_uint64(), (ua * ub) & umask);
    EXPECT_EQ(a.ult(b), ua < ub);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorArithProperty,
                         ::testing::Values(1, 2, 7, 8, 15, 16, 31, 32));

}  // namespace
}  // namespace asicpp::fixpt
