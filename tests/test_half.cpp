#include "common/half.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace qserve {
namespace {

TEST(Half, ExactSmallIntegers) {
  // All integers up to 2048 are exactly representable in binary16.
  for (int i = -2048; i <= 2048; ++i) {
    EXPECT_EQ(float(Half(float(i))), float(i)) << i;
  }
}

TEST(Half, RoundTripPreservesRepresentableValues) {
  // Every binary16 bit pattern that is finite must round-trip exactly.
  for (uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const Half h = Half::from_bits(static_cast<uint16_t>(bits));
    const float f = float(h);
    if (std::isnan(f)) continue;
    if (std::isinf(f)) continue;
    EXPECT_EQ(Half(f).bits(), bits) << "bits=" << bits;
  }
}

TEST(Half, BitsToFloatMatchesDefinitionForEveryPattern) {
  // half_bits_to_float against the binary16 definition, bit for bit (signed
  // zeros included): subnormal = mant * 2^-24, normal = (1024 + mant) *
  // 2^(exp - 25), inf/NaN keep the payload in the top mantissa bits (what
  // vcvtph2ps produces for a quiet NaN).
  for (uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const uint32_t sign = bits >> 15, exp = (bits >> 10) & 0x1Fu,
                   mant = bits & 0x3FFu;
    float want;
    if (exp == 0x1Fu) {
      want = detail::bit_cast<float>((sign << 31) | 0x7F800000u | (mant << 13));
    } else {
      const float mag =
          exp == 0 ? std::ldexp(float(mant), -24)
                   : std::ldexp(float(1024 + mant), int(exp) - 25);
      want = sign ? -mag : mag;
    }
    const float got = detail::half_bits_to_float(static_cast<uint16_t>(bits));
    EXPECT_EQ(detail::bit_cast<uint32_t>(want), detail::bit_cast<uint32_t>(got))
        << "bits=" << bits;
  }
}

TEST(Half, RoundsToNearestEven) {
  // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half; ties to
  // even keep 1.0.
  EXPECT_EQ(float(Half(1.0f + 0.00048828125f)), 1.0f);
  // 1.0 + 3*2^-11 ties between mantissa 1 (odd) and 2 (even): even wins.
  EXPECT_EQ(float(Half(1.0f + 3 * 0.00048828125f)), 1.0f + 2 * 0.0009765625f);
  // A value just above the tie rounds up off the tie as usual.
  EXPECT_EQ(float(Half(1.0f + 3.1f * 0.00048828125f)),
            1.0f + 2 * 0.0009765625f);
}

TEST(Half, OverflowToInfinity) {
  EXPECT_TRUE(std::isinf(float(Half(70000.0f))));
  EXPECT_TRUE(std::isinf(float(Half(-70000.0f))));
  EXPECT_EQ(float(Half(65504.0f)), 65504.0f);  // max normal half
}

TEST(Half, SubnormalsPreserved) {
  const float smallest = 5.960464477539063e-08f;  // 2^-24
  EXPECT_EQ(float(Half(smallest)), smallest);
  EXPECT_EQ(float(Half(smallest / 2.0f)), 0.0f);  // underflow
}

TEST(Half, NegativeZeroKeepsSign) {
  EXPECT_TRUE(std::signbit(float(Half(-0.0f))));
}

TEST(Half, NanPropagates) {
  EXPECT_TRUE(std::isnan(float(Half(std::nanf("")))));
}

TEST(Half, PrecisionLossMatchesEpsilon) {
  // Relative error of a half round-trip is bounded by 2^-11.
  for (float v : {0.1f, 3.14159f, 123.456f, 9999.5f, 1e-3f}) {
    const float r = to_half_precision(v);
    EXPECT_LE(std::abs(r - v) / v, 1.0f / 2048.0f) << v;
  }
}

TEST(Half, CompoundAssignRoundsEachStep) {
  Half h(1.0f);
  h += 0.0004f;  // below half precision at 1.0 -> rounds away
  EXPECT_EQ(float(h), 1.0f);
  h += 1.0f;
  EXPECT_EQ(float(h), 2.0f);
}

}  // namespace
}  // namespace qserve
