// Software IEEE 754 binary16 ("half") emulation.
//
// The GPU kernels in the paper hold activations, scales and attention
// intermediates in FP16. This environment has no hardware half type, so we
// emulate it with exact bit-level conversions. Round-tripping a float through
// `Half` reproduces the precision loss a real FP16 register would introduce,
// which matters for the KV4-attention FP16-accumulation experiments (§5.3).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace qserve {

namespace detail {

// C++17 stand-in for std::bit_cast (C++20).
template <typename To, typename From>
inline To bit_cast(const From& from) {
  static_assert(sizeof(To) == sizeof(From), "bit_cast size mismatch");
  To to;
  std::memcpy(&to, &from, sizeof(To));
  return to;
}

// Scalar float -> binary16 bits with round-to-nearest-even.
inline uint16_t float_to_half_bits(float f) {
  const uint32_t x = bit_cast<uint32_t>(f);
  const uint32_t sign = (x >> 16) & 0x8000u;
  const uint32_t abs = x & 0x7FFFFFFFu;

  if (abs >= 0x7F800000u) {  // inf or NaN
    const uint32_t mant = (abs > 0x7F800000u) ? 0x0200u : 0;  // quiet NaN
    return static_cast<uint16_t>(sign | 0x7C00u | mant);
  }
  if (abs >= 0x477FF000u) {  // overflow to inf (>= 65520 after rounding)
    return static_cast<uint16_t>(sign | 0x7C00u);
  }
  if (abs < 0x38800000u) {  // subnormal half or zero
    if (abs < 0x33000000u) return static_cast<uint16_t>(sign);  // underflow
    // value = M * 2^(E-126) with M the 24-bit significand; the subnormal
    // half mantissa is M >> (126 - E), rounded to nearest even.
    const int shift = 126 - static_cast<int>(abs >> 23);  // 14..24
    uint32_t mant = (abs & 0x007FFFFFu) | 0x00800000u;
    const uint32_t dropped = mant & ((1u << shift) - 1);
    const uint32_t halfway = 1u << (shift - 1);
    mant >>= shift;
    if (dropped > halfway || (dropped == halfway && (mant & 1))) ++mant;
    return static_cast<uint16_t>(sign | mant);  // carry into exp=1 is valid
  }
  // Normal case.
  uint32_t bits = sign | ((abs - 0x38000000u) >> 13);
  const uint32_t dropped = abs & 0x1FFFu;
  if (dropped > 0x1000u || (dropped == 0x1000u && (bits & 1))) ++bits;
  return static_cast<uint16_t>(bits);
}

inline float half_bits_to_float(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t em = h & 0x7FFFu;  // exponent and mantissa
  // Normal: rebias the exponent (15 -> 127) in place. One unsigned compare
  // selects this common case; the rest is the rare path.
  if (em - 0x0400u < 0x7800u)
    return bit_cast<float>(sign | ((em << 13) + (112u << 23)));
  if (em >= 0x7C00u)  // inf / NaN: keep the payload
    return bit_cast<float>(sign | 0x7F800000u | ((em & 0x3FFu) << 13));
  // Zero / subnormal: the value is mant * 2^-24, exact in float.
  return bit_cast<float>(sign | bit_cast<uint32_t>(float(em) * 0x1p-24f));
}

}  // namespace detail

// Value type wrapping binary16 bits. Arithmetic promotes to float; assign
// back to Half to model an FP16 register write.
class Half {
 public:
  constexpr Half() = default;
  Half(float f) : bits_(detail::float_to_half_bits(f)) {}  // NOLINT(implicit)

  operator float() const { return detail::half_bits_to_float(bits_); }

  static constexpr Half from_bits(uint16_t b) {
    Half h;
    h.bits_ = b;
    return h;
  }
  uint16_t bits() const { return bits_; }

  Half& operator+=(float rhs) { return *this = Half(float(*this) + rhs); }
  Half& operator-=(float rhs) { return *this = Half(float(*this) - rhs); }
  Half& operator*=(float rhs) { return *this = Half(float(*this) * rhs); }
  Half& operator/=(float rhs) { return *this = Half(float(*this) / rhs); }

  static float max() { return 65504.0f; }

 private:
  uint16_t bits_ = 0;
};

// Round a float through FP16 precision (the common use in kernels).
inline float to_half_precision(float f) { return float(Half(f)); }

}  // namespace qserve
