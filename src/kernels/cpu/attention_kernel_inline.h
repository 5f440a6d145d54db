// Internal helpers shared by the attention kernel TUs (scalar/AVX2/AVX-512).
//
// Include ONLY from src/kernels/cpu/attention_kernel_*.cpp: the dequantize
// helpers here are mul-then-add chains whose roundings are part of the
// cross-ISA numerics contract, and those TUs are the ones CMake compiles
// with -ffp-contract=off (a TU built with contraction enabled could fuse
// `float(c) * scale + zero` into an FMA and break bitwise identity).
#pragma once

#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "common/half.h"
#include "kernels/cpu/attention_kernel.h"

namespace qserve::cpu::attn_inline {

// Per-token dequant parameters: dynamic kinds read the in-page FP16
// scale/zero pair, the static-INT8 kind carries its one tensor-wide scale,
// and the float kinds need none.
struct TokenParams {
  float scale = 0.0f;
  float zero = 0.0f;
};

template <KvRunKind K>
inline TokenParams token_params(const KvHeadRun& run, int64_t t) {
  if constexpr (K == KvRunKind::kInt8Dyn || K == KvRunKind::kInt4Dyn) {
    const uint16_t* p = run.params + t * run.param_stride;
    return {detail::half_bits_to_float(p[0]),
            detail::half_bits_to_float(p[1])};
  } else if constexpr (K == KvRunKind::kInt8Static) {
    return {run.static_scale, 0.0f};
  } else {
    (void)run;
    (void)t;
    return {};
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
// token_params for the SIMD TUs: the dynamic kinds convert the stored FP16
// {scale, zero} pair with one F16C vcvtph2ps — exact, and equal to
// detail::half_bits_to_float bit for bit because stored halves are never
// signalling NaNs (float_to_half_bits quiets them).
template <KvRunKind K>
__attribute__((target("f16c"))) inline TokenParams token_params_f16c(
    const KvHeadRun& run, int64_t t) {
  if constexpr (K == KvRunKind::kInt8Dyn || K == KvRunKind::kInt4Dyn) {
    uint32_t bits;
    std::memcpy(&bits, run.params + t * run.param_stride, sizeof(bits));
    const __m128 sz = _mm_cvtph_ps(_mm_cvtsi32_si128(static_cast<int>(bits)));
    return {_mm_cvtss_f32(sz), _mm_cvtss_f32(_mm_movehdup_ps(sz))};
  } else {
    return token_params<K>(run, t);
  }
}
#endif

// Dequantized element d of one token, given that token's base pointers —
// the scalar reference every vector kernel's tail must reproduce exactly.
template <KvRunKind K>
inline float run_element(const uint8_t* codes_t, const uint16_t* half_t,
                         const float* f32_t, int d, float scale, float zero) {
  if constexpr (K == KvRunKind::kF32) {
    return f32_t[d];
  } else if constexpr (K == KvRunKind::kFp16) {
    return detail::half_bits_to_float(half_t[d]);
  } else if constexpr (K == KvRunKind::kInt8Dyn) {
    return float(codes_t[d]) * scale + zero;
  } else if constexpr (K == KvRunKind::kInt8Static) {
    (void)zero;
    return float(static_cast<int8_t>(codes_t[d])) * scale;
  } else {  // kInt4Dyn: two codes per byte, even index in the low nibble
    const uint8_t c = (codes_t[d >> 1] >> ((d & 1) * 4)) & 0xF;
    return float(c) * scale + zero;
  }
}

}  // namespace qserve::cpu::attn_inline
