// AVX2 attention kernels: one token's 16 virtual QK lanes (attention_kernel.h)
// live in two __m256 accumulators, and 8 tokens are folded together with the
// canonical pairwise tree done across registers (qk4_avx2 + the l + 1 step
// in qk_tile_avx2). All float math is mul_ps/add_ps (never fmadd), matching
// the contraction-free scalar kernel rounding for rounding.
//
// Compiled via function-level target attributes so the TU builds regardless
// of -march; dispatch guarantees these run only on AVX2+F16C hosts.
#include "kernels/cpu/attention_kernel.h"

#if defined(__x86_64__) && defined(__GNUC__)

#include <immintrin.h>

#include "common/half.h"
#include "kernels/cpu/attention_kernel_inline.h"

namespace qserve::cpu {

namespace {

using attn_inline::run_element;
using attn_inline::token_params_f16c;

#define QS_AVX2_TARGET __attribute__((target("avx2,f16c")))

// 16 dequantized elements [d, d+16) of one token: lanes 0-7 in `lo`,
// lanes 8-15 in `hi`.
struct Dequant16 {
  __m256 lo, hi;
};

template <KvRunKind K>
QS_AVX2_TARGET inline Dequant16 load16(const uint8_t* ct, const uint16_t* ht,
                                       const float* ft, int d, __m256 vs,
                                       __m256 vz) {
  if constexpr (K == KvRunKind::kF32) {
    return {_mm256_loadu_ps(ft + d), _mm256_loadu_ps(ft + d + 8)};
  } else if constexpr (K == KvRunKind::kFp16) {
    // Half -> float is exact, and the stored halves are never signalling
    // NaNs (float_to_half_bits quiets them), so vcvtph2ps reproduces
    // detail::half_bits_to_float bit for bit.
    const __m128i h0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ht + d));
    const __m128i h1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ht + d + 8));
    return {_mm256_cvtph_ps(h0), _mm256_cvtph_ps(h1)};
  } else if constexpr (K == KvRunKind::kInt8Dyn) {
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ct + d));
    const __m256 f0 = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(b));
    const __m256 f1 =
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_srli_si128(b, 8)));
    return {_mm256_add_ps(_mm256_mul_ps(f0, vs), vz),
            _mm256_add_ps(_mm256_mul_ps(f1, vs), vz)};
  } else if constexpr (K == KvRunKind::kInt8Static) {
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ct + d));
    const __m256 f0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
    const __m256 f1 =
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(b, 8)));
    return {_mm256_mul_ps(f0, vs), _mm256_mul_ps(f1, vs)};
  } else {  // kInt4Dyn: 8 bytes hold the 16 nibble-packed codes
    const __m128i b = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(ct + (d >> 1)));
    const __m128i mask = _mm_set1_epi8(0x0F);
    const __m128i even = _mm_and_si128(b, mask);                     // low nibbles
    const __m128i odd = _mm_and_si128(_mm_srli_epi16(b, 4), mask);   // high
    const __m128i codes = _mm_unpacklo_epi8(even, odd);  // element order
    const __m256 f0 = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(codes));
    const __m256 f1 =
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_srli_si128(codes, 8)));
    return {_mm256_add_ps(_mm256_mul_ps(f0, vs), vz),
            _mm256_add_ps(_mm256_mul_ps(f1, vs), vz)};
  }
}

template <KvRunKind K>
QS_AVX2_TARGET void dequant_run_avx2_t(const KvHeadRun& run, int head_dim,
                                       float* tile, int64_t ld) {
  const int blocks = head_dim & ~(kQkLanes - 1);
  const int dim = padded_head_dim(head_dim);
  for (int64_t t = 0; t < run.n_tokens; ++t) {
    const uint8_t* ct = run.codes ? run.codes + t * run.stride : nullptr;
    const uint16_t* ht =
        run.half_bits ? run.half_bits + t * run.stride : nullptr;
    const float* ft = run.f32 ? run.f32 + t * run.stride : nullptr;
    const auto p = token_params_f16c<K>(run, t);
    const __m256 vs = _mm256_set1_ps(p.scale);
    const __m256 vz = _mm256_set1_ps(p.zero);
    float* row = tile + t * ld;
    for (int d = 0; d < blocks; d += kQkLanes) {
      const Dequant16 kv = load16<K>(ct, ht, ft, d, vs, vz);
      _mm256_storeu_ps(row + d, kv.lo);
      _mm256_storeu_ps(row + d + 8, kv.hi);
    }
    // Off-grid head_dim: the scalar reference element, then zero padding.
    for (int d = blocks; d < head_dim; ++d)
      row[d] = run_element<K>(ct, ht, ft, d, p.scale, p.zero);
    for (int d = head_dim; d < dim; ++d) row[d] = 0.0f;
  }
}

QS_AVX2_TARGET void dequant_run_avx2(const KvHeadRun& run, int head_dim,
                                     float* tile, int64_t ld) {
  switch (run.kind) {
    case KvRunKind::kF32:
      return dequant_run_avx2_t<KvRunKind::kF32>(run, head_dim, tile, ld);
    case KvRunKind::kFp16:
      return dequant_run_avx2_t<KvRunKind::kFp16>(run, head_dim, tile, ld);
    case KvRunKind::kInt8Dyn:
      return dequant_run_avx2_t<KvRunKind::kInt8Dyn>(run, head_dim, tile, ld);
    case KvRunKind::kInt8Static:
      return dequant_run_avx2_t<KvRunKind::kInt8Static>(run, head_dim, tile,
                                                        ld);
    case KvRunKind::kInt4Dyn:
      return dequant_run_avx2_t<KvRunKind::kInt4Dyn>(run, head_dim, tile, ld);
  }
}

// Key rows t .. t+3 against one query row, folded through the l + 8, l + 4
// and l + 2 steps of the canonical tree: 128-bit lane 0 of the result holds
// [A.s2 | C.s2], lane 1 [B.s2 | D.s2] for tokens A..D. `k` is a kF32 or
// kFp16 run.
template <KvRunKind K>
QS_AVX2_TARGET inline __m256 qk4_avx2(const float* qr, const KvHeadRun& k,
                                      int64_t t, int dim) {
  const __m256 unused = _mm256_setzero_ps();
  __m256 lo[4], hi[4];
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) lo[j] = hi[j] = _mm256_setzero_ps();
  for (int d = 0; d < dim; d += kQkLanes) {
    const __m256 q0 = _mm256_loadu_ps(qr + d);
    const __m256 q1 = _mm256_loadu_ps(qr + d + 8);
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      const int64_t off = (t + j) * k.stride;
      const Dequant16 kv =
          load16<K>(nullptr, k.half_bits ? k.half_bits + off : nullptr,
                    k.f32 ? k.f32 + off : nullptr, d, unused, unused);
      lo[j] = _mm256_add_ps(lo[j], _mm256_mul_ps(q0, kv.lo));
      hi[j] = _mm256_add_ps(hi[j], _mm256_mul_ps(q1, kv.hi));
    }
  }
  __m256 s8[4];
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) s8[j] = _mm256_add_ps(lo[j], hi[j]);  // l + 8
  const __m256 ab =
      _mm256_add_ps(_mm256_permute2f128_ps(s8[0], s8[1], 0x20),
                    _mm256_permute2f128_ps(s8[0], s8[1], 0x31));  // l + 4
  const __m256 cd =
      _mm256_add_ps(_mm256_permute2f128_ps(s8[2], s8[3], 0x20),
                    _mm256_permute2f128_ps(s8[2], s8[3], 0x31));
  return _mm256_add_ps(_mm256_shuffle_ps(ab, cd, 0x44),
                       _mm256_shuffle_ps(ab, cd, 0xEE));  // l + 2
}

template <KvRunKind K>
QS_AVX2_TARGET void qk_tile_avx2_t(const float* q, int64_t ldq, int rows,
                                   const KvHeadRun& k, int dim, float* dots,
                                   int64_t ldd) {
  const __m256i to_token_order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  for (int r = 0; r < rows; ++r) {
    const float* qr = q + r * ldq;
    for (int64_t t0 = 0; t0 < k.n_tokens; t0 += 8) {
      const __m256 z0 = qk4_avx2<K>(qr, k, t0, dim);
      const __m256 z1 = qk4_avx2<K>(qr, k, t0 + 4, dim);
      // l + 1: element 4i + j holds token 2j + i's dot.
      const __m256 w = _mm256_add_ps(_mm256_shuffle_ps(z0, z1, 0x88),
                                     _mm256_shuffle_ps(z0, z1, 0xDD));
      alignas(32) float res[8];
      _mm256_store_ps(res, _mm256_permutevar8x32_ps(w, to_token_order));
      const int64_t nt = k.n_tokens - t0 < 8 ? k.n_tokens - t0 : 8;
      for (int64_t j = 0; j < nt; ++j) dots[r * ldd + t0 + j] = res[j];
    }
  }
}

void qk_tile_avx2(const float* q, int64_t ldq, int rows, const KvHeadRun& k,
                  int dim, float* dots, int64_t ldd) {
  if (k.kind == KvRunKind::kFp16)
    return qk_tile_avx2_t<KvRunKind::kFp16>(q, ldq, rows, k, dim, dots, ldd);
  qk_tile_avx2_t<KvRunKind::kF32>(q, ldq, rows, k, dim, dots, ldd);
}

// RB query rows × DB 8-float blocks of `out` in registers across the run.
template <int RB, int DB>
QS_AVX2_TARGET void sv_block_avx2(const float* p, int64_t ldp, const float* v,
                                  int64_t ldv, int64_t n_tokens, float* out,
                                  int64_t ldo) {
  __m256 acc[RB][DB];
#pragma GCC unroll 16
  for (int r = 0; r < RB; ++r)
#pragma GCC unroll 16
    for (int b = 0; b < DB; ++b)
      acc[r][b] = _mm256_loadu_ps(out + r * ldo + b * 8);
  for (int64_t t = 0; t < n_tokens; ++t) {
    __m256 vt[DB];
#pragma GCC unroll 16
    for (int b = 0; b < DB; ++b) vt[b] = _mm256_loadu_ps(v + t * ldv + b * 8);
#pragma GCC unroll 16
    for (int r = 0; r < RB; ++r) {
      const __m256 pv = _mm256_set1_ps(p[r * ldp + t]);
#pragma GCC unroll 16
      for (int b = 0; b < DB; ++b)
        acc[r][b] = _mm256_add_ps(acc[r][b], _mm256_mul_ps(pv, vt[b]));
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < RB; ++r)
#pragma GCC unroll 16
    for (int b = 0; b < DB; ++b)
      _mm256_storeu_ps(out + r * ldo + b * 8, acc[r][b]);
}

void sv_tile_avx2(const float* p, int64_t ldp, int rows, const float* v,
                  int64_t ldv, int64_t n_tokens, int dim, float* out,
                  int64_t ldo) {
  // dim is a multiple of 16: 32-float chunks, then at most one 16-float one;
  // rows in pairs, then at most one single row.
  for (int r = 0; r < rows; r += 2) {
    const bool pair = rows - r >= 2;
    for (int d = 0; d < dim; d += 32) {
      const bool wide = dim - d >= 32;
      const float* pr = p + r * ldp;
      float* orow = out + r * ldo + d;
      if (pair && wide) sv_block_avx2<2, 4>(pr, ldp, v + d, ldv, n_tokens, orow, ldo);
      else if (pair) sv_block_avx2<2, 2>(pr, ldp, v + d, ldv, n_tokens, orow, ldo);
      else if (wide) sv_block_avx2<1, 4>(pr, ldp, v + d, ldv, n_tokens, orow, ldo);
      else sv_block_avx2<1, 2>(pr, ldp, v + d, ldv, n_tokens, orow, ldo);
    }
  }
}

QS_AVX2_TARGET void scale_round_avx2(float* x, int64_t n, float scale,
                                     bool to_half) {
  const __m256 sv = _mm256_set1_ps(scale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i), sv);
    if (to_half)
      v = _mm256_cvtph_ps(
          _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    _mm256_storeu_ps(x + i, v);
  }
  for (; i < n; ++i) {
    const float s = x[i] * scale;
    x[i] = to_half ? to_half_precision(s) : s;
  }
}

#undef QS_AVX2_TARGET

constexpr AttentionKernels kAvx2AttentionKernels = {
    Isa::kAvx2,   dequant_run_avx2, qk_tile_avx2,
    sv_tile_avx2, scale_round_avx2,
};

}  // namespace

const AttentionKernels* avx2_attention_kernel() {
  return &kAvx2AttentionKernels;
}

}  // namespace qserve::cpu

#else  // non-x86 or non-GNU toolchain: AVX2 path compiled out.

namespace qserve::cpu {
const AttentionKernels* avx2_attention_kernel() { return nullptr; }
}  // namespace qserve::cpu

#endif
