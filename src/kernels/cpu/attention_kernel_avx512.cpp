// AVX-512 attention kernels: one __m512 accumulator holds the 16 virtual
// lanes of one token's canonical QK reduction (attention_kernel.h), and 16
// tokens' accumulators are folded together by fold16_tokens — the scalar
// pairwise tree, done across registers. sv_tile keeps up to 4 rows × 64
// output floats in registers across a run. Float math is mul_ps/add_ps only
// — never fmadd — to keep roundings identical to the contraction-free
// scalar TU.
//
// Compiled via function-level target attributes so the TU builds regardless
// of -march; dispatch guarantees these run only on AVX-512 hosts (all of
// which have F16C).
#include "kernels/cpu/attention_kernel.h"

#if defined(__x86_64__) && defined(__GNUC__)

#include <immintrin.h>

#include "kernels/cpu/attention_kernel_inline.h"

namespace qserve::cpu {

namespace {

using attn_inline::run_element;
using attn_inline::token_params_f16c;

#define QS_AVX512_TARGET __attribute__((target("avx512f,f16c")))

// 16 dequantized elements [d, d+16) of one token, one per lane.
template <KvRunKind K>
QS_AVX512_TARGET inline __m512 load16(const uint8_t* ct, const uint16_t* ht,
                                      const float* ft, int d, __m512 vs,
                                      __m512 vz) {
  if constexpr (K == KvRunKind::kF32) {
    return _mm512_loadu_ps(ft + d);
  } else if constexpr (K == KvRunKind::kFp16) {
    // Exact conversion; stored halves are never signalling NaNs
    // (float_to_half_bits quiets them), so vcvtph2ps matches
    // detail::half_bits_to_float bit for bit.
    return _mm512_cvtph_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ht + d)));
  } else if constexpr (K == KvRunKind::kInt8Dyn) {
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ct + d));
    const __m512 f = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(b));
    return _mm512_add_ps(_mm512_mul_ps(f, vs), vz);
  } else if constexpr (K == KvRunKind::kInt8Static) {
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ct + d));
    const __m512 f = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(b));
    return _mm512_mul_ps(f, vs);
  } else {  // kInt4Dyn: 8 bytes hold the 16 nibble-packed codes
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(ct + (d >> 1)));
    const __m128i mask = _mm_set1_epi8(0x0F);
    const __m128i even = _mm_and_si128(b, mask);                    // low nibbles
    const __m128i odd = _mm_and_si128(_mm_srli_epi16(b, 4), mask);  // high
    const __m128i codes = _mm_unpacklo_epi8(even, odd);  // element order
    const __m512 f = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(codes));
    return _mm512_add_ps(_mm512_mul_ps(f, vs), vz);
  }
}

template <KvRunKind K>
QS_AVX512_TARGET void dequant_run_avx512_t(const KvHeadRun& run, int head_dim,
                                           float* tile, int64_t ld) {
  const int blocks = head_dim & ~(kQkLanes - 1);
  const int dim = padded_head_dim(head_dim);
  for (int64_t t = 0; t < run.n_tokens; ++t) {
    const uint8_t* ct = run.codes ? run.codes + t * run.stride : nullptr;
    const uint16_t* ht =
        run.half_bits ? run.half_bits + t * run.stride : nullptr;
    const float* ft = run.f32 ? run.f32 + t * run.stride : nullptr;
    const auto p = token_params_f16c<K>(run, t);
    const __m512 vs = _mm512_set1_ps(p.scale);
    const __m512 vz = _mm512_set1_ps(p.zero);
    float* row = tile + t * ld;
    for (int d = 0; d < blocks; d += kQkLanes)
      _mm512_storeu_ps(row + d, load16<K>(ct, ht, ft, d, vs, vz));
    // Off-grid head_dim: the scalar reference element, then zero padding.
    for (int d = blocks; d < head_dim; ++d)
      row[d] = run_element<K>(ct, ht, ft, d, p.scale, p.zero);
    for (int d = head_dim; d < dim; ++d) row[d] = 0.0f;
  }
}

QS_AVX512_TARGET void dequant_run_avx512(const KvHeadRun& run, int head_dim,
                                         float* tile, int64_t ld) {
  switch (run.kind) {
    case KvRunKind::kF32:
      return dequant_run_avx512_t<KvRunKind::kF32>(run, head_dim, tile, ld);
    case KvRunKind::kFp16:
      return dequant_run_avx512_t<KvRunKind::kFp16>(run, head_dim, tile, ld);
    case KvRunKind::kInt8Dyn:
      return dequant_run_avx512_t<KvRunKind::kInt8Dyn>(run, head_dim, tile,
                                                       ld);
    case KvRunKind::kInt8Static:
      return dequant_run_avx512_t<KvRunKind::kInt8Static>(run, head_dim, tile,
                                                          ld);
    case KvRunKind::kInt4Dyn:
      return dequant_run_avx512_t<KvRunKind::kInt4Dyn>(run, head_dim, tile,
                                                       ld);
  }
}

// Folds 16 tokens' lane vectors (a[t] = token t's 16 lanes) into one vector
// of 16 dots in token order: fold_qk_lanes' pairwise tree, run across
// registers. Each step adds lane l to lane l + w for every token at once;
// the shuffles only move lanes, so every add has the same operands as the
// scalar fold.
QS_AVX512_TARGET inline __m512 fold16_tokens(const __m512* a) {
  // l + 8: tokens (2j, 2j+1) -> [A.s8 | B.s8].
  __m512 b[8];
#pragma GCC unroll 16
  for (int j = 0; j < 8; ++j)
    b[j] = _mm512_add_ps(_mm512_shuffle_f32x4(a[2 * j], a[2 * j + 1], 0x44),
                         _mm512_shuffle_f32x4(a[2 * j], a[2 * j + 1], 0xEE));
  // l + 4: -> [A.s4 | B.s4 | C.s4 | D.s4], tokens 4i .. 4i+3.
  __m512 c[4];
#pragma GCC unroll 16
  for (int i = 0; i < 4; ++i)
    c[i] = _mm512_add_ps(_mm512_shuffle_f32x4(b[2 * i], b[2 * i + 1], 0x88),
                         _mm512_shuffle_f32x4(b[2 * i], b[2 * i + 1], 0xDD));
  // l + 2: 128-bit lane j of d[k] = [T(8k+j).s2 | T(8k+4+j).s2].
  __m512 d[2];
#pragma GCC unroll 16
  for (int k = 0; k < 2; ++k)
    d[k] = _mm512_add_ps(_mm512_shuffle_ps(c[2 * k], c[2 * k + 1], 0x44),
                         _mm512_shuffle_ps(c[2 * k], c[2 * k + 1], 0xEE));
  // l + 1: element 4j + i of e holds token j + 4i's dot.
  const __m512 e = _mm512_add_ps(_mm512_shuffle_ps(d[0], d[1], 0x88),
                                 _mm512_shuffle_ps(d[0], d[1], 0xDD));
  const __m512i to_token_order = _mm512_setr_epi32(
      0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  return _mm512_permutexvar_ps(to_token_order, e);
}

// Key row t's 16 elements [d, d + 16) of a kF32 or kFp16 run.
template <KvRunKind K>
QS_AVX512_TARGET inline __m512 key16(const KvHeadRun& k, int64_t t, int d) {
  if constexpr (K == KvRunKind::kF32) {
    return _mm512_loadu_ps(k.f32 + t * k.stride + d);
  } else {
    return _mm512_cvtph_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(k.half_bits + t * k.stride + d)));
  }
}

template <KvRunKind K>
QS_AVX512_TARGET void qk_tile_avx512_t(const float* q, int64_t ldq, int rows,
                                       const KvHeadRun& k, int dim,
                                       float* dots, int64_t ldd) {
  for (int r = 0; r < rows; ++r) {
    const float* qr = q + r * ldq;
    for (int64_t t0 = 0; t0 < k.n_tokens; t0 += kQkLanes) {
      __m512 acc[kQkLanes];
#pragma GCC unroll 16
      for (int j = 0; j < kQkLanes; ++j) acc[j] = _mm512_setzero_ps();
      for (int d = 0; d < dim; d += kQkLanes) {
        const __m512 qv = _mm512_loadu_ps(qr + d);
#pragma GCC unroll 16
        for (int j = 0; j < kQkLanes; ++j)
          acc[j] = _mm512_add_ps(acc[j],
                                 _mm512_mul_ps(qv, key16<K>(k, t0 + j, d)));
      }
      const int64_t nt = k.n_tokens - t0 < kQkLanes ? k.n_tokens - t0 : kQkLanes;
      _mm512_mask_storeu_ps(dots + r * ldd + t0,
                            __mmask16((1u << nt) - 1), fold16_tokens(acc));
    }
  }
}

void qk_tile_avx512(const float* q, int64_t ldq, int rows, const KvHeadRun& k,
                    int dim, float* dots, int64_t ldd) {
  if (k.kind == KvRunKind::kFp16)
    return qk_tile_avx512_t<KvRunKind::kFp16>(q, ldq, rows, k, dim, dots, ldd);
  qk_tile_avx512_t<KvRunKind::kF32>(q, ldq, rows, k, dim, dots, ldd);
}

// RB query rows × DB 16-float blocks of `out`, held in registers across all
// n_tokens tokens; each token's V blocks are loaded once for the RB rows.
template <int RB, int DB>
QS_AVX512_TARGET void sv_block_avx512(const float* p, int64_t ldp,
                                      const float* v, int64_t ldv,
                                      int64_t n_tokens, float* out,
                                      int64_t ldo) {
  __m512 acc[RB][DB];
#pragma GCC unroll 16
  for (int r = 0; r < RB; ++r)
#pragma GCC unroll 16
    for (int b = 0; b < DB; ++b)
      acc[r][b] = _mm512_loadu_ps(out + r * ldo + b * kQkLanes);
  for (int64_t t = 0; t < n_tokens; ++t) {
    __m512 vt[DB];
#pragma GCC unroll 16
    for (int b = 0; b < DB; ++b)
      vt[b] = _mm512_loadu_ps(v + t * ldv + b * kQkLanes);
#pragma GCC unroll 16
    for (int r = 0; r < RB; ++r) {
      const __m512 pv = _mm512_set1_ps(p[r * ldp + t]);
#pragma GCC unroll 16
      for (int b = 0; b < DB; ++b)
        acc[r][b] = _mm512_add_ps(acc[r][b], _mm512_mul_ps(pv, vt[b]));
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < RB; ++r)
#pragma GCC unroll 16
    for (int b = 0; b < DB; ++b)
      _mm512_storeu_ps(out + r * ldo + b * kQkLanes, acc[r][b]);
}

using SvBlockFn = void (*)(const float*, int64_t, const float*, int64_t,
                           int64_t, float*, int64_t);

constexpr int kSvRows = 4;    // rows per register block
constexpr int kSvBlocks = 4;  // 16-float blocks per register block

constexpr SvBlockFn kSvBlocksAvx512[kSvRows][kSvBlocks] = {
    {sv_block_avx512<1, 1>, sv_block_avx512<1, 2>, sv_block_avx512<1, 3>,
     sv_block_avx512<1, 4>},
    {sv_block_avx512<2, 1>, sv_block_avx512<2, 2>, sv_block_avx512<2, 3>,
     sv_block_avx512<2, 4>},
    {sv_block_avx512<3, 1>, sv_block_avx512<3, 2>, sv_block_avx512<3, 3>,
     sv_block_avx512<3, 4>},
    {sv_block_avx512<4, 1>, sv_block_avx512<4, 2>, sv_block_avx512<4, 3>,
     sv_block_avx512<4, 4>},
};

void sv_tile_avx512(const float* p, int64_t ldp, int rows, const float* v,
                    int64_t ldv, int64_t n_tokens, int dim, float* out,
                    int64_t ldo) {
  const int blocks = dim / kQkLanes;
  for (int r = 0; r < rows; r += kSvRows) {
    const int rb = rows - r < kSvRows ? rows - r : kSvRows;
    for (int b = 0; b < blocks; b += kSvBlocks) {
      const int db = blocks - b < kSvBlocks ? blocks - b : kSvBlocks;
      kSvBlocksAvx512[rb - 1][db - 1](p + r * ldp, ldp, v + b * kQkLanes, ldv,
                                      n_tokens, out + r * ldo + b * kQkLanes,
                                      ldo);
    }
  }
}

QS_AVX512_TARGET void scale_round_avx512(float* x, int64_t n, float scale,
                                         bool to_half) {
  const __m512 sv = _mm512_set1_ps(scale);
  for (int64_t i = 0; i < n; i += kQkLanes) {
    const __mmask16 mask = n - i >= kQkLanes
                               ? __mmask16(0xFFFF)
                               : __mmask16((1u << (n - i)) - 1);
    __m512 v = _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, x + i), sv);
    if (to_half)
      v = _mm512_cvtph_ps(
          _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    _mm512_mask_storeu_ps(x + i, mask, v);
  }
}

#undef QS_AVX512_TARGET

constexpr AttentionKernels kAvx512AttentionKernels = {
    Isa::kAvx512,   dequant_run_avx512, qk_tile_avx512,
    sv_tile_avx512, scale_round_avx512,
};

}  // namespace

const AttentionKernels* avx512_attention_kernel() {
  return &kAvx512AttentionKernels;
}

}  // namespace qserve::cpu

#else  // non-x86 or non-GNU toolchain: AVX-512 path compiled out.

namespace qserve::cpu {
const AttentionKernels* avx512_attention_kernel() { return nullptr; }
}  // namespace qserve::cpu

#endif
