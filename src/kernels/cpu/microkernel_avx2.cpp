// AVX2 tile: up to 4 tokens x one panel of 8 output channels. Each k-group's
// 32-byte weight load (8 rows x 4 input channels) is widened once and shared
// by every token of the tile; with two partial accumulators per token that
// is 8 independent chains (2 x 4 + 2 weight halves + 1 broadcast = 11 of 16
// ymm registers, so a second panel per tile would spill).
//
// The epilogue row converts 8 channels per step with F16C's vcvtps2ph (RNE)
// and vcvtph2ps; the tail is a masked step.
//
// Compiled via function-level target attributes so the translation unit
// builds regardless of -march; the dispatch in isa.cpp guarantees these are
// only called on hosts that support AVX2 (every AVX2 host has F16C).
#include "kernels/cpu/microkernel.h"

#if defined(__x86_64__) && defined(__GNUC__)

#include <immintrin.h>

#include <cstring>

namespace qserve::cpu {

namespace {

constexpr int kNr = 8;
constexpr int kMr = 4;

#define QS_AVX2_TARGET __attribute__((target("avx2,f16c")))

// Broadcast a 4-byte k-group of activations, sign-extended to 16 bits:
// lanes = {x0,x1,x2,x3} repeated four times.
QS_AVX2_TARGET inline __m256i broadcast_x16(const int8_t* x) {
  uint32_t word;
  std::memcpy(&word, x, sizeof(word));
  return _mm256_cvtepi8_epi16(_mm_set1_epi32(static_cast<int>(word)));
}

// Widen both operands to int16 and vpmaddwd: exact for the full int8 x int8
// range (products <= 2^14, pair sums <= 2^15 — far inside int32), and for
// UINT4 codes, which are non-negative int8. Each row accumulates in "two
// partial int32 lanes" form; the pairs are folded after the k loop. Integer
// adds commute, so this is still the scalar accumulator bit for bit.
template <int MT>
QS_AVX2_TARGET void tile_avx2(const int8_t* xs, int64_t ldx, const int8_t* w,
                              int64_t groups, int32_t* acc, int64_t ldacc) {
  __m256i lo[MT], hi[MT];  // rows 0-3 and 4-7 of token t
#pragma GCC unroll 4
  for (int t = 0; t < MT; ++t) {
    lo[t] = _mm256_setzero_si256();
    hi[t] = _mm256_setzero_si256();
  }
  for (int64_t g = 0; g < groups; ++g) {
    const __m256i wv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(w + g * kNr * kKGroup));
    const __m256i w_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(wv));
    const __m256i w_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(wv, 1));
#pragma GCC unroll 4
    for (int t = 0; t < MT; ++t) {
      const __m256i x16 = broadcast_x16(xs + t * ldx + g * kKGroup);
      lo[t] = _mm256_add_epi32(lo[t], _mm256_madd_epi16(w_lo, x16));
      hi[t] = _mm256_add_epi32(hi[t], _mm256_madd_epi16(w_hi, x16));
    }
  }
  // lo = [r0a r0b r1a r1b | r2a r2b r3a r3b], hi likewise for rows 4-7.
  // hadd folds pairs per 128-bit half: [r0 r1 r4 r5 | r2 r3 r6 r7].
  const __m256i order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
#pragma GCC unroll 4
  for (int t = 0; t < MT; ++t) {
    const __m256i rows = _mm256_permutevar8x32_epi32(
        _mm256_hadd_epi32(lo[t], hi[t]), order);
    __m256i* out = reinterpret_cast<__m256i*>(acc + t * ldacc);
    _mm256_storeu_si256(out, _mm256_add_epi32(_mm256_loadu_si256(out), rows));
  }
}

using TileImpl = void (*)(const int8_t*, int64_t, const int8_t*, int64_t,
                          int32_t*, int64_t);

constexpr TileImpl kTiles[kMr] = {tile_avx2<1>, tile_avx2<2>, tile_avx2<3>,
                                  tile_avx2<4>};

void tile_dispatch(const int8_t* xs, int64_t ldx, const int8_t* w,
                   int64_t ldw, int64_t groups, int mt, int pt, int nr,
                   int32_t* acc, int64_t ldacc) {
  (void)ldw;  // np == 1: the driver never asks for a second panel
  (void)pt;
  (void)nr;   // the driver guarantees nr == kNr
  kTiles[mt - 1](xs, ldx, w, groups, acc, ldacc);
}

QS_AVX2_TARGET void epilogue_row_avx2(const int32_t* acc, int64_t n, float s,
                                      const float* scale, float tsum,
                                      const float* zp_term, float* y) {
  const __m256 sv = _mm256_set1_ps(s);
  const __m256 tv = _mm256_set1_ps(tsum);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int64_t r = 0; r < n; r += kNr) {
    const int live = n - r >= kNr ? kNr : static_cast<int>(n - r);
    const __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(live), lane);
    __m256 v = _mm256_cvtepi32_ps(_mm256_maskload_epi32(acc + r, mask));
    v = _mm256_mul_ps(_mm256_mul_ps(v, sv),
                      _mm256_maskload_ps(scale + r, mask));
    if (zp_term != nullptr)
      v = _mm256_sub_ps(
          v, _mm256_mul_ps(tv, _mm256_maskload_ps(zp_term + r, mask)));
    const __m128i h =
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm256_maskstore_ps(y + r, mask, _mm256_cvtph_ps(h));
  }
}

#undef QS_AVX2_TARGET

constexpr Microkernel kAvx2Kernel = {
    Isa::kAvx2,    kNr, kMr, /*np=*/1, /*biased_acts=*/false,
    tile_dispatch, epilogue_row_avx2,
};

}  // namespace

const Microkernel* avx2_microkernel() { return &kAvx2Kernel; }

}  // namespace qserve::cpu

#else  // non-x86 or non-GNU toolchain: AVX2 path compiled out.

namespace qserve::cpu {
const Microkernel* avx2_microkernel() { return nullptr; }
}  // namespace qserve::cpu

#endif
