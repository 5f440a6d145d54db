// AVX-512 VNNI tile: up to 4 tokens x 4 panels of 16 output channels, one
// vpdpbusd per (token, panel) per k-group — 16 independent accumulator
// chains, each 64-byte weight load shared by every token of the tile.
//
// vpdpbusd multiplies unsigned bytes by signed bytes. The unsigned operand is
// the activations, staged by the driver already biased by +128 (x ^ 0x80);
// the signed operand is the weight codes (INT8 / level-1 codes, or UINT4
// codes 0..15, which are valid signed bytes). The accumulators start at
// -128 * row_sum(w), so the tile ends at sum((x+128)*w) - 128*sum(w) =
// sum(x*w), exact in two's-complement int32 for any operand values —
// including the -128 weight codes the naive-range overflow repro emits.
//
// The epilogue row converts 16 channels per step with F16C's vcvtps2ph (RNE)
// and vcvtph2ps; the tail is a masked step.
#include "kernels/cpu/microkernel.h"

#if defined(__x86_64__) && defined(__GNUC__)

#include <immintrin.h>

#include <cstring>

namespace qserve::cpu {

namespace {

constexpr int kNr = 16;
constexpr int kMr = 4;
constexpr int kNp = 4;

#define QS_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vnni")))

QS_AVX512_TARGET inline __m512i broadcast_group(const int8_t* x) {
  uint32_t word;
  std::memcpy(&word, x, sizeof(word));
  return _mm512_set1_epi32(static_cast<int>(word));
}

// The accumulators must stay in zmm registers: every loop over MT / PT is
// fully unrolled so `a` and `wv` scalarize (4 x 4 + 4 + 1 = 21 of 32 zmm).
template <int MT, int PT>
QS_AVX512_TARGET void tile_avx512(const int8_t* xs, int64_t ldx,
                                  const int8_t* w, int64_t ldw,
                                  int64_t groups, int32_t* acc,
                                  int64_t ldacc) {
  __m512i a[MT][PT];
#pragma GCC unroll 4
  for (int t = 0; t < MT; ++t)
#pragma GCC unroll 4
    for (int p = 0; p < PT; ++p)
      a[t][p] = _mm512_loadu_si512(acc + t * ldacc + p * kNr);
  for (int64_t g = 0; g < groups; ++g) {
    const int8_t* wg = w + g * kNr * kKGroup;
    const int8_t* xg = xs + g * kKGroup;
    __m512i wv[PT];
#pragma GCC unroll 4
    for (int p = 0; p < PT; ++p) wv[p] = _mm512_loadu_si512(wg + p * ldw);
#pragma GCC unroll 4
    for (int t = 0; t < MT; ++t) {
      const __m512i xv = broadcast_group(xg + t * ldx);
#pragma GCC unroll 4
      for (int p = 0; p < PT; ++p)
        a[t][p] = _mm512_dpbusd_epi32(a[t][p], xv, wv[p]);
    }
  }
#pragma GCC unroll 4
  for (int t = 0; t < MT; ++t)
#pragma GCC unroll 4
    for (int p = 0; p < PT; ++p)
      _mm512_storeu_si512(acc + t * ldacc + p * kNr, a[t][p]);
}

using TileImpl = void (*)(const int8_t*, int64_t, const int8_t*, int64_t,
                          int64_t, int32_t*, int64_t);

// kTiles[mt - 1][pt - 1]: the remainder shapes are the same kernel.
constexpr TileImpl kTiles[kMr][kNp] = {
    {tile_avx512<1, 1>, tile_avx512<1, 2>, tile_avx512<1, 3>,
     tile_avx512<1, 4>},
    {tile_avx512<2, 1>, tile_avx512<2, 2>, tile_avx512<2, 3>,
     tile_avx512<2, 4>},
    {tile_avx512<3, 1>, tile_avx512<3, 2>, tile_avx512<3, 3>,
     tile_avx512<3, 4>},
    {tile_avx512<4, 1>, tile_avx512<4, 2>, tile_avx512<4, 3>,
     tile_avx512<4, 4>},
};

void tile_dispatch(const int8_t* xs, int64_t ldx, const int8_t* w,
                   int64_t ldw, int64_t groups, int mt, int pt, int nr,
                   int32_t* acc, int64_t ldacc) {
  (void)nr;  // the driver guarantees nr == kNr
  kTiles[mt - 1][pt - 1](xs, ldx, w, ldw, groups, acc, ldacc);
}

QS_AVX512_TARGET void epilogue_row_avx512(const int32_t* acc, int64_t n,
                                          float s, const float* scale,
                                          float tsum, const float* zp_term,
                                          float* y) {
  const __m512 sv = _mm512_set1_ps(s);
  const __m512 tv = _mm512_set1_ps(tsum);
  for (int64_t r = 0; r < n; r += kNr) {
    const __mmask16 mask =
        n - r >= kNr ? __mmask16(0xFFFF) : __mmask16((1u << (n - r)) - 1);
    __m512 v = _mm512_cvtepi32_ps(_mm512_maskz_loadu_epi32(mask, acc + r));
    v = _mm512_mul_ps(_mm512_mul_ps(v, sv),
                      _mm512_maskz_loadu_ps(mask, scale + r));
    if (zp_term != nullptr)
      v = _mm512_sub_ps(
          v, _mm512_mul_ps(tv, _mm512_maskz_loadu_ps(mask, zp_term + r)));
    const __m256i h =
        _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm512_mask_storeu_ps(y + r, mask, _mm512_cvtph_ps(h));
  }
}

#undef QS_AVX512_TARGET

constexpr Microkernel kAvx512Kernel = {
    Isa::kAvx512,  kNr, kMr, kNp, /*biased_acts=*/true,
    tile_dispatch, epilogue_row_avx512,
};

}  // namespace

const Microkernel* avx512_microkernel() { return &kAvx512Kernel; }

}  // namespace qserve::cpu

#else  // non-x86 or non-GNU toolchain: AVX-512 path compiled out.

namespace qserve::cpu {
const Microkernel* avx512_microkernel() { return nullptr; }
}  // namespace qserve::cpu

#endif
