// Attention microkernels over KV page runs, behind the same runtime ISA
// dispatch as the GEMM microkernels (microkernel.h).
//
// The kernels work on a *tile*: R query rows (span rows × the GQA query
// group of one KV head) against one page run of tokens. dequant_run turns the
// run's stored form (nibble-packed INT4, INT8 codes, FP16 bits, or floats)
// into a small L1-resident float tile once; qk_tile and sv_tile then reuse
// that tile for every query row, so a page run is dequantized once per tile
// instead of once per (row, head). Nothing larger than one run is ever
// materialized — the CPU counterpart of the QServe CUDA kernel that walks
// pages and dequantizes per head-vector (§5.3).
//
// Tile layout: every query / key / value row holds padded_head_dim(D)
// floats — the D real elements followed by zeros up to the next multiple of
// 16 — so the vector kernels run whole 16-lane blocks with no tail code.
//
// Numerics contract: float summation is not associative, so — unlike the
// INT32 GEMM microkernels — lane order matters. Every implementation commits
// to one canonical reduction order, chosen to be the natural SIMD order:
//
//  * QK dot: 16 virtual lanes. Lane l accumulates, from +0, the products
//    q[d] * k[d] for d ≡ l (mod 16) in increasing d; the lanes are then
//    folded pairwise 16→8→4→2→1 (fold_qk_lanes below). The zero padding
//    adds +0 products, which leave a lane unchanged: a lane that starts at
//    +0 can never become -0 under round-to-nearest, so lane + 0 == lane.
//    The scalar kernel folds each token's lane array; AVX-512 holds one
//    token's lanes in a __m512 and folds 16 tokens at once with the same
//    pairwise adds done across registers (shuffle_f32x4 for l/l+8 and
//    l/l+4, shuffle_ps for l/l+2 and l/l+1, then one permute back to token
//    order); AVX2 holds the lanes in 2×__m256 and folds 8 tokens at once.
//    Same adds, same operands: bitwise-identical dots.
//  * SV: out[d] += p[t] * v_t[d] with tokens strictly in order. The chain
//    per output element is token-sequential at any vector width; sv_tile
//    keeps `out` in registers across the tokens of one call.
//  * Score epilogue: x * scale, then (FP16 mode) a round trip through
//    binary16 with round-to-nearest-even. The SIMD kernels use F16C's
//    vcvtps2ph / vcvtph2ps, which round exactly as to_half_precision() on
//    every non-NaN value (the same contract as the GEMM epilogue,
//    microkernel.h); NaN payloads are the only permitted difference.
//
// Every dequantized element and every product/sum is computed mul-then-add
// with separate roundings: no FMA anywhere (the attention kernel TUs are
// compiled with -ffp-contract=off, and the vector kernels use mul_ps/add_ps,
// never fmadd). This is what makes scalar/AVX2/AVX-512 agree bit for bit —
// a property tests/test_attention_isa.cpp pins across KV formats, GQA
// shapes, page-crossing lengths and span widths.
#pragma once

#include <cstdint>

#include "kernels/cpu/isa.h"

namespace qserve::cpu {

// Virtual accumulator lanes of the canonical QK reduction order.
inline constexpr int kQkLanes = 16;

// Row width of a query / key / value tile: head_dim rounded up to whole
// 16-lane blocks (the padding is zero).
inline int padded_head_dim(int head_dim) {
  return (head_dim + kQkLanes - 1) & ~(kQkLanes - 1);
}

// Canonical pairwise fold of the 16 QK lanes (16→8→4→2→1) — the order a
// SIMD horizontal reduce performs naturally. Pure adds: contraction-free by
// construction, so it is safe to inline into any TU.
inline float fold_qk_lanes(const float* lanes) {
  float s8[8], s4[4], s2[2];
  for (int l = 0; l < 8; ++l) s8[l] = lanes[l] + lanes[l + 8];
  for (int l = 0; l < 4; ++l) s4[l] = s8[l] + s8[l + 4];
  for (int l = 0; l < 2; ++l) s2[l] = s4[l] + s4[l + 2];
  return s2[0] + s2[1];
}

// Storage form of one KV head run (mirrors PagedKvCache's page layout plus
// the float form of K/V matrices).
enum class KvRunKind : int {
  kF32 = 0,     // floats (float K/V matrices, FP32 reference attention)
  kFp16,        // binary16 bits (KvPrecision::kFp16 pages, FP16 weights)
  kInt8Dyn,     // unsigned INT8 codes + per-(token,head) FP16 scale/zero
  kInt8Static,  // signed INT8 codes + one static scale (TRT-LLM baseline)
  kInt4Dyn,     // nibble-packed UINT4 codes + per-(token,head) FP16 params
};

// One head's slice of a contiguous run of tokens (at most one KV page): the
// kernel-facing view PagedKvCache::SeqView::k_run/v_run produce. Exactly one
// of codes/half_bits/f32 is set, per `kind`. Strides are token-to-token:
// bytes for `codes`, elements for `half_bits`/`f32`, uint16 elements for
// `params` (which points at token 0's {scale_bits, zero_bits} pair).
struct KvHeadRun {
  KvRunKind kind = KvRunKind::kF32;
  int64_t n_tokens = 0;
  const uint8_t* codes = nullptr;
  const uint16_t* half_bits = nullptr;
  const float* f32 = nullptr;
  int64_t stride = 0;
  const uint16_t* params = nullptr;
  int64_t param_stride = 0;
  float static_scale = 1.0f;
};

// Tokens [t0, t0 + n) of `run` as a run of their own.
inline KvHeadRun sub_run(const KvHeadRun& run, int64_t t0, int64_t n) {
  KvHeadRun r = run;
  r.n_tokens = n;
  if (r.codes) r.codes += t0 * r.stride;
  if (r.half_bits) r.half_bits += t0 * r.stride;
  if (r.f32) r.f32 += t0 * r.stride;
  if (r.params) r.params += t0 * r.param_stride;
  return r;
}

struct AttentionKernels {
  Isa isa;
  // Dequantizes every token of `run` into tile row t (`ld` floats apart,
  // ld >= padded_head_dim(head_dim)): head_dim elements, then zeros up to
  // padded_head_dim(head_dim). Per-kind arithmetic is `float(code) * scale
  // + zero` (dynamic INT8/INT4), `float(code) * scale` (static INT8), an
  // exact half -> float conversion (FP16) or a copy (F32).
  void (*dequant_run)(const KvHeadRun& run, int head_dim, float* tile,
                      int64_t ld);
  // dots[r * ldd + t] = canonical-order dot of query row r (q + r * ldq)
  // against key row t of `k`, for r < rows and t < k.n_tokens. `k` is a
  // kF32 run (a dequantized tile) or a kFp16 run (binary16 rows, converted
  // exactly as they are read — the FP16 LM head's weights). Rows hold `dim`
  // elements (a multiple of 16; zero past the real head_dim). `k` must stay
  // readable up to n_tokens rounded up to 16 rows; the extra rows' dots are
  // computed and discarded.
  void (*qk_tile)(const float* q, int64_t ldq, int rows, const KvHeadRun& k,
                  int dim, float* dots, int64_t ldd);
  // out[r * ldo + d] += p[r * ldp + t] * v[t * ldv + d] for r < rows,
  // d < dim, tokens t = 0 .. n_tokens-1 in order — accumulates, so callers
  // zero `out` once and chain runs back to back.
  void (*sv_tile)(const float* p, int64_t ldp, int rows, const float* v,
                  int64_t ldv, int64_t n_tokens, int dim, float* out,
                  int64_t ldo);
  // x[i] = x[i] * scale, then rounded through binary16 when `to_half`.
  void (*scale_round)(float* x, int64_t n, float scale, bool to_half);
};

// Dispatch table lookup; falls back to the scalar kernels if `isa` was not
// compiled into this binary (non-x86 builds).
const AttentionKernels& attention_kernel_for(Isa isa);

// Per-ISA factories (nullptr when compiled out), mirroring microkernel.h.
const AttentionKernels* avx2_attention_kernel();
const AttentionKernels* avx512_attention_kernel();

}  // namespace qserve::cpu
