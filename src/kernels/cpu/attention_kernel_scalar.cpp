// Scalar reference attention kernels + the dispatch table.
//
// Like microkernel_scalar.cpp, this file is compiled with auto-vectorization
// disabled (and -ffp-contract=off, see CMakeLists) so QSERVE_ISA=scalar
// measures a genuine one-MAC-at-a-time baseline whose roundings match the
// vector kernels' mul-then-add sequences exactly.
#include "kernels/cpu/attention_kernel.h"

#include "common/half.h"
#include "kernels/cpu/attention_kernel_inline.h"

namespace qserve::cpu {

namespace {

using attn_inline::run_element;
using attn_inline::token_params;

template <KvRunKind K>
void dequant_run_scalar_t(const KvHeadRun& run, int head_dim, float* tile,
                          int64_t ld) {
  const int dim = padded_head_dim(head_dim);
  for (int64_t t = 0; t < run.n_tokens; ++t) {
    const uint8_t* ct = run.codes ? run.codes + t * run.stride : nullptr;
    const uint16_t* ht =
        run.half_bits ? run.half_bits + t * run.stride : nullptr;
    const float* ft = run.f32 ? run.f32 + t * run.stride : nullptr;
    const auto p = token_params<K>(run, t);
    float* row = tile + t * ld;
    if constexpr (K == KvRunKind::kInt4Dyn) {
      // One byte holds elements 2i (low nibble) and 2i + 1 (head_dim is
      // even): run_element's arithmetic without a per-element shift.
      for (int i = 0; i < head_dim / 2; ++i) {
        row[2 * i] = float(ct[i] & 0xF) * p.scale + p.zero;
        row[2 * i + 1] = float(ct[i] >> 4) * p.scale + p.zero;
      }
    } else {
      for (int d = 0; d < head_dim; ++d)
        row[d] = run_element<K>(ct, ht, ft, d, p.scale, p.zero);
    }
    for (int d = head_dim; d < dim; ++d) row[d] = 0.0f;
  }
}

void dequant_run_scalar(const KvHeadRun& run, int head_dim, float* tile,
                        int64_t ld) {
  switch (run.kind) {
    case KvRunKind::kF32:
      return dequant_run_scalar_t<KvRunKind::kF32>(run, head_dim, tile, ld);
    case KvRunKind::kFp16:
      return dequant_run_scalar_t<KvRunKind::kFp16>(run, head_dim, tile, ld);
    case KvRunKind::kInt8Dyn:
      return dequant_run_scalar_t<KvRunKind::kInt8Dyn>(run, head_dim, tile,
                                                       ld);
    case KvRunKind::kInt8Static:
      return dequant_run_scalar_t<KvRunKind::kInt8Static>(run, head_dim, tile,
                                                          ld);
    case KvRunKind::kInt4Dyn:
      return dequant_run_scalar_t<KvRunKind::kInt4Dyn>(run, head_dim, tile,
                                                       ld);
  }
}

template <KvRunKind K>
void qk_tile_scalar_t(const float* q, int64_t ldq, int rows, const KvHeadRun& k,
                      int dim, float* dots, int64_t ldd) {
  for (int r = 0; r < rows; ++r) {
    const float* qr = q + r * ldq;
    for (int64_t t = 0; t < k.n_tokens; ++t) {
      const uint16_t* ht = k.half_bits ? k.half_bits + t * k.stride : nullptr;
      const float* ft = k.f32 ? k.f32 + t * k.stride : nullptr;
      // The canonical 16-lane accumulation: lane d & 15, increasing d.
      float lanes[kQkLanes] = {};
      for (int d = 0; d < dim; d += kQkLanes)
        for (int l = 0; l < kQkLanes; ++l)
          lanes[l] +=
              qr[d + l] * run_element<K>(nullptr, ht, ft, d + l, 0.0f, 0.0f);
      dots[r * ldd + t] = fold_qk_lanes(lanes);
    }
  }
}

void qk_tile_scalar(const float* q, int64_t ldq, int rows, const KvHeadRun& k,
                    int dim, float* dots, int64_t ldd) {
  if (k.kind == KvRunKind::kFp16)
    return qk_tile_scalar_t<KvRunKind::kFp16>(q, ldq, rows, k, dim, dots, ldd);
  qk_tile_scalar_t<KvRunKind::kF32>(q, ldq, rows, k, dim, dots, ldd);
}

void sv_tile_scalar(const float* p, int64_t ldp, int rows, const float* v,
                    int64_t ldv, int64_t n_tokens, int dim, float* out,
                    int64_t ldo) {
  for (int r = 0; r < rows; ++r) {
    const float* pr = p + r * ldp;
    float* orow = out + r * ldo;
    for (int64_t t = 0; t < n_tokens; ++t) {
      const float* vt = v + t * ldv;
      const float pt = pr[t];
      for (int d = 0; d < dim; ++d) orow[d] += pt * vt[d];
    }
  }
}

void scale_round_scalar(float* x, int64_t n, float scale, bool to_half) {
  for (int64_t i = 0; i < n; ++i) {
    const float s = x[i] * scale;
    x[i] = to_half ? to_half_precision(s) : s;
  }
}

constexpr AttentionKernels kScalarAttentionKernels = {
    Isa::kScalar,   dequant_run_scalar, qk_tile_scalar,
    sv_tile_scalar, scale_round_scalar,
};

}  // namespace

const AttentionKernels& attention_kernel_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      break;
    case Isa::kAvx2:
      if (const AttentionKernels* k = avx2_attention_kernel()) return *k;
      break;
    case Isa::kAvx512:
      if (const AttentionKernels* k = avx512_attention_kernel()) return *k;
      break;
  }
  return kScalarAttentionKernels;
}

}  // namespace qserve::cpu
