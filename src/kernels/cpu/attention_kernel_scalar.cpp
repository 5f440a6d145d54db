// Scalar reference attention kernels + the dispatch table.
//
// Like microkernel_scalar.cpp, this file is compiled with auto-vectorization
// disabled (and -ffp-contract=off, see CMakeLists) so QSERVE_ISA=scalar
// measures a genuine one-MAC-at-a-time baseline whose roundings match the
// vector kernels' mul-then-add sequences exactly.
#include "kernels/cpu/attention_kernel.h"

#include "kernels/cpu/attention_kernel_inline.h"

namespace qserve::cpu {

namespace {

using attn_inline::run_element;
using attn_inline::token_params;

template <KvRunKind K>
void qk_dot_scalar_t(const float* q, const KvHeadRun& run, int head_dim,
                     float* dots) {
  const int blocks = head_dim & ~(kQkLanes - 1);
  for (int64_t t = 0; t < run.n_tokens; ++t) {
    const uint8_t* ct = run.codes ? run.codes + t * run.stride : nullptr;
    const uint16_t* ht =
        run.half_bits ? run.half_bits + t * run.stride : nullptr;
    const float* ft = run.f32 ? run.f32 + t * run.stride : nullptr;
    const auto p = token_params<K>(run, t);
    // The canonical 16-lane accumulation: lane d & 15, increasing d. Whole
    // 16-element blocks add one element to every lane (a fixed-trip inner
    // loop the compiler can keep in registers), then the tail continues
    // the same lane walk, so each lane sees the same add sequence.
    float lanes[kQkLanes] = {};
    for (int d = 0; d < blocks; d += kQkLanes)
      for (int l = 0; l < kQkLanes; ++l)
        lanes[l] += q[d + l] * run_element<K>(ct, ht, ft, d + l, p.scale,
                                              p.zero);
    for (int d = blocks; d < head_dim; ++d)
      lanes[d & (kQkLanes - 1)] +=
          q[d] * run_element<K>(ct, ht, ft, d, p.scale, p.zero);
    dots[t] = fold_qk_lanes(lanes);
  }
}

template <KvRunKind K>
void sv_accum_scalar_t(const float* p, const KvHeadRun& run, int head_dim,
                       float* out) {
  for (int64_t t = 0; t < run.n_tokens; ++t) {
    const uint8_t* ct = run.codes ? run.codes + t * run.stride : nullptr;
    const uint16_t* ht =
        run.half_bits ? run.half_bits + t * run.stride : nullptr;
    const float* ft = run.f32 ? run.f32 + t * run.stride : nullptr;
    const auto tp = token_params<K>(run, t);
    const float pt = p[t];
    for (int d = 0; d < head_dim; ++d)
      out[d] += pt * run_element<K>(ct, ht, ft, d, tp.scale, tp.zero);
  }
}

void qk_dot_scalar(const float* q, const KvHeadRun& run, int head_dim,
                   float* dots) {
  switch (run.kind) {
    case KvRunKind::kF32:
      return qk_dot_scalar_t<KvRunKind::kF32>(q, run, head_dim, dots);
    case KvRunKind::kFp16:
      return qk_dot_scalar_t<KvRunKind::kFp16>(q, run, head_dim, dots);
    case KvRunKind::kInt8Dyn:
      return qk_dot_scalar_t<KvRunKind::kInt8Dyn>(q, run, head_dim, dots);
    case KvRunKind::kInt8Static:
      return qk_dot_scalar_t<KvRunKind::kInt8Static>(q, run, head_dim, dots);
    case KvRunKind::kInt4Dyn:
      return qk_dot_scalar_t<KvRunKind::kInt4Dyn>(q, run, head_dim, dots);
  }
}

void sv_accum_scalar(const float* p, const KvHeadRun& run, int head_dim,
                     float* out) {
  switch (run.kind) {
    case KvRunKind::kF32:
      return sv_accum_scalar_t<KvRunKind::kF32>(p, run, head_dim, out);
    case KvRunKind::kFp16:
      return sv_accum_scalar_t<KvRunKind::kFp16>(p, run, head_dim, out);
    case KvRunKind::kInt8Dyn:
      return sv_accum_scalar_t<KvRunKind::kInt8Dyn>(p, run, head_dim, out);
    case KvRunKind::kInt8Static:
      return sv_accum_scalar_t<KvRunKind::kInt8Static>(p, run, head_dim, out);
    case KvRunKind::kInt4Dyn:
      return sv_accum_scalar_t<KvRunKind::kInt4Dyn>(p, run, head_dim, out);
  }
}

constexpr AttentionKernels kScalarAttentionKernels = {
    Isa::kScalar,
    qk_dot_scalar,
    sv_accum_scalar,
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
