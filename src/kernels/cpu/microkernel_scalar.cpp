// Scalar reference tile + epilogue, and the dispatch table.
//
// This file is compiled with auto-vectorization disabled (see CMakeLists) so
// that QSERVE_ISA=scalar measures a genuine one-MAC-at-a-time baseline and
// the bench regression numbers stay comparable across compiler versions.
#include "kernels/cpu/microkernel.h"

#include "common/half.h"

namespace qserve::cpu {

namespace {

// One token against one panel, any nr. Kept out of line: inlined into the
// tile's token/panel loops, the deeper nest spilled the row index to the
// stack on every row and ran the scalar rows ~2x slower.
__attribute__((noinline)) void dot_scalar(const int8_t* x, const int8_t* panel,
                                          int64_t groups, int nr,
                                          int32_t* acc) {
  for (int64_t g = 0; g < groups; ++g) {
    const int8_t* xg = x + g * kKGroup;
    const int8_t* wg = panel + g * nr * kKGroup;
    for (int r = 0; r < nr; ++r) {
      int32_t a = acc[r];
      for (int j = 0; j < kKGroup; ++j)
        a += int32_t(xg[j]) * int32_t(wg[r * kKGroup + j]);
      acc[r] = a;
    }
  }
}

// Any tile shape: the one-token dot repeated over the tile's tokens and
// panels.
void tile_scalar(const int8_t* xs, int64_t ldx, const int8_t* w, int64_t ldw,
                 int64_t groups, int mt, int pt, int nr, int32_t* acc,
                 int64_t ldacc) {
  for (int t = 0; t < mt; ++t)
    for (int p = 0; p < pt; ++p)
      dot_scalar(xs + t * ldx, w + p * ldw, groups, nr,
                 acc + t * ldacc + p * nr);
}

void epilogue_row_scalar(const int32_t* acc, int64_t n, float s,
                         const float* scale, float tsum, const float* zp_term,
                         float* y) {
  for (int64_t r = 0; r < n; ++r) {
    float v = float(acc[r]) * s * scale[r];
    if (zp_term != nullptr) v -= tsum * zp_term[r];
    y[r] = to_half_precision(v);
  }
}

constexpr Microkernel kScalarKernel = {
    Isa::kScalar,
    /*nr=*/8,  // shares the AVX2 panel layout so ISA flips stay compatible
    /*mr=*/4,
    /*np=*/4,
    /*biased_acts=*/false,
    tile_scalar,
    epilogue_row_scalar,
};

}  // namespace

const Microkernel& microkernel_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      break;
    case Isa::kAvx2:
      if (const Microkernel* mk = avx2_microkernel()) return *mk;
      break;
    case Isa::kAvx512:
      if (const Microkernel* mk = avx512_microkernel()) return *mk;
      break;
  }
  return kScalarKernel;
}

}  // namespace qserve::cpu
