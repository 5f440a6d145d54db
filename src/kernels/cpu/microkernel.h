// Register-blocked INT8 tile microkernels and the FP16 row epilogue behind
// the runtime ISA dispatch.
//
// One tile call accumulates an `mt x (pt * nr)` block of outputs — up to `mr`
// tokens against up to `np` adjacent panels of `nr` output channels — over a
// run of `groups` k-groups:
//
//   acc[t * ldacc + p * nr + r] += sum_{c < 4 * groups} xs[t * ldx + c]
//                                    * w[p * ldw + panel offset of (r, c)]
//
// `w` is the interleaved panel layout produced by pack_gemm_b()
// (kernels/weight_layout.h): input channels are grouped in fours ("k-groups",
// the granularity of vpdpbusd / vpmaddwd), and within a k-group the `nr` rows
// of a panel are stored contiguously:
//
//   w_panel[(g * nr + r) * 4 + j] = code(row r, input channel g*4 + j)
//
// so one 64-byte vector load yields 16 rows x 4 input channels — the same
// fragment shape an MMA tile consumes on the GPU. Inside a tile each weight
// vector is loaded once per k-group and shared by the `mt` broadcast
// activations, which gives the AVX-512 tile 16 independent accumulator
// chains (4 tokens x 4 panels) and the AVX2 tile 8 (4 tokens x 2 halves of
// the widened panel). Partial tiles (m % mr tokens, a chunk's last panels)
// are instantiations of the same kernel; m = 1 decode is the mt = 1 case.
//
// Staged activations. The driver copies activations once per GEMM call into
// a k-group-padded buffer. Kernels with `biased_acts` (AVX-512 VNNI) take
// them biased to unsigned, x ^ 0x80 = x + 128, because vpdpbusd multiplies
// unsigned by signed bytes; the pad bytes are then 0x80 (a biased zero), and
// the driver starts each accumulator at -128 * row_sum(w) so the finished
// tile holds sum((x + 128) * w) - 128 * sum(w) = sum(x * w) exactly. Every
// code kind (signed INT8 / level-1 codes and UINT4 codes 0..15, all stored
// as int8) goes through the one tile kernel.
//
// Numerics contract: every tile produces the INT32 accumulator the scalar
// loop produces, bit for bit, for the full operand ranges (activations and
// signed codes in [-128, 127], unsigned codes in [0, 15]). Integer addition
// is associative, so lane order and the bias compensation never matter. The
// AVX2 tile widens both operands to 16 bits and uses vpmaddwd — exact for
// all int8 products (vpmaddubsw on sign-split operands would saturate or
// mis-handle -128, which the naive-range overflow repro can emit).
//
// Epilogue contract: epilogue_row computes, per output channel r,
//
//   v = (float(acc[r]) * s) * scale[r]       two rounded multiplies
//   v = v - tsum * zp_term[r]                rounded multiply, then subtract
//                                            (only when zp_term != nullptr)
//   y[r] = half(v) as float                  round-to-nearest-even
//
// with no fused multiply-add anywhere (every kernel TU and gemm.cpp are built
// with -ffp-contract=off). The SIMD rows use cvtepi32_ps and the F16C
// vcvtps2ph / vcvtph2ps pair, which round exactly as to_half_precision()
// does, so every ISA's epilogue is bitwise the scalar one on all non-NaN
// values. NaN payloads are the only permitted difference: F16C keeps the top
// payload bits, to_half_precision() canonicalizes to one quiet NaN. A GEMM
// output is NaN only if a scale is non-finite.
#pragma once

#include <cstdint>

#include "kernels/cpu/isa.h"

namespace qserve::cpu {

// Input channels per packed k-group (vpdpbusd granularity).
inline constexpr int kKGroup = 4;

// Accumulate an mt x (pt * nr) tile (1 <= mt <= mr, 1 <= pt <= np) over
// `groups` k-groups. `xs` points at token 0's staged activations (rows `ldx`
// bytes apart), `w` at panel 0's k-group 0 (panels `ldw` bytes apart), `acc`
// at the tile's first accumulator (rows `ldacc` int32 apart).
using TileFn = void (*)(const int8_t* xs, int64_t ldx, const int8_t* w,
                        int64_t ldw, int64_t groups, int mt, int pt, int nr,
                        int32_t* acc, int64_t ldacc);

// The FP16 epilogue of one output row segment of n channels (see the
// contract above). `zp_term` may be nullptr (no zero-point term; `tsum` is
// then ignored).
using EpilogueRowFn = void (*)(const int32_t* acc, int64_t n, float s,
                               const float* scale, float tsum,
                               const float* zp_term, float* y);

struct Microkernel {
  Isa isa;
  int nr;  // output channels per panel (vector width in INT32 lanes)
  int mr;  // max tokens per tile
  int np;  // max panels per tile
  // True if the tile expects activations staged as x ^ 0x80 (pads 0x80) and
  // accumulators started at -128 * row_sum.
  bool biased_acts;
  TileFn tile;
  EpilogueRowFn epilogue_row;
};

// Dispatch table lookup; falls back to the scalar kernel if `isa` was not
// compiled into this binary (non-x86 builds).
const Microkernel& microkernel_for(Isa isa);

// Per-ISA factories (nullptr when compiled out). The scalar tile accepts any
// nr; the vector tiles require nr == their fixed width.
const Microkernel* avx2_microkernel();
const Microkernel* avx512_microkernel();

}  // namespace qserve::cpu
