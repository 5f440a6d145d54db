// GEMM kernels reproducing the numerics of each serving system's pipeline
// (Figure 5). All kernels compute Y[m,n] = X[m,k] * W[n,k]^T.
//
//   gemm_w8a8              — TRT-LLM W8A8 path: INT8 MACs, epilogue scaling.
//   gemm_w4a8_per_channel  — QServe per-channel: UINT4 codes MAC'd directly,
//                            zero-point term folded into the epilogue via the
//                            precomputed token sums tX (Eq. 12/13).
//   gemm_w4a8_per_group    — QServe progressive: level-2 dequant to level-1
//                            INT8 codes in the main loop (sub-after-mul),
//                            INT8 MACs, level-1 scaling in the epilogue.
//   gemm_w4a8_per_group_streamed — same numerics, but consuming the
//                            compute-aware reordered stream with the SWAR RLP
//                            path; exists to validate layout + RLP end to end.
//   gemm_w4a4_atom         — Atom path: INT4 MACs with per-group FP32
//                            partial-sum dequantization in the main loop.
//   gemm_w4a16             — weight-only path: FP16 dequant in the main loop.
//   gemm_fp16w             — FP16 weights (binary16 bits), FP32 activations
//                            and accumulation: the LM head and the FP16
//                            scheme's projections.
//
// Outputs are rounded through FP16 (the GPU kernels emit FP16), except
// gemm_fp16w, which returns raw FP32 dots.
//
// The three INT8-path kernels (w8a8, w4a8 per-channel, w4a8 per-group) run on
// runtime-dispatched, register-blocked SIMD tile microkernels and a SIMD FP16
// epilogue (kernels/cpu/) over a cache-blocked, pre-packed weight layout;
// QSERVE_ISA selects scalar/avx2/avx512 at runtime and every path is bitwise
// identical.
#pragma once

#include "kernels/weight_layout.h"
#include "quant/types.h"
#include "quant/w4a16.h"

namespace qserve {

// FP32 reference (stands in for the FP16 tensor-core baseline). Serial,
// double accumulation: the numerics oracle for the reference model, the
// offline QoQ transforms and the tests, not a serving path.
Tensor gemm_f32_ref(const Tensor& x, const Tensor& w);

// y[t, r] = dot(x[t, :], half(w[r, :])) over binary16 weight bits w [n, k].
// Runs on the ISA-dispatched attention kernels: every x row is dotted
// against each 16-row group of weight rows at once (cpu::AttentionKernels::
// qk_tile on the group dequantized by dequant_run, or on the binary16 rows
// in place for a single x row), so the dots
// inherit the canonical reduction order: 16 virtual lanes,
// pairwise fold, mul-then-add without FMA, exact half -> float conversion. A
// dot depends only on its own x row and w row, so y is bitwise identical
// across ISAs, thread counts and the number of rows m in the call (a row's
// logits do not depend on which batch it was stacked into). Against
// gemm_f32_ref on the same half-rounded weights the only difference is FP32
// vs double accumulation. Threads split the output rows into fixed blocks.
Tensor gemm_fp16w(const Tensor& x, const U16Tensor& w);

// Raw INT8 x INT8 -> INT32 (the "tensor core" primitive).
I32Tensor gemm_i8i8_i32(const I8Tensor& x, const I8Tensor& w);

Tensor gemm_w8a8(const QuantizedActs& x, const W8PerChannel& w);

Tensor gemm_w4a8_per_channel(const QuantizedActs& x, const W4PerChannel& w);

Tensor gemm_w4a8_per_group(const QuantizedActs& x, const W4PerGroup& w);

// --- cache-blocked SIMD driver on pre-packed weights -------------------------
//
// The three INT8-path kernels above are thin wrappers: they pack the weights
// for the active ISA (kernels/cpu/isa.h) and call gemm_blocked. Callers that
// run many GEMMs against the same weights (every model layer, the benches)
// should pack once with pack_gemm_b (kernels/weight_layout.h) and call
// gemm_blocked directly — packing also pre-dequantizes per-group weights to
// their level-1 INT8 codes, so the per-call re-dequantization disappears.
//
// The driver stages the activations once per call (k-group padded; biased
// to x ^ 0x80 for the AVX-512 VNNI tile), splits the output channels into
// chunks of whole panel tiles across the pool, and inside a chunk runs the
// register-blocked tile microkernel (kernels/cpu/microkernel.h): for each
// tile of up to `np` panels and each cache block of k, it sweeps all m
// tokens over the resident weight block in tiles of up to `mr` tokens, each
// call keeping an mr x (np * nr) accumulator block in registers. Every
// finished (token, panel tile) row then goes through the ISA's FP16 row
// epilogue.
//
// Epilogue contract (the one definition of GEMM output rounding, shared with
// gemm_blocked_epilogue):
//
//   y[t, r] = half((float(acc) * x.s[t]) * scale[r]
//                  - x.token_sum[t] * zp_term[r])
//
// with every multiply and the subtract rounded separately — multiply, then
// subtract, never a fused multiply-add (the kernel TUs and this file are
// built with -ffp-contract=off, so the rounding does not depend on the build
// type or -march). The zero-point term exists only for per-channel W4A8.
// Results are bitwise identical for every ISA, any thread count and any m:
// the INT32 accumulators are exact integer sums, and every ISA's epilogue
// rounds exactly like the scalar one (NaN payloads aside).
Tensor gemm_blocked(const QuantizedActs& x, const PackedGemmB& w);

// The raw INT32 accumulators acc[t, r] = sum_c x.q[t, c] * code(r, c) before
// the epilogue — exposed so tests can assert cross-ISA bitwise identity at
// the accumulator level, not just after FP16 rounding, and so the
// tensor-parallel row-parallel path can all-reduce per-shard k-slice
// partials exactly (integer sums are order-independent).
I32Tensor gemm_blocked_acc(const QuantizedActs& x, const PackedGemmB& w);

// gemm_blocked's epilogue applied to externally-reduced accumulators (the
// tensor-parallel all-reduce of per-shard partials): the same ISA row
// epilogue gemm_blocked calls. `scale`/`zp_term` are the full-row epilogue
// constants — identical in every k-slice pack, since they are per-output-row
// — and `x` supplies the full-row per-token scale and token sum (zp_term
// empty = no zero-point term). Bitwise identical to gemm_blocked on the
// unsliced pack: the INT32 accumulator sum is exact and the row epilogue is
// the same function.
Tensor gemm_blocked_epilogue(const I32Tensor& acc, const QuantizedActs& x,
                             const std::vector<float>& scale,
                             const std::vector<float>& zp_term);

Tensor gemm_w4a8_per_group_streamed(const QuantizedActs& x,
                                    const W4PerGroup& w,
                                    const ReorderedW4& stream,
                                    const ReorderedGroupMeta& meta);

// x must be per-token INT4-quantized (quantize_acts_per_token_int4).
Tensor gemm_w4a4_atom(const QuantizedActs& x, const W4A4PerGroup& w);

Tensor gemm_w4a16(const Tensor& x, const W4A16PerGroup& w);

}  // namespace qserve
