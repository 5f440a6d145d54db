// Attention (Eq. 1) for prefill and decode, with GQA support.
//
// Every attention in the repo runs through attend_row_tile below: a tile of
// consecutive query positions × the GQA query group of one KV head, walked
// against the KV head's token runs with the ISA-dispatched tile kernels
// (kernels/cpu/attention_kernel.h). The float-matrix entry points here
// (attention_prefill*, attention_decode_token — the FP32 reference model,
// the quantizer's calibration, and the gather-based test references) view
// their K/V matrices as float runs; the paged executor (kvcache/
// fused_attention.h) feeds the same routine quantized page runs. The two
// are bitwise equal by construction whenever the runs hold the same values.
// `fp16_accum` models QServe's FP32→FP16 conversion of the QK and SV
// products (§5.3).
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/cpu/attention_kernel.h"
#include "tensor/tensor.h"

namespace qserve {

struct AttentionConfig {
  int n_heads = 8;
  int n_kv_heads = 8;   // GQA when < n_heads
  int head_dim = 64;
  bool fp16_accum = false;

  // Loud construction-time validation (same pattern as BatchedStep in PR 4):
  // throws CheckError unless n_heads/n_kv_heads/head_dim are positive,
  // n_heads is a multiple of n_kv_heads, and — when the KV cache stores
  // nibble-packed INT4 codes — head_dim is even. Call once where the config
  // is built; the kernels then only re-check shapes against their inputs.
  void validate(bool int4_kv = false) const;
};

// Causal self-attention for a chunk of `n` new tokens whose keys/values have
// already been appended to K/V. q is [n, H*D]; K, V are [s, HKV*D] with
// s >= n; the new tokens occupy rows s-n .. s-1. Returns [n, H*D].
Tensor attention_prefill(const Tensor& q, const Tensor& k, const Tensor& v,
                         const AttentionConfig& cfg);

// Sliding-window + attention-sink variant of attention_prefill for sequences
// whose KV cache has begun recycling pages (StreamingLLM-style eviction).
//
// K/V hold only the *visible* gathered rows of a logically `s_total`-token
// sequence — exactly what PagedKvCache::gather_visible produces:
//   rows [0, sink_eff)                    = logical tokens [0, sink_eff)
//   rows [sink_eff, k.rows())             = logical tokens [tail0, s_total)
// with sink_eff = min(sink, s_total) and tail0 the oldest resident post-sink
// logical position. The `n` query rows are logical positions
// s_total-n .. s_total-1; row at position p attends the per-row visible set
//   [0, min(p+1, sink))  ∪  [max(sink, p+1-window), p+1)
// i.e. every row sees its *own* trailing window into history, not a shared
// cut — this is what makes recompute-on-resume re-derive bitwise-identical
// prefill results after preemption. When the two intervals are adjacent
// (p+1 <= sink+window) the row degenerates to full causal attention over
// the same tokens in the same order, so window >= context is bit-for-bit
// full attention by construction.
Tensor attention_prefill_windowed(const Tensor& q, const Tensor& k,
                                  const Tensor& v, const AttentionConfig& cfg,
                                  int64_t s_total, int64_t sink,
                                  int64_t window, int64_t tail0);

// Decode: one query token against `s` cached keys/values. q is [H*D],
// K, V are [s, HKV*D]. Writes H*D floats to `out`.
void attention_decode_token(const float* q, const Tensor& k, const Tensor& v,
                            const AttentionConfig& cfg, float* out);

// --- the tile executor -------------------------------------------------------

// One contiguous run of a KV head's tokens: K and V over the same logical
// positions [token0, token0 + k.n_tokens), scored into columns
// [score0, score0 + k.n_tokens) of a row's score buffer.
struct AttendRun {
  cpu::KvHeadRun k, v;
  int64_t token0 = 0;
  int64_t score0 = 0;
};

// Which cached positions a query row at position p attends:
//   window == 0: [0, p + 1)                                (full causal)
//   window  > 0: [0, min(p + 1, sink)) ∪ [max(sink, p + 1 - window), p + 1)
// Runs must list the attended tokens in ascending position; runs below
// `sink` must be scored at their own positions (score0 == token0), and all
// runs at or above it share one offset token0 - score0.
struct AttendMask {
  int64_t sink = 0;
  int64_t window = 0;
};

// Query rows a tile aims for: span positions per tile = max(1, this / group).
inline constexpr int kTileQueryRows = 16;

// Query-head slices to cut each row tile's GQA group into: 1 while there are
// at least as many tiles as pool threads, otherwise enough (at most `group`)
// that a lone decoding sequence still spreads over the pool. Rows are
// independent, so slicing changes no result bit — only how many times a page
// run is dequantized. Slice s of S holds heads [s*group/S, (s+1)*group/S).
int tile_head_slices(int64_t n_tiles, int group);

// One row tile: `n_pos` consecutive positions pos0 .. pos0 + n_pos - 1, each
// with `group` query heads that share this KV head (the whole GQA group or
// one slice of it). Query row (i, g)
// reads q + i * ldq + g * head_dim and writes out + i * ldo + g * head_dim.
// Each run is dequantized once for the whole tile (K for QK, V for SV),
// clipped to the tokens some row of the tile attends. Per (row, head) the
// result is the two-pass attention — canonical QK dots, scale and optional
// FP16 rounding, softmax, token-ordered SV, optional FP16 rounding of the
// output — so it does not depend on the tile shape, the run boundaries or
// the thread that runs it. Scratch is thread-local and bounded by the tile:
// n_pos * group rows of scores, each as wide as the runs' score columns.
void attend_row_tile(const cpu::AttentionKernels& ker, const AttendRun* runs,
                     int n_runs, const AttendMask& mask, int64_t pos0,
                     int n_pos, int group, const float* q, int64_t ldq,
                     float* out, int64_t ldo, int head_dim, bool fp16_accum);

}  // namespace qserve
