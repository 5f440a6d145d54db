// Paged attention over quantized KV pages (§5.3), for every row a step
// carries: decode rows, speculative verify spans and prefill chunks.
//
// The QServe CUDA kernel never materializes a dequantized K/V matrix: it
// walks the pages, dequantizes each head-vector inline, and accumulates QK /
// SV products in FP16. This is the CPU counterpart. One executor call builds
// a work list over (span × KV head × row tile); each tile — consecutive span
// rows × the GQA query group of one KV head, or a slice of that group when
// the step has fewer tiles than pool threads — walks the sequence's page runs
// in place (PagedKvCache::SeqView) and runs attend_row_tile
// (kernels/attention.h), which dequantizes each page run once per tile into
// an L1 float tile for the ISA-dispatched QK/SV kernels. Every row applies
// its own causal limit, and a windowed sequence's rows their own
// sink + trailing-window sets, so a k-row span attends bitwise like k
// sequential decode rows. Nothing larger than one page run is dequantized,
// and score scratch is bounded by one row tile.
//
// Numerically the result equals the gather-then-attend reference
// (PagedKvCache::gather + attention_prefill[_windowed]) bit for bit, at any
// thread count, ISA, tile shape and TP head range: both run the same tile
// routine over runs holding the same values.
#pragma once

#include <vector>

#include "kernels/attention.h"
#include "kvcache/paged_kv_cache.h"

namespace qserve {

// One sequence's span of query rows: its last `n` positions, already
// appended to the cache (row i is position length - n + i). q and out point
// at row 0 of [n, ld]-strided matrices; within a row, local query head l
// occupies [l * head_dim, (l + 1) * head_dim).
struct SpanAttentionItem {
  int seq = -1;              // PagedKvCache sequence handle
  int64_t n = 1;             // rows in the span (1 = a decode row)
  const float* q = nullptr;  // post-RoPE queries
  float* out = nullptr;
  int64_t ld = 0;            // floats between rows of q and of out
};

// The span executor: resolves each sequence's page table once (one lock
// round per item), then walks every (item, KV head, row tile) in a single
// parallel_for. It computes query heads [q_head0, q_head0 + n_q_heads) of
// the FULL config `cfg`, with q/out pointing at that head slice (local head
// 0 = global head q_head0); the range must be GQA-group aligned so every KV
// head's query group lives in one call — the tensor-parallel shard split.
// Each tile writes only its own output rows, so the result is bitwise
// independent of scheduling, thread count and ISA, and a shard's slice is
// bitwise the matching slice of the unsharded call.
void paged_attention(const PagedKvCache& cache,
                     const std::vector<SpanAttentionItem>& items,
                     const AttentionConfig& cfg, int q_head0, int n_q_heads);

// --- single decode rows (the n = 1 case) -------------------------------------

// One decode step for one sequence: q is [n_heads * head_dim] (post-RoPE),
// out receives [n_heads * head_dim]. `fp16_accum` mirrors QServe's FP16
// QK/SV arithmetic.
void fused_decode_attention(const PagedKvCache& cache, int seq,
                            const float* q, const AttentionConfig& cfg,
                            float* out);

// One engine step's worth of single-row decode attention: every sequence
// that decodes this step contributes one item.
struct DecodeAttentionItem {
  int seq = -1;            // PagedKvCache sequence handle
  const float* q = nullptr;  // [n_heads * head_dim], post-RoPE
  float* out = nullptr;      // [n_heads * head_dim]
};

// paged_attention over one-row spans: all heads, or the GQA-aligned head
// range [q_head0, q_head0 + n_q_heads) with items' q/out pointing at that
// slice.
void batched_fused_decode_attention(const PagedKvCache& cache,
                                    const std::vector<DecodeAttentionItem>& items,
                                    const AttentionConfig& cfg);
void batched_fused_decode_attention(const PagedKvCache& cache,
                                    const std::vector<DecodeAttentionItem>& items,
                                    const AttentionConfig& cfg, int q_head0,
                                    int n_q_heads);

}  // namespace qserve
