#include "kvcache/fused_attention.h"

#include <algorithm>
#include <vector>

#include "common/math_util.h"
#include "common/parallel.h"
#include "kernels/cpu/isa.h"

namespace qserve {

namespace {

void check_against_cache(const PagedKvCache& cache,
                         const AttentionConfig& cfg) {
  cfg.validate(cache.config().precision == KvPrecision::kInt4);
  QS_CHECK_EQ(cfg.n_kv_heads, cache.config().n_kv_heads);
  QS_CHECK_EQ(cfg.head_dim, cache.config().head_dim);
}

// One row tile of one item: rows [i0, i0 + n_pos) and the group's query
// heads [g0, g0 + n_g) against KV head kv_head.
struct TileWork {
  int item;
  int kv_head;
  int64_t i0;
  int n_pos;
  int g0, n_g;
};

}  // namespace

void paged_attention(const PagedKvCache& cache,
                     const std::vector<SpanAttentionItem>& items,
                     const AttentionConfig& cfg, int q_head0, int n_q_heads) {
  if (items.empty() || n_q_heads == 0) return;
  check_against_cache(cache, cfg);
  const int group = cfg.n_heads / cfg.n_kv_heads;
  QS_CHECK(q_head0 >= 0 && n_q_heads >= 0 &&
           q_head0 + n_q_heads <= cfg.n_heads);
  // GQA-group alignment keeps every KV head's query group in one call.
  QS_CHECK(q_head0 % group == 0 && n_q_heads % group == 0);
  const int kv_head0 = q_head0 / group;
  const int n_kv = n_q_heads / group;
  const cpu::AttentionKernels& ker =
      cpu::attention_kernel_for(cpu::active_isa());

  // One locked page-table snapshot per item, resolved up front so the
  // parallel region below never touches the cache mutex. Each view exposes
  // the tail its span's earliest row attends.
  std::vector<PagedKvCache::SeqView> views;
  views.reserve(items.size());
  const int64_t tile_pos = std::max(1, kTileQueryRows / group);
  int64_t n_tiles = 0;
  for (const SpanAttentionItem& item : items) {
    QS_CHECK_GE(item.n, 1);
    views.push_back(cache.view(item.seq, item.n));
    QS_CHECK_GE(views.back().length(), item.n);
    n_tiles += n_kv * ceil_div(item.n, tile_pos);
  }
  const int slices = tile_head_slices(n_tiles, group);
  std::vector<TileWork> work;
  work.reserve(static_cast<size_t>(n_tiles * slices));
  for (size_t it = 0; it < items.size(); ++it)
    for (int h = 0; h < n_kv; ++h)
      for (int64_t i0 = 0; i0 < items[it].n; i0 += tile_pos)
        for (int s = 0; s < slices; ++s) {
          const int g0 = s * group / slices, g1 = (s + 1) * group / slices;
          work.push_back(
              {static_cast<int>(it), kv_head0 + h, i0,
               static_cast<int>(std::min(tile_pos, items[it].n - i0)), g0,
               g1 - g0});
        }

  parallel_for(0, static_cast<int64_t>(work.size()), 1,
               [&](int64_t w0, int64_t w1) {
    thread_local std::vector<AttendRun> runs;
    for (int64_t w = w0; w < w1; ++w) {
      const TileWork& tw = work[static_cast<size_t>(w)];
      const SpanAttentionItem& item = items[static_cast<size_t>(tw.item)];
      const PagedKvCache::SeqView& kv = views[static_cast<size_t>(tw.item)];
      runs.clear();
      for (int r = 0; r < kv.num_page_runs(); ++r)
        runs.push_back({kv.k_run(r, tw.kv_head), kv.v_run(r, tw.kv_head),
                        kv.run_token0(r), kv.run_score0(r)});
      // Local query head of this tile's first row, within the slice.
      const int64_t hoff =
          (int64_t(tw.kv_head - kv_head0) * group + tw.g0) * cfg.head_dim;
      attend_row_tile(ker, runs.data(), static_cast<int>(runs.size()),
                      AttendMask{kv.sink(), kv.window()},
                      kv.length() - item.n + tw.i0, tw.n_pos, tw.n_g,
                      item.q + tw.i0 * item.ld + hoff, item.ld,
                      item.out + tw.i0 * item.ld + hoff, item.ld,
                      cfg.head_dim, cfg.fp16_accum);
    }
  });
}

void fused_decode_attention(const PagedKvCache& cache, int seq,
                            const float* q, const AttentionConfig& cfg,
                            float* out) {
  batched_fused_decode_attention(cache, {{seq, q, out}}, cfg);
}

void batched_fused_decode_attention(
    const PagedKvCache& cache, const std::vector<DecodeAttentionItem>& items,
    const AttentionConfig& cfg) {
  batched_fused_decode_attention(cache, items, cfg, 0, cfg.n_heads);
}

void batched_fused_decode_attention(
    const PagedKvCache& cache, const std::vector<DecodeAttentionItem>& items,
    const AttentionConfig& cfg, int q_head0, int n_q_heads) {
  std::vector<SpanAttentionItem> spans;
  spans.reserve(items.size());
  for (const DecodeAttentionItem& it : items)
    spans.push_back({it.seq, 1, it.q, it.out, 0});
  paged_attention(cache, spans, cfg, q_head0, n_q_heads);
}

}  // namespace qserve
