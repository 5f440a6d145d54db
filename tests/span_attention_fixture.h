// Shared fixture for the span-attention identity tests: one paged sequence
// plus the query rows of its last n positions, attended by the paged
// executor and by the gather-then-attend reference
// (PagedKvCache::gather[_visible] + attention_prefill[_windowed]).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "kernels/attention.h"
#include "kvcache/fused_attention.h"

namespace qserve::testing_span {

struct SpanCase {
  KvPrecision precision = KvPrecision::kInt4;
  bool static_scales = false;
  int n_heads = 4;
  int n_kv_heads = 2;
  int head_dim = 32;
  int64_t n = 1;  // span rows
  bool fp16_accum = false;
  bool windowed = false;
};

// The canonical two-pass attention written out one (row, head) at a time
// from single-vector cache reads: 16-lane QK accumulation with the pairwise
// fold, scale and optional FP16 rounding, softmax over the row's own
// attended tokens in position order, token-ordered SV, optional FP16
// rounding. Products go through a volatile so no build can fuse them into
// an FMA. An oracle independent of the tile executor.
inline Tensor naive_span_attention(const PagedKvCache& cache, int seq,
                                   const Tensor& q, const AttentionConfig& a,
                                   int64_t sink, int64_t window) {
  const int64_t n = q.rows(), len = cache.seq_len(seq);
  const int group = a.n_heads / a.n_kv_heads, D = a.head_dim;
  const float scale = 1.0f / std::sqrt(float(D));
  Tensor out({n, q.cols()});
  std::vector<float> kv(static_cast<size_t>(D)), scores;
  std::vector<int64_t> tokens;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t p = len - n + i;
    tokens.clear();
    for (int64_t t = 0; t <= p; ++t)
      if (window == 0 || t < std::min(p + 1, sink) ||
          t >= std::max(sink, p + 1 - window))
        tokens.push_back(t);
    for (int h = 0; h < a.n_heads; ++h) {
      const float* qh = q.row(i) + int64_t(h) * D;
      scores.clear();
      for (const int64_t t : tokens) {
        cache.read_k(seq, t, h / group, kv.data());
        float lanes[16] = {};
        for (int d = 0; d < D; ++d) {
          volatile float prod = qh[d] * kv[static_cast<size_t>(d)];
          lanes[d & 15] += prod;
        }
        const float s = cpu::fold_qk_lanes(lanes) * scale;
        scores.push_back(a.fp16_accum ? to_half_precision(s) : s);
      }
      softmax_inplace(scores.data(), static_cast<int>(scores.size()));
      float* oh = out.row(i) + int64_t(h) * D;
      for (int d = 0; d < D; ++d) oh[d] = 0.0f;
      for (size_t j = 0; j < tokens.size(); ++j) {
        cache.read_v(seq, tokens[j], h / group, kv.data());
        for (int d = 0; d < D; ++d) {
          volatile float prod = scores[j] * kv[static_cast<size_t>(d)];
          oh[d] += prod;
        }
      }
      if (a.fp16_accum)
        for (int d = 0; d < D; ++d) oh[d] = to_half_precision(oh[d]);
    }
  }
  return out;
}

// Page size 8 with context lengths off the page grid, so the first and the
// last page runs are partial. A windowed case installs sink 8 / window 16
// with slack covering the span, then grows the sequence until the ring has
// recycled pages, so the span's earliest row attends tokens that lie below
// its last row's window.
struct SpanFixture {
  static constexpr int64_t kSink = 8;
  static constexpr int64_t kWindow = 16;

  SpanCase c;
  KvCacheConfig ccfg;
  AttentionConfig acfg;
  PagedKvCache cache;
  int seq;
  Tensor q;

  SpanFixture(const SpanCase& sc, uint64_t seed)
      : c(sc),
        ccfg{sc.n_kv_heads, sc.head_dim, 8, sc.precision, sc.static_scales,
             0.25f, 0.5f, 4096},
        acfg{sc.n_heads, sc.n_kv_heads, sc.head_dim, sc.fp16_accum},
        cache(ccfg),
        seq(cache.alloc_sequence()),
        q({sc.n, int64_t(sc.n_heads) * sc.head_dim}) {
    const int64_t ctx =
        sc.windowed ? sc.n + kSink + kWindow + 2 * sc.n + 29 : sc.n + 37;
    if (sc.windowed) cache.set_window(seq, kSink, kWindow, sc.n);
    Rng rng(seed);
    const size_t span = static_cast<size_t>(sc.n_kv_heads) * sc.head_dim;
    std::vector<float> k(span), v(span);
    for (int64_t t = 0; t < ctx; ++t) {
      for (auto& x : k) x = rng.normal();
      for (auto& x : v) x = rng.normal();
      k[0] = 9.0f;  // persistent outlier channel, like real Keys
      cache.append(seq, k.data(), v.data());
    }
    for (int64_t i = 0; i < q.numel(); ++i) q.data()[i] = rng.normal();
  }

  // paged_attention over query heads [q_head0, q_head0 + n_q_heads).
  Tensor paged(int q_head0, int n_q_heads) const {
    const int64_t w = int64_t(n_q_heads) * c.head_dim;
    Tensor qs({c.n, w}), out({c.n, w});
    for (int64_t i = 0; i < c.n; ++i)
      for (int64_t j = 0; j < w; ++j)
        qs.at2(i, j) = q.at2(i, int64_t(q_head0) * c.head_dim + j);
    paged_attention(cache, {{seq, c.n, qs.data(), out.data(), w}}, acfg,
                    q_head0, n_q_heads);
    return out;
  }
  Tensor paged() const { return paged(0, c.n_heads); }

  Tensor naive() const {
    return c.windowed ? naive_span_attention(cache, seq, q, acfg, kSink,
                                             kWindow)
                      : naive_span_attention(cache, seq, q, acfg, 0, 0);
  }

  Tensor reference() const {
    Tensor k, v;
    if (!c.windowed) {
      cache.gather(seq, k, v);
      return attention_prefill(q, k, v, acfg);
    }
    const int64_t tail0 = cache.gather_visible(seq, k, v);
    return attention_prefill_windowed(q, k, v, acfg, cache.seq_len(seq),
                                      kSink, kWindow, tail0);
  }
};

// Bitwise comparison of `got` against columns [col0, col0 + got.cols()) of
// `want`.
inline ::testing::AssertionResult bitwise_equal(const Tensor& got,
                                                const Tensor& want,
                                                int64_t col0 = 0) {
  if (got.rows() != want.rows())
    return ::testing::AssertionFailure() << "row count differs";
  for (int64_t i = 0; i < got.rows(); ++i)
    for (int64_t j = 0; j < got.cols(); ++j)
      if (detail::bit_cast<uint32_t>(got.at2(i, j)) !=
          detail::bit_cast<uint32_t>(want.at2(i, col0 + j)))
        return ::testing::AssertionFailure()
               << "row " << i << " col " << j << ": " << got.at2(i, j)
               << " vs " << want.at2(i, col0 + j);
  return ::testing::AssertionSuccess();
}

}  // namespace qserve::testing_span
