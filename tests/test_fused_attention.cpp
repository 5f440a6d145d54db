// Paged attention over quantized pages — decode rows and multi-row spans —
// must be bit-identical to the gather-then-attend reference at every KV
// precision, GQA configuration, span width, window and TP head range.
#include "kvcache/fused_attention.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "span_attention_fixture.h"

namespace qserve {
namespace {

struct FusedFixture {
  KvCacheConfig cache_cfg;
  AttentionConfig attn_cfg;
  PagedKvCache cache;
  int seq;
  std::vector<float> q;

  FusedFixture(KvPrecision p, int n_heads, int n_kv_heads, int tokens,
        bool fp16_accum, uint64_t seed)
      : cache_cfg{n_kv_heads, 32, 8, p, false, 1.0f, 1.0f, 1024},
        attn_cfg{n_heads, n_kv_heads, 32, fp16_accum},
        cache(cache_cfg),
        seq(cache.alloc_sequence()) {
    Rng rng(seed);
    const int span = n_kv_heads * 32;
    std::vector<float> k(static_cast<size_t>(span)),
        v(static_cast<size_t>(span));
    for (int t = 0; t < tokens; ++t) {
      for (auto& x : k) x = rng.normal();
      for (auto& x : v) x = rng.normal();
      k[0] = 9.0f;  // persistent outlier channel, like real Keys
      cache.append(seq, k.data(), v.data());
    }
    q.resize(static_cast<size_t>(n_heads) * 32);
    for (auto& x : q) x = rng.normal();
  }

  std::vector<float> fused() const {
    std::vector<float> out(q.size());
    fused_decode_attention(cache, seq, q.data(), attn_cfg, out.data());
    return out;
  }

  std::vector<float> reference() const {
    Tensor k, v;
    cache.gather(seq, k, v);
    std::vector<float> out(q.size());
    attention_decode_token(q.data(), k, v, attn_cfg, out.data());
    return out;
  }
};

class FusedAttentionParity
    : public ::testing::TestWithParam<std::tuple<KvPrecision, int, int>> {};

TEST_P(FusedAttentionParity, BitIdenticalToGatherPath) {
  const auto [precision, n_heads, n_kv_heads] = GetParam();
  for (const bool fp16 : {false, true}) {
    FusedFixture s(precision, n_heads, n_kv_heads, 37, fp16, 11);
    const auto a = s.fused();
    const auto b = s.reference();
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FusedAttentionParity,
    ::testing::Values(std::make_tuple(KvPrecision::kFp16, 4, 4),
                      std::make_tuple(KvPrecision::kInt8, 4, 4),
                      std::make_tuple(KvPrecision::kInt4, 4, 4),
                      std::make_tuple(KvPrecision::kInt4, 8, 2),
                      std::make_tuple(KvPrecision::kInt8, 6, 3)));

// --- multi-row spans ---------------------------------------------------------

using testing_span::bitwise_equal;
using testing_span::SpanCase;
using testing_span::SpanFixture;

struct KvStorage {
  KvPrecision precision;
  bool static_scales;
  const char* name;
};

constexpr KvStorage kStorages[] = {
    {KvPrecision::kFp16, false, "fp16"},
    {KvPrecision::kInt8, false, "int8"},
    {KvPrecision::kInt8, true, "int8_static"},
    {KvPrecision::kInt4, false, "int4"},
};

constexpr int64_t kSpanRows[] = {1, 2, 5, 16, 17, 40, 128};

// The span executor equals gather + attention_prefill[_windowed] — and the
// written-out per-(row, head) attention — bit for bit over every KV storage
// form, FP16 accumulation on and off (with an
// off-grid head_dim of 40 in the FP16 runs), GQA groups 1/2/4, span widths
// around the 16-row tile and page boundaries, and sliding windows whose
// first span row reaches below the last row's window.
TEST(SpanAttention, BitIdenticalToGatherPrefill) {
  uint64_t seed = 100;
  for (const KvStorage& st : kStorages)
    for (const bool fp16 : {false, true})
      for (const int group : {1, 2, 4})
        for (const bool windowed : {false, true})
          for (const int64_t n : kSpanRows) {
            SpanCase c;
            c.precision = st.precision;
            c.static_scales = st.static_scales;
            c.n_kv_heads = 2;
            c.n_heads = 2 * group;
            c.head_dim = fp16 ? 40 : 32;
            c.n = n;
            c.fp16_accum = fp16;
            c.windowed = windowed;
            const SpanFixture f(c, seed++);
            const Tensor got = f.paged();
            EXPECT_TRUE(bitwise_equal(got, f.reference()))
                << st.name << " fp16=" << fp16 << " group=" << group
                << " windowed=" << windowed << " n=" << n;
            if (n <= 17) {  // the per-(row, head) oracle is slow
              EXPECT_TRUE(bitwise_equal(got, f.naive()))
                  << "naive " << st.name << " fp16=" << fp16
                  << " group=" << group << " windowed=" << windowed
                  << " n=" << n;
            }
          }
}

// A tensor-parallel shard's head range is bitwise the matching columns of
// the full reference.
TEST(SpanAttention, HeadRangesMatchFullReferenceColumns) {
  uint64_t seed = 900;
  for (const int group : {1, 2, 4})
    for (const bool windowed : {false, true})
      for (const int64_t n : {int64_t(1), int64_t(5), int64_t(40)}) {
        SpanCase c;
        c.n_kv_heads = 4;
        c.n_heads = 4 * group;
        c.n = n;
        c.fp16_accum = true;
        c.windowed = windowed;
        const SpanFixture f(c, seed++);
        const Tensor ref = f.reference();
        for (const auto& [kv0, kv1] : {std::pair{0, 1}, std::pair{1, 3},
                                       std::pair{3, 4}}) {
          EXPECT_TRUE(bitwise_equal(f.paged(kv0 * group, (kv1 - kv0) * group),
                                    ref, int64_t(kv0) * group * c.head_dim))
              << "group=" << group << " windowed=" << windowed << " n=" << n
              << " kv heads [" << kv0 << ", " << kv1 << ")";
        }
      }
}

// Each span row attends exactly like a decode row at its position: the
// k-row verify span scores every candidate with the bits of k sequential
// decode steps.
TEST(SpanAttention, SpanRowsEqualDecodeRowsAtEachPosition) {
  KvCacheConfig cfg{2, 32, 8, KvPrecision::kInt4, false, 1.0f, 1.0f, 1024};
  AttentionConfig acfg{4, 2, 32, true};
  PagedKvCache cache(cfg);
  const int seq = cache.alloc_sequence();
  const int64_t n = 6, ctx = 29;
  Rng rng(17);
  std::vector<float> k(64), v(64), q(size_t(n) * 128), span_out(q.size());
  for (auto& x : q) x = rng.normal();
  std::vector<float> decode_out(q.size());
  for (int64_t t = 0; t < ctx; ++t) {
    for (auto& x : k) x = rng.normal();
    for (auto& x : v) x = rng.normal();
    cache.append(seq, k.data(), v.data());
    // Decode the row at position t once the sequence holds [0, t].
    const int64_t i = t - (ctx - n);
    if (i >= 0)
      fused_decode_attention(cache, seq, q.data() + i * 128, acfg,
                             decode_out.data() + i * 128);
  }
  paged_attention(cache, {{seq, n, q.data(), span_out.data(), 128}}, acfg, 0,
                  4);
  for (size_t i = 0; i < q.size(); ++i)
    ASSERT_EQ(detail::bit_cast<uint32_t>(span_out[i]),
              detail::bit_cast<uint32_t>(decode_out[i]))
        << i;
}

TEST(SpanAttention, RejectsSpanWiderThanTheSequence) {
  FusedFixture s(KvPrecision::kInt4, 4, 2, 5, false, 13);
  std::vector<float> q(6 * 128), out(q.size());
  EXPECT_THROW(paged_attention(s.cache, {{s.seq, 6, q.data(), out.data(), 128}},
                               s.attn_cfg, 0, 4),
               CheckError);
}

TEST(FusedAttention, SpansMultiplePages) {
  // 37 tokens at page size 8 -> 5 pages; fused walk must cross boundaries.
  FusedFixture s(KvPrecision::kInt4, 4, 2, 37, false, 3);
  EXPECT_EQ(s.cache.pages_in_use(), 5);
  const auto a = s.fused();
  const auto b = s.reference();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(FusedAttention, ReadKvMatchesGatherEntries) {
  FusedFixture s(KvPrecision::kInt4, 4, 2, 19, false, 5);
  Tensor k, v;
  s.cache.gather(s.seq, k, v);
  std::vector<float> buf(32);
  for (int64_t t = 0; t < 19; ++t) {
    for (int h = 0; h < 2; ++h) {
      s.cache.read_k(s.seq, t, h, buf.data());
      for (int d = 0; d < 32; ++d)
        EXPECT_EQ(buf[size_t(d)], k.at2(t, h * 32 + d));
      s.cache.read_v(s.seq, t, h, buf.data());
      for (int d = 0; d < 32; ++d)
        EXPECT_EQ(buf[size_t(d)], v.at2(t, h * 32 + d));
    }
  }
}

TEST(FusedAttention, RejectsEmptySequence) {
  KvCacheConfig cfg{2, 32, 8, KvPrecision::kInt4, false, 1.0f, 1.0f, 16};
  PagedKvCache cache(cfg);
  const int seq = cache.alloc_sequence();
  AttentionConfig acfg{2, 2, 32, false};
  std::vector<float> q(64), out(64);
  EXPECT_THROW(fused_decode_attention(cache, seq, q.data(), acfg, out.data()),
               CheckError);
}

TEST(FusedAttention, RejectsMismatchedHeadDim) {
  FusedFixture s(KvPrecision::kInt4, 4, 2, 5, false, 7);
  AttentionConfig bad = s.attn_cfg;
  bad.head_dim = 64;
  std::vector<float> out(256);
  EXPECT_THROW(
      fused_decode_attention(s.cache, s.seq, s.q.data(), bad, out.data()),
      CheckError);
}

TEST(FusedAttention, ReadRejectsOutOfRangeToken) {
  FusedFixture s(KvPrecision::kInt4, 4, 2, 5, false, 9);
  std::vector<float> buf(32);
  EXPECT_THROW(s.cache.read_k(s.seq, 5, 0, buf.data()), CheckError);
  EXPECT_THROW(s.cache.read_k(s.seq, -1, 0, buf.data()), CheckError);
  EXPECT_THROW(s.cache.read_k(s.seq, 0, 2, buf.data()), CheckError);
}

}  // namespace
}  // namespace qserve
