// Cross-ISA equivalence of the attention microkernel subsystem: the scalar,
// AVX2 and AVX-512 paths must produce bitwise-identical attention outputs —
// and identical engine token streams — for every KV storage form
// (INT4/INT8 dynamic, INT8 static-scale, FP16), odd sequence lengths that
// cross page boundaries, GQA head ratios, head_dims off the 16-lane grid,
// and FP16-accumulation on/off. Also pins the batched decode executor to the
// per-sequence path under preemption churn, the one-dispatch-per-layer
// counter contract, and the QSERVE_ISA override plumbing.
#include <cstdlib>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/attention.h"
#include "kernels/cpu/attention_kernel.h"
#include "kernels/cpu/isa.h"
#include "kvcache/fused_attention.h"
#include "model/quantized_model.h"
#include "model/weights.h"
#include "serving/engine.h"

namespace qserve {
namespace {

using cpu::Isa;

// RAII: pin an ISA for a scope, always return control to env/detection.
struct IsaGuard {
  explicit IsaGuard(Isa isa) { cpu::set_isa(isa); }
  ~IsaGuard() { cpu::clear_isa_override(); }
};

std::vector<Isa> supported_isas() {
  std::vector<Isa> v{Isa::kScalar};
  if (static_cast<int>(cpu::detected_isa()) >= static_cast<int>(Isa::kAvx2))
    v.push_back(Isa::kAvx2);
  if (static_cast<int>(cpu::detected_isa()) >= static_cast<int>(Isa::kAvx512))
    v.push_back(Isa::kAvx512);
  return v;
}

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b, const char* tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << tag << " element " << i;
}

// A populated quantized KV cache + query, parameterized over every axis the
// kernels dispatch on. page_size 8 keeps several page runs in play; token
// counts that are not multiples of 8 make the last run a partial page.
struct CacheFixture {
  KvCacheConfig ccfg;
  AttentionConfig acfg;
  PagedKvCache cache;
  int seq;
  std::vector<float> q;

  CacheFixture(KvPrecision p, bool static_scales, int n_heads, int n_kv_heads,
               int head_dim, int tokens, bool fp16_accum, uint64_t seed)
      : ccfg{n_kv_heads, head_dim, 8, p, static_scales, 0.25f, 0.5f, 4096},
        acfg{n_heads, n_kv_heads, head_dim, fp16_accum},
        cache(ccfg),
        seq(cache.alloc_sequence()) {
    Rng rng(seed);
    const size_t span = static_cast<size_t>(n_kv_heads) * head_dim;
    std::vector<float> k(span), v(span);
    for (int t = 0; t < tokens; ++t) {
      for (auto& x : k) x = rng.normal();
      for (auto& x : v) x = rng.normal();
      k[0] = 9.0f;  // persistent outlier channel, like real Keys
      cache.append(seq, k.data(), v.data());
    }
    q.resize(static_cast<size_t>(n_heads) * head_dim);
    for (auto& x : q) x = rng.normal();
  }

  std::vector<float> fused() const {
    std::vector<float> out(q.size());
    fused_decode_attention(cache, seq, q.data(), acfg, out.data());
    return out;
  }

  std::vector<float> gather_reference() const {
    Tensor k, v;
    cache.gather(seq, k, v);
    std::vector<float> out(q.size());
    attention_decode_token(q.data(), k, v, acfg, out.data());
    return out;
  }
};

struct KvForm {
  KvPrecision precision;
  bool static_scales;
  const char* name;
};

const KvForm kKvForms[] = {
    {KvPrecision::kInt4, false, "int4"},
    {KvPrecision::kInt8, false, "int8"},
    {KvPrecision::kInt8, true, "int8_static"},
    {KvPrecision::kFp16, false, "fp16"},
};

TEST(AttentionIsaEquivalence, FusedBitwiseAcrossIsasAllKvForms) {
  uint64_t seed = 50;
  for (const KvForm& f : kKvForms) {
    for (const auto& [n_heads, n_kv_heads] : {std::pair{4, 4},
                                              std::pair{8, 2},
                                              std::pair{6, 3}}) {
      for (const bool fp16 : {false, true}) {
        // 37 tokens at page size 8: 4 full page runs + a 5-token tail run.
        CacheFixture s(f.precision, f.static_scales, n_heads, n_kv_heads, 32,
                       37, fp16, seed++);
        std::vector<float> ref;
        {
          IsaGuard guard(Isa::kScalar);
          ref = s.fused();
        }
        for (Isa isa : supported_isas()) {
          IsaGuard guard(isa);
          SCOPED_TRACE(std::string(f.name) + " heads=" +
                       std::to_string(n_heads) + "/" +
                       std::to_string(n_kv_heads) + " fp16=" +
                       std::to_string(fp16) + " isa=" + cpu::isa_name(isa));
          expect_bitwise_equal(ref, s.fused(), "fused");
          // Cross-path: every ISA's fused result must also equal the
          // gather-then-attend reference (itself running on `isa`).
          expect_bitwise_equal(ref, s.gather_reference(), "gather");
        }
      }
    }
  }
}

TEST(AttentionIsaEquivalence, HeadDimsOffTheLaneGrid) {
  // head_dim 24 exercises the 8-element scalar tail after one 16-lane block;
  // head_dim 8 never enters the vector loop at all. Both must match scalar
  // bitwise (the tails walk the same virtual lanes).
  uint64_t seed = 150;
  for (const int head_dim : {8, 24, 48}) {
    for (const KvForm& f : kKvForms) {
      CacheFixture s(f.precision, f.static_scales, 4, 2, head_dim, 21, true,
                     seed++);
      std::vector<float> ref;
      {
        IsaGuard guard(Isa::kScalar);
        ref = s.fused();
      }
      for (Isa isa : supported_isas()) {
        IsaGuard guard(isa);
        SCOPED_TRACE(std::string(f.name) + " head_dim=" +
                     std::to_string(head_dim) + " isa=" + cpu::isa_name(isa));
        expect_bitwise_equal(ref, s.fused(), "odd_head_dim");
        expect_bitwise_equal(ref, s.gather_reference(), "odd_head_dim_gather");
      }
    }
  }
}

TEST(AttentionIsaEquivalence, PrefillGatherPathAcrossIsas) {
  // The float-KV (gather) path runs the same kernels via kF32 runs: a causal
  // prefill over random K/V must be bitwise identical on every ISA.
  Rng rng(77);
  const AttentionConfig cfg{6, 3, 24, true};
  const int64_t n = 9, s = 13;
  Tensor q({n, int64_t(cfg.n_heads) * cfg.head_dim});
  Tensor k({s, int64_t(cfg.n_kv_heads) * cfg.head_dim});
  Tensor v({s, int64_t(cfg.n_kv_heads) * cfg.head_dim});
  for (int64_t i = 0; i < q.numel(); ++i) q[i] = rng.normal();
  for (int64_t i = 0; i < k.numel(); ++i) k[i] = rng.normal();
  for (int64_t i = 0; i < v.numel(); ++i) v[i] = rng.normal();

  Tensor ref;
  {
    IsaGuard guard(Isa::kScalar);
    ref = attention_prefill(q, k, v, cfg);
  }
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    const Tensor got = attention_prefill(q, k, v, cfg);
    SCOPED_TRACE(cpu::isa_name(isa));
    ASSERT_TRUE(ref.same_shape(got));
    for (int64_t i = 0; i < ref.numel(); ++i) ASSERT_EQ(ref[i], got[i]) << i;
  }
}

TEST(AttentionIsaEquivalence, BatchedMatchesPerSequenceUnderChurn) {
  // Several sequences of different odd lengths, with free/realloc churn so
  // later sequences land on recycled pages out of allocation order — the
  // preemption pattern. The batched executor must reproduce per-sequence
  // fused_decode_attention bitwise on every ISA.
  for (const KvForm& f : kKvForms) {
    KvCacheConfig ccfg{2, 32, 8, f.precision, f.static_scales,
                       0.25f, 0.5f, 4096};
    const AttentionConfig acfg{4, 2, 32, true};
    PagedKvCache cache(ccfg);
    Rng rng(901);
    const size_t span = static_cast<size_t>(ccfg.n_kv_heads) * ccfg.head_dim;
    std::vector<float> kb(span), vb(span);
    auto fill = [&](int seq, int tokens) {
      for (int t = 0; t < tokens; ++t) {
        for (auto& x : kb) x = rng.normal();
        for (auto& x : vb) x = rng.normal();
        cache.append(seq, kb.data(), vb.data());
      }
    };
    // Churn: a and b claim pages, a is preempted, c/d/e reuse its pages.
    const int a = cache.alloc_sequence();
    fill(a, 20);
    const int b = cache.alloc_sequence();
    fill(b, 37);
    cache.free_sequence(a);
    const int c = cache.alloc_sequence();
    fill(c, 11);
    const int d = cache.alloc_sequence();
    fill(d, 1);
    const int e = cache.alloc_sequence();
    fill(e, 9);
    const std::vector<int> live = {b, c, d, e};

    const size_t hd = static_cast<size_t>(acfg.n_heads) * acfg.head_dim;
    std::vector<std::vector<float>> qs;
    for (size_t i = 0; i < live.size(); ++i) {
      qs.emplace_back(hd);
      for (auto& x : qs.back()) x = rng.normal();
    }

    std::vector<float> ref;  // scalar per-sequence results, concatenated
    {
      IsaGuard guard(Isa::kScalar);
      ref.resize(hd * live.size());
      for (size_t i = 0; i < live.size(); ++i)
        fused_decode_attention(cache, live[i], qs[i].data(), acfg,
                               ref.data() + i * hd);
    }
    for (Isa isa : supported_isas()) {
      IsaGuard guard(isa);
      SCOPED_TRACE(std::string(f.name) + " isa=" + cpu::isa_name(isa));
      std::vector<float> got(hd * live.size());
      std::vector<DecodeAttentionItem> items;
      for (size_t i = 0; i < live.size(); ++i)
        items.push_back({live[i], qs[i].data(), got.data() + i * hd});
      batched_fused_decode_attention(cache, items, acfg);
      expect_bitwise_equal(ref, got, "batched_vs_per_seq");
    }
  }
}

// --- model / engine level ----------------------------------------------------

const ModelWeights& toy_weights() {
  static ModelWeights* w =
      new ModelWeights(make_synthetic_weights(toy_config(2)));
  return *w;
}

TEST(BatchedAttentionExecutor, OneDispatchPerLayerPerStep) {
  // Pinned to one shard: a sharded model dispatches once per shard.
  QuantizedModel m(toy_weights(), QuantSchemeConfig::qserve_w4a8kv4_g128(),
                   TpConfig{1});
  const int n_layers = m.config().n_layers;

  std::vector<int> seqs;
  for (int i = 0; i < 3; ++i) {
    const int s = m.begin_sequence();
    m.prefill(s, {3, 1, 4, 1, 5});
    seqs.push_back(s);
  }
  // Prefill is a single multi-row span per step: no batched-decode dispatch.
  EXPECT_EQ(0, m.batched_attention_calls());
  EXPECT_GT(m.attention_seconds(), 0.0);

  // One step with 3 decode rows: exactly one batched dispatch per layer
  // covering all 3 sequences — never a per-sequence fan-out.
  BatchedStep step;
  for (const int s : seqs)
    step.chunks.push_back({s, {7}, static_cast<int>(m.seq_pos(s)), 1});
  m.forward_step(step);
  EXPECT_EQ(n_layers, m.batched_attention_calls());
  EXPECT_EQ(int64_t(3) * n_layers, m.decode_attention_items());

  // A lone decode_step still goes through the batched executor (1 item).
  m.decode_step(seqs[0], 9);
  EXPECT_EQ(2 * n_layers, m.batched_attention_calls());
  EXPECT_EQ(int64_t(3 + 1) * n_layers, m.decode_attention_items());
}

struct EngineRun {
  std::vector<std::vector<int>> streams;
  EngineStats stats;
};

EngineRun run_workload(bool speculative) {
  QuantizedModel model(toy_weights(),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  std::unique_ptr<QuantizedModel> draft;
  if (speculative)
    draft = std::make_unique<QuantizedModel>(
        toy_weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 3;
  cfg.scheduler.prefill_chunk = 8;
  cfg.speculative.lookahead_k = 3;
  ServingEngine engine(&model, draft.get(), cfg);

  Rng rng(31);
  std::vector<int> ids;
  for (int i = 0; i < 5; ++i) {
    std::vector<int> prompt(static_cast<size_t>(rng.uniform_int(1, 20)));
    for (auto& t : prompt) t = rng.uniform_int(0, 511);
    ids.push_back(engine.submit(prompt, rng.uniform_int(1, 8)));
  }
  EngineRun out;
  out.stats = engine.run_to_completion();
  for (int id : ids) out.streams.push_back(engine.request(id).generated);
  return out;
}

TEST(AttentionIsaEquivalence, EngineTokenStreamsIdenticalAcrossIsas) {
  for (const bool speculative : {false, true}) {
    std::vector<std::vector<int>> ref;
    {
      IsaGuard guard(Isa::kScalar);
      ref = run_workload(speculative).streams;
    }
    for (Isa isa : supported_isas()) {
      IsaGuard guard(isa);
      SCOPED_TRACE(std::string(speculative ? "spec" : "batched") + " isa=" +
                   cpu::isa_name(isa));
      EXPECT_EQ(ref, run_workload(speculative).streams);
    }
  }
}

TEST(EngineStats, AttentionSecondsSplitOutOfStepTime) {
  const EngineRun r = run_workload(/*speculative=*/false);
  EXPECT_GT(r.stats.attention_seconds, 0.0);
  EXPECT_GT(r.stats.attention_share, 0.0);
  EXPECT_LE(r.stats.attention_share, 1.0);
  EXPECT_LE(r.stats.attention_seconds, r.stats.wall_seconds);
}

// --- validation --------------------------------------------------------------

TEST(AttentionConfigValidation, RejectsBadShapesLoudly) {
  EXPECT_NO_THROW((AttentionConfig{8, 2, 64, false}).validate());
  EXPECT_THROW((AttentionConfig{0, 1, 64, false}).validate(), CheckError);
  EXPECT_THROW((AttentionConfig{8, 0, 64, false}).validate(), CheckError);
  EXPECT_THROW((AttentionConfig{8, 8, 0, false}).validate(), CheckError);
  EXPECT_THROW((AttentionConfig{8, 3, 64, false}).validate(), CheckError);
  // Odd head_dim is fine for float/INT8 KV but not for nibble-packed INT4.
  EXPECT_NO_THROW((AttentionConfig{4, 4, 33, false}).validate(false));
  EXPECT_THROW((AttentionConfig{4, 4, 33, false}).validate(true), CheckError);
}

// --- dispatch plumbing -------------------------------------------------------

TEST(AttentionIsaDispatch, KernelTableIsConsistent) {
  for (Isa isa : supported_isas()) {
    const cpu::AttentionKernels& ker = cpu::attention_kernel_for(isa);
    EXPECT_EQ(isa, ker.isa) << cpu::isa_name(isa);
    EXPECT_NE(nullptr, ker.qk_dot);
    EXPECT_NE(nullptr, ker.sv_accum);
  }
  // Unsupported ISAs resolve to a usable kernel rather than nullptr.
  const cpu::AttentionKernels& fallback =
      cpu::attention_kernel_for(Isa::kAvx512);
  EXPECT_NE(nullptr, fallback.qk_dot);
}

TEST(AttentionIsaDispatch, EnvOverridePinsTheFusedKernel) {
  CacheFixture s(KvPrecision::kInt4, false, 4, 2, 32, 19, true, 999);
  std::vector<float> scalar_ref;
  {
    IsaGuard guard(Isa::kScalar);
    scalar_ref = s.fused();
  }
  cpu::clear_isa_override();
  ASSERT_EQ(0, setenv("QSERVE_ISA", "scalar", 1));
  EXPECT_EQ(Isa::kScalar, cpu::active_isa());
  expect_bitwise_equal(scalar_ref, s.fused(), "env_scalar");
  // Requests above the host's capability clamp down instead of faulting.
  ASSERT_EQ(0, setenv("QSERVE_ISA", "avx512", 1));
  expect_bitwise_equal(scalar_ref, s.fused(), "env_clamped");
  ASSERT_EQ(0, unsetenv("QSERVE_ISA"));
}

}  // namespace
}  // namespace qserve
