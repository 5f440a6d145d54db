// Batched step executor: bitwise identity between the batched engine path
// (one forward_step per engine step across all requests) and the per-request
// reference path, across ISAs and thread counts; streaming-callback ordering;
// loud construction-time config validation; batched-GEMM occupancy stats.
#include <gtest/gtest.h>

#include <map>

#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/cpu/isa.h"
#include "serving/engine.h"

namespace qserve {
namespace {

struct Fixture {
  ModelWeights weights;
  Fixture() : weights(make_synthetic_weights(toy_config(1))) {}
};

const Fixture& fixture() {
  static Fixture* f = new Fixture();
  return *f;
}

struct Workload {
  std::vector<std::vector<int>> prompts;
  std::vector<int> max_new;
};

Workload random_workload(Rng& rng, int n_requests) {
  Workload w;
  for (int i = 0; i < n_requests; ++i) {
    std::vector<int> prompt(static_cast<size_t>(rng.uniform_int(1, 24)));
    for (auto& t : prompt) t = rng.uniform_int(0, 511);
    w.prompts.push_back(std::move(prompt));
    w.max_new.push_back(rng.uniform_int(1, 10));
  }
  return w;
}

std::vector<std::vector<int>> run_engine(const Workload& w,
                                         const EngineConfig& cfg) {
  QuantizedModel model(fixture().weights,
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  ServingEngine engine(&model, cfg);
  std::vector<int> ids;
  for (size_t i = 0; i < w.prompts.size(); ++i)
    ids.push_back(engine.submit(w.prompts[i], w.max_new[i]));
  engine.run_to_completion();
  std::vector<std::vector<int>> out;
  for (int id : ids) out.push_back(engine.request(id).generated);
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
  return out;
}

// --- model-level identity ----------------------------------------------------

TEST(QuantizedModel, ForwardStepMatchesSequentialCallsBitwise) {
  // One batched step mixing two decode rows and two prefill chunks must
  // reproduce the logits AND the KV state of per-sequence prefill_chunk /
  // decode_step calls exactly.
  const auto& f = fixture();
  QuantizedModel seq_m(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  QuantizedModel bat_m(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());

  const std::vector<int> ctx_a = {3, 1, 4, 1, 5}, ctx_b = {9, 2, 6};
  const std::vector<int> pre_c = {2, 7, 1, 8, 2, 8}, pre_d = {11, 13};

  // Sequences a/b are mid-decode (context prefilled); c/d start prefilling.
  int sa = seq_m.begin_sequence(), sb = seq_m.begin_sequence(),
      sc = seq_m.begin_sequence(), sd = seq_m.begin_sequence();
  int ba = bat_m.begin_sequence(), bb = bat_m.begin_sequence(),
      bc = bat_m.begin_sequence(), bd = bat_m.begin_sequence();
  seq_m.prefill(sa, ctx_a);
  seq_m.prefill(sb, ctx_b);
  bat_m.prefill(ba, ctx_a);
  bat_m.prefill(bb, ctx_b);

  const Tensor la = seq_m.decode_step(sa, 42);
  const Tensor lb = seq_m.decode_step(sb, 17);
  const Tensor lc = seq_m.prefill_chunk(sc, pre_c, 0);
  const Tensor ld = seq_m.prefill_chunk(sd, pre_d, 0);

  BatchedStep step;
  step.chunks.push_back({ba, {42}, 5});
  step.chunks.push_back({bb, {17}, 3});
  step.chunks.push_back({bc, pre_c, 0});
  step.chunks.push_back({bd, pre_d, 0});
  const Tensor batched = bat_m.forward_step(step);

  ASSERT_EQ(batched.rows(), 4);
  const Tensor* expect[] = {&la, &lb, &lc, &ld};
  for (int i = 0; i < 4; ++i)
    for (int64_t v = 0; v < batched.cols(); ++v)
      ASSERT_EQ(batched.at2(i, v), (*expect[i])[v]) << "chunk " << i;

  // The KV state written by the batched scatter must continue identically.
  const Tensor na = seq_m.decode_step(sa, 100);
  BatchedStep next;
  next.chunks.push_back({ba, {100}, 6});
  const Tensor nb = bat_m.forward_step(next);
  for (int64_t v = 0; v < na.numel(); ++v) ASSERT_EQ(nb.at2(0, v), na[v]);
}

TEST(QuantizedModel, ForwardStepValidatesChunks) {
  const auto& f = fixture();
  QuantizedModel m(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int s = m.begin_sequence();
  EXPECT_THROW(m.forward_step({}), CheckError);  // no chunks
  BatchedStep dup;
  dup.chunks.push_back({s, {1}, 0});
  dup.chunks.push_back({s, {2}, 0});  // same sequence twice
  EXPECT_THROW(m.forward_step(dup), CheckError);
  BatchedStep bad_pos;
  bad_pos.chunks.push_back({s, {1}, 3});  // pos0 != seq_pos
  EXPECT_THROW(m.forward_step(bad_pos), CheckError);
  BatchedStep bad_tok;
  // Token id out of vocab range.
  bad_tok.chunks.push_back({s, {static_cast<int>(m.config().vocab)}, 0});
  EXPECT_THROW(m.forward_step(bad_tok), CheckError);
}

// --- engine-level identity across ISAs and thread counts ---------------------

TEST(ServingEngineBatched, MatchesPerRequestBitwiseAcrossIsasAndThreads) {
  // Randomized mixed decode+prefill batches: with a small prefill chunk and
  // staggered lengths, most steps stack decode rows from some requests with
  // prefill chunks from others. The batched executor's streams must equal
  // the per-request path's bitwise — greedy and sampled — for every ISA the
  // host can run (requests above detected_isa() clamp down, so the pair
  // stays self-consistent) and at 1 and 8 threads.
  Rng rng(1234);
  const Workload w = random_workload(rng, 6);
  for (const cpu::Isa isa :
       {cpu::Isa::kScalar, cpu::Isa::kAvx2, cpu::Isa::kAvx512}) {
    cpu::set_isa(isa);
    for (const int threads : {1, 8}) {
      set_num_threads(threads);
      for (const float temperature : {0.0f, 0.8f}) {
        EngineConfig cfg;
        cfg.scheduler.max_batch = 4;
        cfg.scheduler.prefill_chunk = 8;
        cfg.temperature = temperature;
        cfg.batched_step = false;
        const auto sequential = run_engine(w, cfg);
        cfg.batched_step = true;
        const auto batched = run_engine(w, cfg);
        EXPECT_EQ(sequential, batched)
            << "isa=" << cpu::isa_name(isa) << " threads=" << threads
            << " temperature=" << temperature;
      }
    }
  }
  set_num_threads(0);
  cpu::clear_isa_override();
}

TEST(ServingEngineBatched, PreemptionChurnMatchesPerRequestPath) {
  // A 3-page pool forces eviction + re-prefill; the batched path must take
  // the same scheduling decisions and produce the same streams.
  Rng rng(99);
  Workload w;
  for (int i = 0; i < 3; ++i) {
    std::vector<int> prompt(8, 2 + i);
    w.prompts.push_back(prompt);
    w.max_new.push_back(18 + 4 * i);
  }
  auto run = [&](bool batched) {
    QuantSchemeConfig scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
    scheme.kv_max_pages = 3;
    QuantizedModel model(fixture().weights, scheme);
    EngineConfig cfg;
    cfg.scheduler.max_batch = 4;
    cfg.batched_step = batched;
    ServingEngine engine(&model, cfg);
    std::vector<int> ids;
    for (size_t i = 0; i < w.prompts.size(); ++i)
      ids.push_back(engine.submit(w.prompts[i], w.max_new[i]));
    const EngineStats stats = engine.run_to_completion();
    EXPECT_GE(stats.preemptions, 1);
    std::vector<std::vector<int>> out;
    for (int id : ids) out.push_back(engine.request(id).generated);
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

// --- streaming API -----------------------------------------------------------

TEST(ServingEngineBatched, StreamingCallbacksArriveInOrderFinishOnce) {
  const auto& f = fixture();
  QuantizedModel model(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 3;
  ServingEngine engine(&model, cfg);

  std::map<int, std::vector<int>> streamed;
  std::map<int, int> finishes;
  std::map<int, bool> finished_before_token;
  auto submit_streaming = [&](std::vector<int> prompt, int max_new) {
    RequestOptions opts;
    opts.max_new_tokens = max_new;
    return engine.submit(
        std::move(prompt), opts,
        [&](const Request& r, int token) {
          // Tokens arrive in stream order, after being appended, and never
          // after the finish callback.
          EXPECT_FALSE(finished_before_token[r.id]);
          EXPECT_EQ(r.generated.back(), token);
          streamed[r.id].push_back(token);
          EXPECT_EQ(streamed[r.id].size(), r.generated.size());
        },
        [&](const Request& r) {
          ++finishes[r.id];
          finished_before_token[r.id] = true;
          EXPECT_TRUE(r.done());
        });
  };
  const int a = submit_streaming({1, 2, 3}, 5);
  const int b = submit_streaming({5, 6}, 3);
  const int c = submit_streaming({7, 8, 9, 10}, 1);
  engine.drain();

  for (int id : {a, b, c}) {
    EXPECT_EQ(streamed[id], engine.request(id).generated);
    EXPECT_EQ(finishes[id], 1);  // finish fires exactly once
  }
  EXPECT_EQ(streamed[a].size(), 5u);
  EXPECT_EQ(streamed[b].size(), 3u);
  EXPECT_EQ(streamed[c].size(), 1u);
}

TEST(ServingEngineBatched, StreamingSurvivesPreemption) {
  // Preemption re-prefills prompt + generated; already-delivered tokens must
  // NOT be re-delivered through on_token.
  QuantSchemeConfig scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  scheme.kv_max_pages = 3;
  QuantizedModel model(fixture().weights, scheme);
  EngineConfig cfg;
  cfg.scheduler.max_batch = 4;
  ServingEngine engine(&model, cfg);
  std::map<int, std::vector<int>> streamed;
  RequestOptions opts;
  std::vector<int> ids;
  for (int i = 0; i < 2; ++i) {
    opts.max_new_tokens = 20 + 10 * i;
    ids.push_back(engine.submit(
        std::vector<int>(8, 2 + i), opts,
        [&](const Request& r, int token) { streamed[r.id].push_back(token); },
        nullptr));
  }
  const EngineStats stats = engine.drain();
  EXPECT_GE(stats.preemptions, 1);
  for (int id : ids) EXPECT_EQ(streamed[id], engine.request(id).generated);
}

// --- config validation -------------------------------------------------------

TEST(Validation, BadEngineAndSchedulerConfigsThrowAtConstruction) {
  const auto& f = fixture();
  QuantizedModel model(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  {
    EngineConfig bad;
    bad.temperature = -0.5f;
    EXPECT_THROW(ServingEngine(&model, bad), CheckError);
  }
  {
    EngineConfig bad;
    bad.scheduler.prefill_chunk = 0;
    EXPECT_THROW(ServingEngine(&model, bad), CheckError);
  }
  {
    EngineConfig bad;
    bad.scheduler.max_batch = -1;
    EXPECT_THROW(ServingEngine(&model, bad), CheckError);
  }
  EXPECT_THROW(Scheduler({.max_batch = 1, .prefill_chunk = 1}, /*page_size=*/0,
                         /*n_layers=*/1),
               CheckError);
  EXPECT_THROW(Scheduler({.max_batch = 1, .prefill_chunk = 1}, /*page_size=*/16,
                         /*n_layers=*/0),
               CheckError);
}

TEST(Validation, BadSchemeConfigsThrowAtConstruction) {
  const auto& f = fixture();
  {
    QuantSchemeConfig bad = QuantSchemeConfig::qserve_w4a8kv4_g128();
    bad.kv_max_pages = 0;
    EXPECT_THROW(QuantizedModel(f.weights, bad), CheckError);
  }
  {
    QuantSchemeConfig bad = QuantSchemeConfig::qserve_w4a8kv4_g128();
    bad.group = 0;
    EXPECT_THROW(QuantizedModel(f.weights, bad), CheckError);
  }
  {
    QuantSchemeConfig bad = QuantSchemeConfig::qserve_w4a8kv4_g128();
    bad.level1_range = 0;
    EXPECT_THROW(QuantizedModel(f.weights, bad), CheckError);
  }
  {
    QuantSchemeConfig bad = QuantSchemeConfig::qserve_w4a8kv4_g128();
    bad.level1_range = 128;
    EXPECT_THROW(QuantizedModel(f.weights, bad), CheckError);
  }
}

// --- batch occupancy stats ---------------------------------------------------

TEST(ServingEngineBatched, BatchTokenStatsCountRowsNotRequests) {
  const auto& f = fixture();
  QuantizedModel model(f.weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 3;
  ServingEngine engine(&model, cfg);
  for (int i = 0; i < 3; ++i) engine.submit(std::vector<int>(8, 1 + i), 4);
  const EngineStats stats = engine.run_to_completion();
  // Step 1 stacks 3 prefill chunks of 8 rows; steps 2-4 stack 3 decode rows.
  EXPECT_EQ(stats.peak_batch, 3);              // requests
  EXPECT_EQ(stats.peak_batch_tokens, 24);      // rows
  EXPECT_EQ(stats.steps, 4);
  EXPECT_EQ(stats.step_tokens, 24 + 9);
  EXPECT_DOUBLE_EQ(stats.mean_tokens_per_step, 33.0 / 4.0);
}

TEST(ServingEngineBatched, PlainEngineCountsDecodeAsSpeculationAtKZero) {
  // Plain decode is the speculative step with k = 0 (lookahead_k is inert
  // without a draft model): every decode row is a 1-token verify span with
  // nothing proposed or accepted. A 3-page pool forces preemption, whose
  // re-prefill completions count as decode tokens without a verify forward.
  QuantSchemeConfig scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  scheme.kv_max_pages = 3;
  QuantizedModel model(fixture().weights, scheme);
  EngineConfig cfg;
  cfg.scheduler.max_batch = 4;
  cfg.speculative.lookahead_k = 4;
  ServingEngine engine(&model, cfg);
  for (int i = 0; i < 3; ++i) engine.submit(std::vector<int>(8, 2 + i), 18);
  const EngineStats stats = engine.run_to_completion();
  ASSERT_GE(stats.preemptions, 1);
  EXPECT_EQ(stats.proposed_tokens, 0);
  EXPECT_EQ(stats.accepted_tokens, 0);
  EXPECT_DOUBLE_EQ(stats.acceptance_rate, 0.0);
  // Every executed row is a prefill-chunk row or a decode row.
  EXPECT_EQ(stats.verify_forwards, stats.step_tokens - stats.prefill_tokens);
  EXPECT_GT(stats.speculative_steps, 0);
  EXPECT_LE(stats.speculative_steps, stats.steps);
  EXPECT_GT(stats.target_forwards_per_decode_token, 0.0);
  EXPECT_LE(stats.target_forwards_per_decode_token, 1.0);
}

}  // namespace
}  // namespace qserve