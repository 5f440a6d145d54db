#include "loadgen.h"

#include <algorithm>
#include <cmath>

namespace servebench {

using namespace qserve;

ModelConfig served_model_config() {
  ModelConfig cfg;
  cfg.name = "servebench";
  cfg.hidden = 512;
  cfg.n_layers = 2;
  cfg.n_heads = 8;
  cfg.n_kv_heads = 4;
  cfg.head_dim = 64;
  cfg.ffn_dim = 1024;
  cfg.vocab = 1024;
  return cfg;
}

QuantSchemeConfig served_scheme() {
  QuantSchemeConfig s = QuantSchemeConfig::qserve_w4a8kv4_g128();
  // 16-token pages per layer-sequence: 16384 pages hold 128k tokens per
  // layer, beyond the peak of any workload's batch plus prefix entries.
  s.kv_max_pages = 16384;
  return s;
}

EngineConfig served_engine_config() {
  EngineConfig cfg;
  cfg.scheduler.max_batch = 8;
  cfg.scheduler.prefill_chunk = 128;
  cfg.temperature = 0.0f;
  cfg.batched_step = true;
  cfg.prefix_caching = true;
  cfg.prefix_cache_max_entries = 64;
  return cfg;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    // Open-loop rates are about a quarter of capacity. Pooled inter-token
    // gaps cluster by the rows a step carries; at higher load the ITL median
    // sits between clusters and jumps when the host's speed shifts the
    // effective load by a few percent.
    // Dense per-token path: projection GEMMs at m = batch rows, activation
    // quantization and the LM head. Contexts stay under ~640 tokens and the
    // prefix index never hits.
    WorkloadSpec chat;
    chat.name = "chat";
    chat.prompt_min = 16;
    chat.prompt_max = 512;
    chat.prompt_log_uniform = true;
    chat.output_min = 16;
    chat.output_max = 128;
    chat.rate_rps = 2.0;
    chat.capacity_hint_rps = 8.0;
    chat.ttft_slo_ms = 250;
    chat.itl_slo_ms = 15;
    chat.accuracy_sample = 4;
    chat.isolation_sample = 2;
    v.push_back(chat);

    // Prefill, prefix lookup, KV fork / copy-on-write and KV writes: 4
    // system prompts of 1024 tokens, Zipf-skewed, plus a unique suffix.
    WorkloadSpec shared;
    shared.name = "shared_prefix";
    shared.prompt_min = 16;
    shared.prompt_max = 64;
    shared.output_min = 8;
    shared.output_max = 32;
    shared.n_system_prompts = 4;
    shared.system_prompt_len = 1024;
    shared.rate_rps = 4.0;
    shared.capacity_hint_rps = 14.5;
    shared.ttft_slo_ms = 250;
    shared.itl_slo_ms = 15;
    shared.accuracy_sample = 1;
    shared.isolation_sample = 2;
    v.push_back(shared);

    // Long INT4 KV reads every step (the KV4 memory-bound claim); half the
    // requests use a 512-token window with 16 sinks, which recycles pages.
    WorkloadSpec longd;
    longd.name = "long_decode";
    longd.prompt_min = 512;
    longd.prompt_max = 1024;
    longd.output_min = 64;
    longd.output_max = 128;
    longd.windowed_share = 0.5;
    longd.window = 512;
    longd.sinks = 16;
    longd.rate_rps = 0.4;
    longd.capacity_hint_rps = 1.6;
    longd.ttft_slo_ms = 1000;
    longd.itl_slo_ms = 25;
    longd.accuracy_sample = 1;
    longd.isolation_sample = 1;
    v.push_back(longd);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

uint64_t SplitMix64::next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() { return double(next() >> 11) * 0x1.0p-53; }

int SplitMix64::uniform_int(int lo, int hi) {
  const uint64_t span = uint64_t(int64_t(hi) - lo + 1);
  return lo + static_cast<int>(next() % span);
}

std::vector<int> SplitMix64::permutation(int n) {
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i)
    std::swap(p[static_cast<size_t>(i)],
              p[static_cast<size_t>(uniform_int(0, i))]);
  return p;
}

std::vector<double> stratified_uniforms(SplitMix64& rng, int n) {
  const std::vector<int> band = rng.permutation(n);
  std::vector<double> u(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    u[static_cast<size_t>(i)] =
        (double(band[static_cast<size_t>(i)]) + rng.uniform()) / double(n);
  return u;
}

std::vector<double> poisson_schedule(uint64_t seed, double rate_rps, int n) {
  SplitMix64 rng(seed);
  std::vector<double> t(static_cast<size_t>(n));
  double now = 0;
  const std::vector<double> u = stratified_uniforms(rng, n);
  for (int i = 0; i < n; ++i) {
    // The first request arrives at 0; gap i precedes request i + 1.
    t[static_cast<size_t>(i)] = now;
    now += -std::log1p(-u[static_cast<size_t>(i)]) / rate_rps;
  }
  return t;
}

namespace {

// Independent streams of one seed.
constexpr uint64_t kStreamSystemPrompts = 0x5157;
constexpr uint64_t kStreamSchedule = 0xA441;

uint64_t stream_seed(uint64_t seed, uint64_t stream, Phase phase) {
  SplitMix64 mix(seed ^ (stream << 20) ^ (uint64_t(phase) << 40));
  return mix.next();
}

std::vector<int> random_tokens(SplitMix64& rng, int n, int vocab) {
  std::vector<int> t(static_cast<size_t>(n));
  for (int& x : t) x = rng.uniform_int(0, vocab - 1);
  return t;
}

int stratified_length(double u, int lo, int hi, bool log_uniform) {
  if (log_uniform) {
    const double v =
        std::exp(std::log(double(lo)) +
                 u * (std::log(double(hi) + 1) - std::log(double(lo))));
    return std::clamp(static_cast<int>(v), lo, hi);
  }
  return std::min(hi, lo + static_cast<int>(u * double(hi - lo + 1)));
}

std::vector<std::vector<int>> system_prompts(const WorkloadSpec& spec,
                                             uint64_t seed) {
  const int vocab = static_cast<int>(served_model_config().vocab);
  std::vector<std::vector<int>> prompts;
  SplitMix64 rng(stream_seed(seed, kStreamSystemPrompts, Phase::kSaturation));
  for (int i = 0; i < spec.n_system_prompts; ++i)
    prompts.push_back(random_tokens(rng, spec.system_prompt_len, vocab));
  return prompts;
}

}  // namespace

std::vector<GenRequest> warmup_requests(const WorkloadSpec& spec,
                                        uint64_t seed) {
  std::vector<GenRequest> out;
  for (std::vector<int>& p : system_prompts(spec, seed)) {
    GenRequest g;
    g.prompt = std::move(p);
    g.opts.max_new_tokens = 1;
    g.system_prompt = static_cast<int>(out.size());
    out.push_back(std::move(g));
  }
  return out;
}

std::vector<GenRequest> generate_requests(const WorkloadSpec& spec,
                                          uint64_t seed, Phase phase, int n) {
  const int vocab = static_cast<int>(served_model_config().vocab);
  const std::vector<std::vector<int>> system = system_prompts(spec, seed);
  SplitMix64 rng(stream_seed(seed, 1, phase));
  const std::vector<double> u_prompt = stratified_uniforms(rng, n);
  const std::vector<double> u_output = stratified_uniforms(rng, n);
  const std::vector<double> u_system = stratified_uniforms(rng, n);
  const std::vector<double> u_window = stratified_uniforms(rng, n);
  std::vector<double> arrivals(static_cast<size_t>(n), 0.0);
  if (phase == Phase::kOpenLoop)
    arrivals = poisson_schedule(stream_seed(seed, kStreamSchedule, phase),
                                spec.rate_rps, n);

  // Zipf(1) CDF over the system prompts.
  std::vector<double> zipf_cdf;
  double zsum = 0;
  for (int i = 0; i < spec.n_system_prompts; ++i) zsum += 1.0 / (i + 1);
  double acc = 0;
  for (int i = 0; i < spec.n_system_prompts; ++i) {
    acc += 1.0 / (i + 1) / zsum;
    zipf_cdf.push_back(acc);
  }

  std::vector<GenRequest> out(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const size_t si = static_cast<size_t>(i);
    GenRequest& r = out[si];
    const int len = stratified_length(u_prompt[si], spec.prompt_min,
                                      spec.prompt_max, spec.prompt_log_uniform);
    if (spec.n_system_prompts > 0) {
      int sp = 0;
      while (sp + 1 < spec.n_system_prompts &&
             u_system[si] >= zipf_cdf[static_cast<size_t>(sp)])
        ++sp;
      r.system_prompt = sp;
      r.prompt = system[static_cast<size_t>(sp)];
    }
    const std::vector<int> own = random_tokens(rng, len, vocab);
    r.prompt.insert(r.prompt.end(), own.begin(), own.end());
    r.opts.max_new_tokens =
        stratified_length(u_output[si], spec.output_min, spec.output_max,
                          /*log_uniform=*/false);
    if (u_window[si] < spec.windowed_share) {
      r.opts.attention_window = spec.window;
      r.opts.sink_tokens = spec.sinks;
    }
    r.arrival_s = arrivals[si];
  }
  return out;
}

}  // namespace servebench
