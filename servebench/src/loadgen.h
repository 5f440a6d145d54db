// Seeded traffic generation: the served model and engine configuration, the
// three workloads, and their request lists and arrival schedules. The engine
// receives only the generated token lists and RequestOptions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/config.h"
#include "model/quantized_model.h"
#include "serving/engine.h"

namespace servebench {

// Thread-pool size pinned for every run. One thread: the work clock (see
// Tracer) is the serving thread's CPU time, which covers a step's whole work
// only when no pool worker shares it.
constexpr int kPoolThreads = 1;

// The served model: the bench_serving_batched shape. Its ~5 MB of packed
// layer weights exceed a 2 MiB per-core L2, so decode GEMMs stream weights.
qserve::ModelConfig served_model_config();
qserve::QuantSchemeConfig served_scheme();
// Scheduler defaults (max_batch 8, prefill_chunk 128), prefix caching on,
// greedy sampling; the KV pool (served_scheme) is sized so no workload
// preempts.
qserve::EngineConfig served_engine_config();

struct WorkloadSpec {
  std::string name;
  // Prompt length range; log-uniform when prompt_log_uniform, else uniform.
  // For shared-prefix traffic this is the unique suffix after the system
  // prompt.
  int prompt_min = 0, prompt_max = 0;
  bool prompt_log_uniform = false;
  int output_min = 0, output_max = 0;
  // Shared system prompts (0 = unshared): each prompt starts with one of
  // n_system_prompts prompts of system_prompt_len tokens, chosen with
  // Zipf(1) skew.
  int n_system_prompts = 0;
  int system_prompt_len = 0;
  // Share of requests carrying a sliding window with attention sinks.
  double windowed_share = 0;
  int64_t window = 0, sinks = 0;
  // Open-loop Poisson arrival rate, and the saturation-phase throughput it
  // was chosen against (sizes both phases to their time shares).
  double rate_rps = 0;
  double capacity_hint_rps = 0;
  // SLO limits: TTFT, and the mean inter-token latency of a request.
  double ttft_slo_ms = 0;
  double itl_slo_ms = 0;
  // Requests checked against the FP32 reference and against an isolated
  // batch-1 engine.
  int accuracy_sample = 0;
  int isolation_sample = 0;
};

const std::vector<WorkloadSpec>& workloads();
// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

// SplitMix64: a small, fully specified generator, so a seed produces the
// same traffic with any standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t next();
  double uniform();  // [0, 1)
  int uniform_int(int lo, int hi);  // inclusive
  // Fisher-Yates permutation of [0, n).
  std::vector<int> permutation(int n);

 private:
  uint64_t state_;
};

// n draws u_i in [0, 1) by stratified sampling: exactly one draw falls in
// each band [j/n, (j+1)/n), in seeded random order. Each draw is uniform on
// [0, 1); the sample's spread across the range is fixed, which keeps run-to-
// run totals (work per phase, arrival span) steady.
std::vector<double> stratified_uniforms(SplitMix64& rng, int n);

// Arrival times (seconds from phase start) of n requests in an open-loop
// Poisson process of `rate_rps`: exponential inter-arrival gaps, drawn
// stratified. The same seed gives the same schedule.
std::vector<double> poisson_schedule(uint64_t seed, double rate_rps, int n);

struct GenRequest {
  std::vector<int> prompt;
  qserve::RequestOptions opts;
  double arrival_s = 0;     // scheduled arrival, from phase start
  int system_prompt = -1;   // shared-prefix workloads only
};

// Which traffic a request list is drawn for; each phase draws from its own
// stream of the seed.
enum class Phase { kSaturation = 0, kOpenLoop = 1 };

// n requests of `spec` for `phase`. Open-loop requests carry their Poisson
// arrival times; saturation requests all arrive at 0. System prompts depend
// on the seed only, so both phases share them.
std::vector<GenRequest> generate_requests(const WorkloadSpec& spec,
                                          uint64_t seed, Phase phase, int n);

// One request per system prompt (the prompt alone, one output token). Served
// before each phase's clock starts, they fill the prefix cache the way a
// server with stable system prompts runs warm; empty for unshared traffic.
std::vector<GenRequest> warmup_requests(const WorkloadSpec& spec,
                                        uint64_t seed);

}  // namespace servebench
