// Summary statistics with the benchmark's reporting rules.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace servebench {

// Samples a percentile must leave beyond itself before it is reported.
constexpr int64_t kMinTailSamples = 10;

// Nearest-rank percentile p (0 < p < 100) of `samples`, or nullopt when
// fewer than kMinTailSamples samples lie beyond it: p50 needs >= 20 samples,
// p90 >= 100, p99 >= 1000.
std::optional<double> percentile(std::vector<double> samples, double p);

double mean(const std::vector<double>& v);

// Index of the largest of n values (the first on ties): a greedy sample.
int argmax(const float* row, int64_t n);

// Outcome of one sent request, as the SLO sees it.
struct RequestOutcome {
  bool finished_ok = false;  // finished exactly once with FinishReason::kLength
  double ttft_ms = 0;
  double mean_itl_ms = 0;    // 0 for a single-token output
};

// Share of requests *sent* that finished successfully with TTFT <= the TTFT
// limit and mean inter-token latency <= the ITL limit. A failed request is a
// miss whatever its latencies.
double slo_attainment(const std::vector<RequestOutcome>& sent,
                      double ttft_limit_ms, double itl_limit_ms);

}  // namespace servebench
