#include "stats.h"

#include <algorithm>
#include <cmath>

namespace servebench {

std::optional<double> percentile(std::vector<double> samples, double p) {
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0 || p <= 0 || p >= 100) return std::nullopt;
  // Nearest rank: the smallest sample with at least p% of samples at or
  // below it (1-based rank k); n - k samples lie beyond it.
  const int64_t k = static_cast<int64_t>(std::ceil(p / 100.0 * double(n)));
  if (n - k < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (k - 1), samples.end());
  return samples[static_cast<size_t>(k - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / double(v.size());
}

int argmax(const float* row, int64_t n) {
  int64_t best = 0;
  for (int64_t i = 1; i < n; ++i)
    if (row[i] > row[best]) best = i;
  return static_cast<int>(best);
}

double slo_attainment(const std::vector<RequestOutcome>& sent,
                      double ttft_limit_ms, double itl_limit_ms) {
  if (sent.empty()) return 0;
  int64_t met = 0;
  for (const RequestOutcome& o : sent)
    if (o.finished_ok && o.ttft_ms <= ttft_limit_ms &&
        o.mean_itl_ms <= itl_limit_ms)
      ++met;
  return double(met) / double(sent.size());
}

}  // namespace servebench
