// Tests of the benchmark's own logic: the percentile reporting rule, seeded
// schedules and traffic, SLO accounting, span self time and the work clock.
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "loadgen.h"
#include "stats.h"
#include "trace.h"

namespace servebench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(percentile(one_to(19), 50).has_value());
  ASSERT_TRUE(percentile(one_to(20), 50).has_value());
  EXPECT_DOUBLE_EQ(*percentile(one_to(20), 50), 10.0);
  EXPECT_FALSE(percentile(one_to(99), 90).has_value());
  ASSERT_TRUE(percentile(one_to(100), 90).has_value());
  EXPECT_DOUBLE_EQ(*percentile(one_to(100), 90), 90.0);
  EXPECT_FALSE(percentile(one_to(999), 99).has_value());
  EXPECT_DOUBLE_EQ(*percentile(one_to(1000), 99), 990.0);
  EXPECT_FALSE(percentile({}, 50).has_value());
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(40);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(*percentile(v, 50), 20.0);
}

TEST(PoissonSchedule, SameSeedSameScheduleOtherSeedOther) {
  const auto a = poisson_schedule(7, 5.0, 200);
  const auto b = poisson_schedule(7, 5.0, 200);
  const auto c = poisson_schedule(8, 5.0, 200);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_DOUBLE_EQ(a.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // 199 exponential gaps of mean 1/5 s span about 40 s.
  EXPECT_NEAR(a.back(), 199 / 5.0, 4.0);
}

TEST(StratifiedUniforms, OneDrawPerBand) {
  SplitMix64 rng(3);
  const auto u = stratified_uniforms(rng, 50);
  std::vector<int> hits(50, 0);
  for (double x : u) {
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    ++hits[static_cast<size_t>(x * 50)];
  }
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(GenerateRequests, DeterministicAndWithinSpec) {
  const WorkloadSpec& spec = *find_workload("shared_prefix");
  const auto a = generate_requests(spec, 11, Phase::kOpenLoop, 64);
  const auto b = generate_requests(spec, 11, Phase::kOpenLoop, 64);
  const auto c = generate_requests(spec, 12, Phase::kOpenLoop, 64);
  ASSERT_EQ(a.size(), 64u);
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prompt, b[i].prompt);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    differs |= a[i].prompt != c[i].prompt;
    const int suffix = static_cast<int>(a[i].prompt.size()) -
                       spec.system_prompt_len;
    EXPECT_GE(suffix, spec.prompt_min);
    EXPECT_LE(suffix, spec.prompt_max);
    EXPECT_GE(a[i].opts.max_new_tokens, spec.output_min);
    EXPECT_LE(a[i].opts.max_new_tokens, spec.output_max);
  }
  EXPECT_TRUE(differs);
  // Zipf skew: the first system prompt is the most common.
  std::vector<int> count(4, 0);
  for (const auto& r : a) ++count[static_cast<size_t>(r.system_prompt)];
  EXPECT_GT(count[0], count[3]);
}

TEST(GenerateRequests, LongDecodeWindowsHalf) {
  const WorkloadSpec& spec = *find_workload("long_decode");
  const auto reqs = generate_requests(spec, 5, Phase::kSaturation, 20);
  int windowed = 0;
  for (const auto& r : reqs) {
    EXPECT_EQ(r.arrival_s, 0.0);
    if (r.opts.attention_window > 0) {
      ++windowed;
      EXPECT_EQ(r.opts.attention_window, spec.window);
      EXPECT_EQ(r.opts.sink_tokens, spec.sinks);
    }
  }
  EXPECT_EQ(windowed, 10);
}

TEST(SloAttainment, FailuresCountAsMisses) {
  std::vector<RequestOutcome> sent(4);
  sent[0] = {true, 100, 10};   // meets both limits
  sent[1] = {true, 900, 10};   // TTFT miss
  sent[2] = {true, 100, 90};   // ITL miss
  sent[3] = {false, 0, 0};     // failed: a miss despite zero latencies
  EXPECT_DOUBLE_EQ(slo_attainment(sent, 500, 50), 0.25);
  sent[3].finished_ok = true;
  EXPECT_DOUBLE_EQ(slo_attainment(sent, 500, 50), 0.5);
}

TEST(SelfTime, SubtractsUnionOfDirectChildren) {
  std::vector<Span> spans(5);
  spans[0] = {0, -1, "step", 0, 100, -1, 0};
  spans[1] = {1, 0, "a", 10, 30, -1, 0};
  spans[2] = {2, 0, "b", 20, 50, -1, 0};   // overlaps a: union 10..50
  spans[3] = {3, 2, "c", 25, 35, -1, 0};   // grandchild: only b loses it
  spans[4] = {4, 0, "d", 90, 120, -1, 0};  // clipped to the parent at 100
  const auto self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(self[1], 20);
  EXPECT_DOUBLE_EQ(self[2], 30 - 10);
  EXPECT_DOUBLE_EQ(self[3], 10);
  EXPECT_DOUBLE_EQ(self[4], 30);
}

// The work clock skips idle time only through advance_to: sleeping (like a
// core taken away by the host) does not move it, and it never runs back.
TEST(WorkClock, CountsWorkAndSkippedIdleOnly) {
  Tracer clock;
  const double t0 = clock.now_us();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double t1 = clock.now_us();
  EXPECT_LT(t1 - t0, 25e3);
  clock.advance_to(t1 + 2e6);
  const double t2 = clock.now_us();
  EXPECT_GE(t2, t1 + 2e6);
  clock.advance_to(t2 - 1e6);
  EXPECT_GE(clock.now_us(), t2);
  EXPECT_LT(clock.now_us() - t2, 25e3);
}

}  // namespace
}  // namespace servebench
