// Shared formatting helpers for the table/figure reproduction binaries, plus
// the machine-readable JSON emitter used by the bench-regression harness
// (bench_w4a8_gemm --json <path>, compared in CI by bench/check_regression.py
// against bench/baseline.json).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace qserve::benchutil {

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string fmt_ms(double seconds, int precision = 2) {
  return fmt(seconds * 1e3, precision) + " ms";
}

// --- bench JSON records ------------------------------------------------------

// One timed kernel configuration. `gops` is 2*m*n*k MACs per second / 1e9;
// `gbps` is the bytes the kernel actually touches (quantized weights +
// activation codes + FP16 outputs) per second / 1e9.
struct GemmBenchRecord {
  std::string name;  // kernel + shape tag, e.g. "w4a8_per_group/prefill"
  std::string isa;   // "scalar" / "avx2" / "avx512"
  int64_t m = 0, n = 0, k = 0;
  double seconds = 0.0;
  double gops = 0.0;
  double gbps = 0.0;
};

// Best-of-`reps` wall time of fn() after one untimed warmup call.
template <typename Fn>
double time_best_of(const Fn& fn, int reps) {
  using clock = std::chrono::steady_clock;
  fn();
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = clock::now();
    fn();
    const double dt =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (dt < best) best = dt;
  }
  return best;
}

// Median-of-`reps` wall time of fn() after one untimed warmup call. Rows
// whose best-of time swings with where the host schedules one lucky rep
// (the short attention calls) report this instead.
template <typename Fn>
double time_median_of(const Fn& fn, int reps) {
  using clock = std::chrono::steady_clock;
  fn();
  std::vector<double> dts(static_cast<size_t>(reps));
  for (double& dt : dts) {
    const auto t0 = clock::now();
    fn();
    dt = std::chrono::duration<double>(clock::now() - t0).count();
  }
  std::nth_element(dts.begin(), dts.begin() + reps / 2, dts.end());
  return dts[static_cast<size_t>(reps / 2)];
}

inline GemmBenchRecord make_record(const std::string& name,
                                   const std::string& isa, int64_t m,
                                   int64_t n, int64_t k, double seconds,
                                   int64_t bytes_touched) {
  GemmBenchRecord r;
  r.name = name;
  r.isa = isa;
  r.m = m;
  r.n = n;
  r.k = k;
  r.seconds = seconds;
  r.gops = seconds > 0 ? 2.0 * double(m) * double(n) * double(k) / seconds /
                             1e9
                       : 0.0;
  r.gbps = seconds > 0 ? double(bytes_touched) / seconds / 1e9 : 0.0;
  return r;
}

// Writes {"host_isa": ..., "threads": ..., "results": [...]}; returns false
// (with a message on stderr) if the file cannot be opened.
inline bool write_bench_json(const std::string& path,
                             const std::string& host_isa, int threads,
                             const std::vector<GemmBenchRecord>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_util: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"host_isa\": \"%s\",\n  \"threads\": %d,\n",
               host_isa.c_str(), threads);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const GemmBenchRecord& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"isa\": \"%s\", \"m\": %lld, "
                 "\"n\": %lld, \"k\": %lld, \"seconds\": %.6e, "
                 "\"gops\": %.4f, \"gbps\": %.4f}%s\n",
                 r.name.c_str(), r.isa.c_str(),
                 static_cast<long long>(r.m), static_cast<long long>(r.n),
                 static_cast<long long>(r.k), r.seconds, r.gops, r.gbps,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace qserve::benchutil
