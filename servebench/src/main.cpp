// Serving benchmark: seeded traffic served through ServingEngine, end-to-end
// latency / capacity / accuracy metrics, and (with --trace 1) a traced run of
// the same seed with a per-step replay that attributes step time to ops.
//
//   servebench --workload chat --seed 1 --seconds 20 --trace 0
//   servebench --workload chat --seed 1 --seconds 20 --trace 1
//       --trace-out trace.json
//
// Times are read from the work clock (see Tracer): the serving thread's CPU
// time plus skipped idle time, so the host taking the core away does not
// count. The open loop's idle gaps are skipped, not slept.
//
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Exits 1 when any output check fails, 2 on bad arguments.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "kernels/cpu/isa.h"
#include "loadgen.h"
#include "model/reference_model.h"
#include "model/weights.h"
#include "replay.h"
#include "serve.h"
#include "stats.h"
#include "trace.h"

namespace servebench {
namespace {

using namespace qserve;
using WallClock = std::chrono::steady_clock;

// Set-up is repeated and its median reported: one construction is too short
// to time steadily.
constexpr int kSetupReps = 5;
// Share of --seconds given to the open-loop phase; the saturation phase gets
// the rest. Both are sized in work: the open loop skips its idle time, so a
// request costs about 1 / capacity_hint_rps seconds in either phase.
constexpr double kOpenLoopShare = 0.7;
// The saturation phase sends at least this many full batches.
constexpr int kMinSaturationBatches = 2;
// Share of the traced open loop's steps the replay re-executes (twice: on
// forward_step and on OpModel). It keeps the traced run within its time
// limit; the replayed steps still number in the thousands.
constexpr double kReplayShare = 0.4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return (argc % 2) == 1 && find_workload(a.workload) != nullptr &&
         a.seconds > 0 && (!a.trace || !a.trace_out.empty());
}

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

// Host-wide CPU time counters from /proc/stat: {steal, total}, in ticks.
std::array<double, 2> host_cpu_ticks() {
  std::array<double, 2> t = {0, 0};
  FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return t;
  double v[8] = {0};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) return t;
  t[0] = v[7];
  for (double x : v) t[1] += x;
  return t;
}

// Wall time, work-clock time and the host's CPU steal over one phase: shows
// how far the host's interference separated the two clocks.
class PhaseTimer {
 public:
  explicit PhaseTimer(const Tracer& work)
      : work_(work), w0_(WallClock::now()), c0_(work.now_us()),
        ticks0_(host_cpu_ticks()) {}
  void print(const char* name) const {
    const std::array<double, 2> t = host_cpu_ticks();
    const double total = t[1] - ticks0_[1];
    std::printf("%s: work clock %.2f s, wall %.2f s, host steal %.1f%%\n",
                name, (work_.now_us() - c0_) * 1e-6, seconds_since(w0_),
                total > 0 ? 100.0 * (t[0] - ticks0_[0]) / total : 0.0);
  }

 private:
  const Tracer& work_;
  WallClock::time_point w0_;
  double c0_;
  std::array<double, 2> ticks0_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double rss_mib() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Ordered metric output: name -> (value, unit).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!index_.count(name)) {
      index_[name] = rows_.size();
      rows_.push_back({name, value, unit});
    } else {
      rows_[index_[name]] = {name, value, unit};
    }
  }
  void print_lines(const char* prefix) const {
    for (const Row& r : rows_)
      std::printf("%s %-32s %14.6f %s\n", prefix, r.name.c_str(), r.value,
                  r.unit.c_str());
  }
  std::string json() const {
    std::string s = "{";
    char buf[256];
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", rows_[i].name.c_str(), rows_[i].value,
                    rows_[i].unit.c_str());
      s += buf;
    }
    return s + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
  std::map<std::string, size_t> index_;
};

// Output checks; any failure makes the run exit non-zero.
struct Checks {
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

int64_t count_ok(const PhaseRun& run) {
  int64_t ok = 0;
  for (const RequestRecord& r : run.requests) ok += r.ok() ? 1 : 0;
  return ok;
}

// Every request, warm-up ones included, must finish exactly once with
// kLength, and the phase must leave no KV page in use.
void check_phase(Checks& checks, const PhaseRun& run, const char* name) {
  for (const auto* recs : {&run.warmup, &run.requests})
    for (size_t i = 0; i < recs->size(); ++i) {
      const RequestRecord& r = (*recs)[i];
      checks.expect(r.ok(), std::string(name) +
                                (recs == &run.warmup ? ": warm-up request "
                                                     : ": request ") +
                                std::to_string(i) + " finished " +
                                std::to_string(r.finishes) + " time(s), reason " +
                                to_string(r.reason));
    }
  const int64_t sent = static_cast<int64_t>(run.requests.size());
  const int64_t ok = count_ok(run);
  std::printf("phase %-22s sent %5lld  succeeded %5lld  failed %5lld  "
              "(after %zu warm-up)\n",
              name, static_cast<long long>(sent), static_cast<long long>(ok),
              static_cast<long long>(sent - ok), run.warmup.size());
  checks.expect(run.pages_after_clear == 0,
                std::string(name) + ": pages_in_use after drain + "
                "clear_prefix_cache is " + std::to_string(run.pages_after_clear));
}

std::vector<double> ttft_ms(const PhaseRun& run) {
  std::vector<double> v;
  for (const RequestRecord& r : run.requests)
    if (r.ok() && !r.token_us.empty())
      v.push_back((r.token_us.front() - r.arrival_us) * 1e-3);
  return v;
}

std::vector<double> itl_ms(const PhaseRun& run) {
  std::vector<double> v;
  for (const RequestRecord& r : run.requests)
    for (size_t i = 1; i < r.token_us.size(); ++i)
      v.push_back((r.token_us[i] - r.token_us[i - 1]) * 1e-3);
  return v;
}

// Completions per second while the engine ran a full batch: up to the
// completion that leaves fewer than max_batch requests outstanding. The
// drain after it runs ever smaller batches whose length depends on the last
// few requests alone.
double capacity_rps(const PhaseRun& run) {
  std::vector<double> done;
  for (const RequestRecord& r : run.requests)
    if (r.ok()) done.push_back(r.token_us.back());
  std::sort(done.begin(), done.end());
  const int64_t k = std::max<int64_t>(
      1, static_cast<int64_t>(run.requests.size()) -
             served_engine_config().scheduler.max_batch + 1);
  if (done.size() < static_cast<size_t>(k)) return 0;
  return double(k) / ((done[static_cast<size_t>(k - 1)] - run.start_us) * 1e-6);
}

std::vector<RequestOutcome> outcomes(const PhaseRun& run) {
  std::vector<RequestOutcome> v;
  for (const RequestRecord& r : run.requests) {
    RequestOutcome o;
    o.finished_ok = r.ok() && !r.token_us.empty();
    if (o.finished_ok) {
      o.ttft_ms = (r.token_us.front() - r.arrival_us) * 1e-3;
      if (r.token_us.size() > 1)
        o.mean_itl_ms = (r.token_us.back() - r.token_us.front()) * 1e-3 /
                        double(r.token_us.size() - 1);
    }
    v.push_back(o);
  }
  return v;
}

// A percentile under the reporting rule; records it when supported.
void put_percentile(Metrics& m, const std::string& name,
                    const std::vector<double>& samples, double p,
                    const std::string& unit) {
  const auto v = percentile(samples, p);
  std::printf("  %s: %zu samples%s\n", name.c_str(), samples.size(),
              v ? "" : " (too few beyond the percentile; not reported)");
  if (v) m.set(name, *v, unit);
}

// Share of the sampled requests' generated positions where the engine's
// token is the FP32 reference's argmax over prompt + generated so far.
double top1_agreement(const ModelWeights& weights,
                      const std::vector<GenRequest>& reqs, const PhaseRun& run,
                      int sample) {
  ReferenceModel ref(&weights);
  int64_t agree = 0, total = 0;
  for (int i = 0; i < sample && i < static_cast<int>(reqs.size()); ++i) {
    const std::vector<int>& gen = run.requests[static_cast<size_t>(i)].tokens;
    if (gen.empty()) continue;
    std::vector<int> seq = reqs[static_cast<size_t>(i)].prompt;
    seq.insert(seq.end(), gen.begin(), gen.end() - 1);
    const Tensor logits = ref.forward(seq);
    const int64_t p0 = static_cast<int64_t>(reqs[static_cast<size_t>(i)].prompt.size());
    for (size_t t = 0; t < gen.size(); ++t) {
      agree += argmax(logits.row(p0 - 1 + static_cast<int64_t>(t)),
                      weights.cfg.vocab) == gen[t];
      ++total;
    }
  }
  return total ? double(agree) / double(total) : 0;
}

// The sampled requests, each served alone by a batch-1 engine, must emit the
// streams they emitted under load.
void check_isolated(Checks& checks, QuantizedModel& model,
                    const std::vector<GenRequest>& reqs, const PhaseRun& run,
                    int sample) {
  EngineConfig cfg = served_engine_config();
  cfg.scheduler.max_batch = 1;
  cfg.prefix_caching = false;
  for (int i = 0; i < sample && i < static_cast<int>(reqs.size()); ++i) {
    ServingEngine engine(&model, cfg);
    const GenRequest& g = reqs[static_cast<size_t>(i)];
    const int id = engine.submit(g.prompt, g.opts, nullptr, nullptr);
    engine.drain();
    checks.expect(engine.request(id).generated ==
                      run.requests[static_cast<size_t>(i)].tokens,
                  "request " + std::to_string(i) +
                      " stream differs from an isolated batch-1 run");
  }
  checks.expect(model.kv_cache().pages_in_use() == 0,
                "pages in use after the isolated runs");
}

int64_t prompt_tokens(const std::vector<GenRequest>& reqs) {
  int64_t n = 0;
  for (const GenRequest& g : reqs) n += static_cast<int64_t>(g.prompt.size());
  return n;
}

std::string host_fingerprint(const ModelConfig& mc) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"isa\": \"%s\", \"nproc\": %u, \"pool_threads\": %d, "
      "\"l2_bytes\": %ld, \"l3_bytes\": %ld, \"model\": \"hidden %lld, "
      "layers %d, heads %d/%d x %d, ffn %lld, vocab %lld, w4a8kv4 g128\"}",
      cpu::isa_name(cpu::active_isa()), std::thread::hardware_concurrency(),
      num_threads(), sysconf(_SC_LEVEL2_CACHE_SIZE),
      sysconf(_SC_LEVEL3_CACHE_SIZE), static_cast<long long>(mc.hidden),
      mc.n_layers, mc.n_heads, mc.n_kv_heads, mc.head_dim,
      static_cast<long long>(mc.ffn_dim), static_cast<long long>(mc.vocab));
  return buf;
}

// Per-layer metrics of the traced phases and their replay.
void traced_metrics(Metrics& m, const std::vector<const PhaseRun*>& phases,
                    const PhaseRun& open, const ReplayResult& rep,
                    const ModelConfig& mc, int64_t max_pages,
                    int64_t prompt_tokens,
                    double untraced_busy_s, double traced_busy_s) {
  std::vector<double> lag, step_ms, queue_ms;
  double rows = 0, reqs = 0, step_wall_s = 0, fwd_s = 0, dec_rows = 0,
         dec_kv = 0;
  int64_t steps = 0, qmax = 0, pages_peak = 0;
  for (const PhaseRun* p : phases) {
    for (const RequestRecord& r : p->requests)
      lag.push_back((r.submit_us - r.arrival_us) * 1e-3);
    for (const StepSample& s : p->steps) {
      step_ms.push_back((s.t1_us - s.t0_us) * 1e-3);
      rows += double(s.rows);
      reqs += double(s.requests);
      step_wall_s += s.wall_s;
      fwd_s += s.forward_s;
      qmax = std::max(qmax, s.queue_depth);
      pages_peak = std::max(pages_peak, s.pages_in_use);
      dec_rows += double(s.decode_rows);
      dec_kv += s.decode_kv_tokens;
      ++steps;
    }
  }
  for (const RequestRecord& r : open.requests)
    if (r.admit_us >= 0) queue_ms.push_back((r.admit_us - r.arrival_us) * 1e-3);

  int64_t sent = 0;
  for (const PhaseRun* p : phases) sent += static_cast<int64_t>(p->requests.size());
  m.set("loadgen.sent", double(sent), "count");
  m.set("loadgen.lag_max_ms", lag.empty() ? 0 : *std::max_element(lag.begin(), lag.end()),
        "ms");

  put_percentile(m, "serving.step_ms_p50", step_ms, 50, "ms");
  put_percentile(m, "serving.step_ms_p99", step_ms, 99, "ms");
  m.set("serving.steps", double(steps), "count");
  m.set("serving.rows_per_step_mean", steps ? rows / double(steps) : 0, "rows");
  m.set("serving.requests_per_step_mean", steps ? reqs / double(steps) : 0,
        "requests");
  put_percentile(m, "serving.queue_wait_ms_p50", queue_ms, 50, "ms");
  m.set("serving.queue_wait_ms_mean", mean(queue_ms), "ms");
  m.set("serving.queue_depth_max", double(qmax), "count");
  int64_t preempt = 0, hits = 0, reused = 0, evictions = 0, cow = 0,
          recycled = 0, admitted = 0;
  double attn_s = 0, wall_s = 0, prefill_tokens = 0, prefill_s = 0,
         decode_tokens = 0, decode_s = 0;
  for (const PhaseRun* p : phases) {
    const EngineStats& s = p->stats;
    preempt += s.preemptions;
    hits += s.prefix_hits;
    reused += s.prefix_tokens_reused;
    evictions += s.prefix_evictions;
    cow += s.cow_page_copies;
    recycled += s.kv_recycled_pages;
    attn_s += s.attention_seconds;
    wall_s += s.wall_seconds;
    prefill_tokens += double(s.prefill_tokens);
    prefill_s += s.prefill_seconds;
    decode_tokens += double(s.decode_tokens + s.first_tokens);
    decode_s += s.decode_seconds;
    admitted += static_cast<int64_t>(p->requests.size());
  }
  m.set("serving.preemptions", double(preempt), "count");
  m.set("serving.self_share",
        step_wall_s > 0 ? (step_wall_s - fwd_s) / step_wall_s : 0,
        "fraction");

  m.set("prefix.hit_rate", admitted ? double(hits) / double(admitted) : 0,
        "fraction");
  m.set("prefix.tokens_reused_share",
        prompt_tokens ? double(reused) / double(prompt_tokens) : 0, "fraction");
  m.set("prefix.evictions", double(evictions), "count");
  m.set("prefix.cow_page_copies", double(cow), "count");

  m.set("kvcache.pages_peak", double(pages_peak), "pages");
  m.set("kvcache.pages_peak_share", double(pages_peak) / double(max_pages),
        "fraction");
  m.set("kvcache.recycled_pages", double(recycled), "pages");
  m.set("kvcache.attention_share", wall_s > 0 ? attn_s / wall_s : 0, "fraction");
  m.set("kvcache.decode_kv_bytes_per_token",
        dec_rows > 0 ? dec_kv / dec_rows * double(mc.kv_bytes_per_token(4)) : 0,
        "bytes");

  m.set("model.prefill_tok_s", prefill_s > 0 ? prefill_tokens / prefill_s : 0,
        "tok/s");
  m.set("model.decode_tok_s", decode_s > 0 ? decode_tokens / decode_s : 0,
        "tok/s");
  m.set("model.forward_ms_p50", median(rep.forward_ms), "ms");

  for (int o = 0; o < static_cast<int>(Op::kCount); ++o) {
    const OpTotals& t = rep.ops[static_cast<size_t>(o)];
    const std::string p = std::string("op.") + op_name(static_cast<Op>(o)) + ".";
    m.set(p + "ms_per_step", rep.steps ? t.seconds * 1e3 / double(rep.steps) : 0,
          "ms");
    m.set(p + "share", rep.op_self_s > 0 ? t.seconds / rep.op_self_s : 0,
          "fraction");
    m.set(p + "gops", t.seconds > 0 ? t.ops / t.seconds * 1e-9 : 0, "Gop/s");
    m.set(p + "gbps", t.seconds > 0 ? t.bytes / t.seconds * 1e-9 : 0, "GB/s");
  }
  m.set("replay.coverage", rep.forward_s > 0 ? rep.op_self_s / rep.forward_s : 0,
        "fraction");
  m.set("trace.overhead_share",
        untraced_busy_s > 0 ? traced_busy_s / untraced_busy_s - 1 : 0,
        "fraction");
}

int run(const Args& args) {
  const WorkloadSpec& spec = *find_workload(args.workload);
  set_num_threads(kPoolThreads);
  const ModelConfig mc = served_model_config();
  std::printf("host %s\n", host_fingerprint(mc).c_str());
  std::printf("workload %s seed %llu seconds %.1f trace %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  // --- set-up: weights, quantize + pack, engine construction -------------
  std::vector<double> t_weights, t_quant, t_engine, t_total;
  std::unique_ptr<QuantizedModel> model;
  Tracer clock;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    model.reset();
    const double t0 = clock.now_us();
    auto weights = std::make_unique<ModelWeights>(make_synthetic_weights(mc));
    const double t1 = clock.now_us();
    model = std::make_unique<QuantizedModel>(*weights, served_scheme());
    const double t2 = clock.now_us();
    { ServingEngine probe(model.get(), served_engine_config()); }
    const double t3 = clock.now_us();
    const double w = (t1 - t0) * 1e-6, q = (t2 - t1) * 1e-6,
                 e = (t3 - t2) * 1e-6;
    t_weights.push_back(w);
    t_quant.push_back(q);
    t_engine.push_back(e);
    t_total.push_back(w + q + e);
  }
  malloc_trim(0);
  std::printf("setup: weights %.3f s, quantize + pack %.3f s, engine %.4f s "
              "(medians of %d)\n",
              median(t_weights), median(t_quant), median(t_engine), kSetupReps);

  // --- measured phases ----------------------------------------------------
  // Enough open-loop requests for a median TTFT (kMinTailSamples beyond it).
  const double work_rps = spec.capacity_hint_rps * args.seconds;
  const int n_open = std::max(2 * static_cast<int>(kMinTailSamples),
                              static_cast<int>(work_rps * kOpenLoopShare + 0.5));
  const int n_sat = std::max(
      kMinSaturationBatches * served_engine_config().scheduler.max_batch,
      static_cast<int>(work_rps * (1 - kOpenLoopShare) + 0.5));
  const std::vector<GenRequest> sat_reqs =
      generate_requests(spec, args.seed, Phase::kSaturation, n_sat);
  const std::vector<GenRequest> open_reqs =
      generate_requests(spec, args.seed, Phase::kOpenLoop, n_open);

  // Both modes serve the saturation phase untraced: its capacity in the
  // timed mode, and in the traced mode the reference for the tracing
  // overhead and the token streams.
  Checks checks;
  const std::vector<GenRequest> warm = warmup_requests(spec, args.seed);
  const PhaseTimer sat_timer(clock);
  const PhaseRun sat = serve_phase(*model, warm, sat_reqs, clock, false);
  sat_timer.print("saturation");
  check_phase(checks, sat, "saturation");
  int64_t attempted = static_cast<int64_t>(sat.requests.size());
  int64_t failed = attempted - count_ok(sat);
  Metrics out;

  if (!args.trace) {
    const PhaseTimer open_timer(clock);
    const PhaseRun open = serve_phase(*model, warm, open_reqs, clock, false);
    open_timer.print("open loop");
    malloc_trim(0);
    const double mem = rss_mib();
    check_phase(checks, open, "open_loop");
    attempted += static_cast<int64_t>(open.requests.size());
    failed += static_cast<int64_t>(open.requests.size()) - count_ok(open);

    std::printf("end-to-end (open loop at %.2f req/s, SLO TTFT <= %.0f ms, "
                "mean ITL <= %.0f ms):\n",
                spec.rate_rps, spec.ttft_slo_ms, spec.itl_slo_ms);
    // BENCHMARK.json gates the metrics in `out`; `info` adds the other end-
    // to-end numbers, printed but too unsteady between seeds to gate: the
    // ITL tail is set by which few gaps span a prefill chunk, and the TTFT
    // median by how the long prompts overlap the others' arrivals.
    Metrics info;
    const std::vector<double> ttft = ttft_ms(open), itl = itl_ms(open);
    put_percentile(info, "ttft_p50_ms", ttft, 50, "ms");
    put_percentile(info, "ttft_p90_ms", ttft, 90, "ms");
    put_percentile(out, "itl_p50_ms", itl, 50, "ms");
    put_percentile(info, "itl_p99_ms", itl, 99, "ms");
    info.set("itl_mean_ms", mean(itl), "ms");
    out.set("slo_attainment",
            slo_attainment(outcomes(open), spec.ttft_slo_ms, spec.itl_slo_ms),
            "fraction");
    out.set("capacity_rps", capacity_rps(sat), "req/s");
    out.set("setup_s", median(t_total), "s");
    out.set("success_frac", double(attempted - failed) / double(attempted),
            "fraction");
    info.set("failed_frac", double(failed) / double(attempted), "fraction");
    out.set("mem_mib", mem, "MiB");
    check_isolated(checks, *model, open_reqs, open, spec.isolation_sample);
    out.print_lines("metric");
    info.print_lines("info  ");
  } else {
    Tracer tracer;
    const PhaseRun tsat = serve_phase(*model, warm, sat_reqs, tracer, true);
    const PhaseRun topen = serve_phase(*model, warm, open_reqs, tracer, true);
    check_phase(checks, tsat, "saturation_traced");
    check_phase(checks, topen, "open_loop_traced");
    for (const PhaseRun* p : {&tsat, &topen}) {
      attempted += static_cast<int64_t>(p->requests.size());
      failed += static_cast<int64_t>(p->requests.size()) - count_ok(*p);
    }
    for (size_t i = 0; i < sat.requests.size(); ++i)
      checks.expect(sat.requests[i].tokens == tsat.requests[i].tokens,
                    "saturation request " + std::to_string(i) +
                        ": traced stream differs from the untraced run");

    // The open-loop phase, the traffic the latency metrics describe, is
    // replayed (its first kReplayShare of steps) on a second model instance.
    const ModelWeights weights = make_synthetic_weights(mc);
    QuantizedModel replay_model(weights, served_scheme());
    const int64_t slack = served_engine_config().scheduler.prefill_chunk;
    const std::vector<ReplayStep> replayed(
        topen.replay.begin(),
        topen.replay.begin() +
            static_cast<long>(double(topen.replay.size()) * kReplayShare));
    const ReplayResult rep =
        replay(replayed, replay_model, weights, slack, tracer);
    std::printf("replay: %lld steps, %lld sampled rows, %lld reconstruct "
                "errors, %lld token mismatches, %lld logit mismatches\n",
                static_cast<long long>(rep.steps),
                static_cast<long long>(rep.sampled_rows),
                static_cast<long long>(tsat.reconstruct_errors +
                                       topen.reconstruct_errors),
                static_cast<long long>(rep.token_mismatches),
                static_cast<long long>(rep.logit_mismatches));
    checks.expect(rep.token_mismatches == 0,
                  "replayed steps sampled tokens the engine did not");
    checks.expect(rep.logit_mismatches == 0,
                  "op-by-op replay logits differ from forward_step");

    traced_metrics(out, {&tsat, &topen}, topen, rep, mc,
                   served_scheme().kv_max_pages,
                   prompt_tokens(sat_reqs) + prompt_tokens(open_reqs),
                   sat.step_s, tsat.step_s);
    const double acc0 = clock.now_us();
    out.set("model.top1_agree_fp32",
            top1_agreement(weights, open_reqs, topen, spec.accuracy_sample),
            "fraction");
    std::printf("fp32 reference: %.2f s\n", (clock.now_us() - acc0) * 1e-6);
    out.set("setup.weights_s", median(t_weights), "s");
    out.set("setup.quantize_pack_s", median(t_quant), "s");
    out.set("setup.engine_s", median(t_engine), "s");
    check_isolated(checks, *model, open_reqs, topen, spec.isolation_sample);

    const std::string& path = args.trace_out;
    const std::map<std::string, std::string> meta = {
        {"host", host_fingerprint(mc)},
        {"workload", spec.name},
        {"seed", std::to_string(args.seed)}};
    if (write_chrome_trace(path, tracer.spans(), meta))
      std::printf("trace: %zu spans -> %s\n", tracer.spans().size(),
                  path.c_str());
    else
      checks.expect(false, "could not write the trace to " + path);
    out.print_lines("layer");
  }

  const bool correct = checks.failures == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), out.json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload chat|shared_prefix|long_decode "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n"
                 "(--trace 1 needs --trace-out)\n");
    return 2;
  }
  try {
    return servebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
