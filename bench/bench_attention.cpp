// Paged-attention microbenchmark over the quantized paged KV cache, on the
// scalar baseline and the best ISA the host supports. Each time is the
// median of repeated calls.
//
//   attn_decode_kv{4,8}/ctx{128,1024,4096}: one fused_decode_attention call
//     (8 query / 8 KV heads of 64, whole context) — per-call latency, decode
//     tok/s (1 / latency: one call serves one token of one sequence) and the
//     effective GB/s of quantized KV traffic.
//   attn_span/k5_ctx1024, attn_span/n40_ctx1024: one paged_attention call
//     over a 5-row (speculative verify) and a 40-row (shared-prefix suffix)
//     span whose last row sits at context 1024, INT4 KV, 8 query / 4 KV
//     heads — the served shape. Rows/s in the gops slot.
//
//   ./bench_attention [--json out.json]
//
// The JSON rows land in bench/baseline.json and are gated by
// bench/check_regression.py in CI (scalar rows hard-fail, SIMD rows warn),
// so both the baseline and the SIMD speedup are regression-tracked claims.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/cpu/isa.h"
#include "kvcache/fused_attention.h"

namespace qserve {
namespace {

using cpu::Isa;

struct Setup {
  KvCacheConfig ccfg;
  AttentionConfig acfg;
  std::unique_ptr<PagedKvCache> cache;
  int seq = -1;
  std::vector<float> q, out;

  Setup(KvPrecision p, int ctx, uint64_t seed, int n_kv_heads = 8,
        int q_rows = 1) {
    ccfg.n_kv_heads = n_kv_heads;
    ccfg.head_dim = 64;
    ccfg.page_size = 16;
    ccfg.precision = p;
    ccfg.max_pages = 1 << 16;
    acfg = {8, n_kv_heads, 64, /*fp16_accum=*/true};
    cache = std::make_unique<PagedKvCache>(ccfg);
    seq = cache->alloc_sequence();
    Rng rng(seed);
    const size_t span = static_cast<size_t>(ccfg.n_kv_heads) * ccfg.head_dim;
    std::vector<float> k(span), v(span);
    for (int t = 0; t < ctx; ++t) {
      for (auto& x : k) x = rng.normal();
      for (auto& x : v) x = rng.normal();
      k[0] = 9.0f;
      cache->append(seq, k.data(), v.data());
    }
    const size_t hd = static_cast<size_t>(q_rows) * acfg.n_heads *
                      acfg.head_dim;
    q.resize(hd);
    out.resize(hd);
    for (auto& x : q) x = rng.normal();
  }

  // Quantized page bytes one call touches: K and V codes for every (token,
  // kv_head) plus the in-page FP16 scale/zero pairs, plus q in and out out.
  int64_t bytes_touched(int ctx) const {
    const int64_t span = int64_t(ccfg.n_kv_heads) * ccfg.head_dim;
    const int bits = static_cast<int>(ccfg.precision);
    int64_t b = 2 * int64_t(ctx) * span * bits / 8;      // K + V codes
    b += 2 * int64_t(ctx) * ccfg.n_kv_heads * 4;         // K + V params
    b += 2 * static_cast<int64_t>(q.size()) * 4;        // q + out
    return b;
  }
};

const char* precision_tag(KvPrecision p) {
  return p == KvPrecision::kInt4 ? "kv4" : "kv8";
}

}  // namespace
}  // namespace qserve

int main(int argc, char** argv) {
  using namespace qserve;
  using benchutil::fmt;

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  std::vector<Isa> isas{Isa::kScalar};
  if (cpu::detected_isa() != Isa::kScalar) isas.push_back(cpu::detected_isa());

  std::vector<benchutil::GemmBenchRecord> rows;
  benchutil::header("decode attention: fused quantized-KV kernels");
  benchutil::row({"config", "isa", "latency", "tok/s", "GB/s", "speedup"});
  for (const KvPrecision p : {KvPrecision::kInt4, KvPrecision::kInt8}) {
    for (const int ctx : {128, 1024, 4096}) {
      Setup s(p, ctx, 42 + ctx);
      const int reps = ctx <= 1024 ? 100 : 30;
      double scalar_secs = 0.0;
      for (const Isa isa : isas) {
        cpu::set_isa(isa);
        const double secs = benchutil::time_median_of(
            [&] {
              fused_decode_attention(*s.cache, s.seq, s.q.data(), s.acfg,
                                     s.out.data());
            },
            reps);
        cpu::clear_isa_override();
        if (isa == Isa::kScalar) scalar_secs = secs;

        const std::string name = std::string("attn_decode_") +
                                 precision_tag(p) + "/ctx" +
                                 std::to_string(ctx);
        // tok/s in the gops slot (like the serving rows): one fused call
        // serves one decode token for one sequence.
        benchutil::GemmBenchRecord r;
        r.name = name;
        r.isa = cpu::isa_name(isa);
        r.m = 1;
        r.n = s.acfg.n_heads;
        r.k = ctx;
        r.seconds = secs;
        r.gops = secs > 0 ? 1.0 / secs : 0.0;
        r.gbps = secs > 0 ? double(s.bytes_touched(ctx)) / secs / 1e9 : 0.0;
        rows.push_back(r);
        benchutil::row({name, r.isa, benchutil::fmt_ms(secs, 3),
                        fmt(r.gops, 0), fmt(r.gbps, 2),
                        isa == Isa::kScalar
                            ? "1.00x"
                            : fmt(scalar_secs / secs, 2) + "x"});
      }
    }
  }

  // Spans: the rows a verify step or a prefix-cached suffix prefill attends
  // with, their last row at context 1024.
  benchutil::header("span attention: paged executor, 8q/4kv, INT4 KV");
  benchutil::row({"config", "isa", "latency", "rows/s", "GB/s", "speedup"});
  for (const auto& [tag, rows_n] :
       {std::pair<const char*, int>{"attn_span/k5_ctx1024", 5},
        std::pair<const char*, int>{"attn_span/n40_ctx1024", 40}}) {
    const int ctx = 1024;
    Setup s(KvPrecision::kInt4, ctx, 7 + rows_n, /*n_kv_heads=*/4, rows_n);
    const int64_t ld = int64_t(s.acfg.n_heads) * s.acfg.head_dim;
    const std::vector<SpanAttentionItem> items{
        {s.seq, rows_n, s.q.data(), s.out.data(), ld}};
    double scalar_secs = 0.0;
    for (const Isa isa : isas) {
      cpu::set_isa(isa);
      const double secs = benchutil::time_median_of(
          [&] { paged_attention(*s.cache, items, s.acfg, 0, s.acfg.n_heads); },
          rows_n <= 5 ? 100 : 30);
      cpu::clear_isa_override();
      if (isa == Isa::kScalar) scalar_secs = secs;
      benchutil::GemmBenchRecord r;
      r.name = tag;
      r.isa = cpu::isa_name(isa);
      r.m = rows_n;
      r.n = s.acfg.n_heads;
      r.k = ctx;
      r.seconds = secs;
      r.gops = secs > 0 ? double(rows_n) / secs : 0.0;
      r.gbps = secs > 0 ? double(s.bytes_touched(ctx)) / secs / 1e9 : 0.0;
      rows.push_back(r);
      benchutil::row({tag, r.isa, benchutil::fmt_ms(secs, 3), fmt(r.gops, 0),
                      fmt(r.gbps, 2),
                      isa == Isa::kScalar ? "1.00x"
                                          : fmt(scalar_secs / secs, 2) + "x"});
    }
  }

  if (!json_path.empty()) {
    if (!benchutil::write_bench_json(json_path,
                                     cpu::isa_name(cpu::detected_isa()),
                                     num_threads(), rows))
      return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
