#include "kernels/attention.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "kernels/cpu/attention_kernel.h"
#include "kernels/cpu/isa.h"

namespace qserve {

void AttentionConfig::validate(bool int4_kv) const {
  QS_CHECK_MSG(n_heads > 0, "AttentionConfig: n_heads must be positive, got "
                                << n_heads);
  QS_CHECK_MSG(n_kv_heads > 0,
               "AttentionConfig: n_kv_heads must be positive, got "
                   << n_kv_heads);
  QS_CHECK_MSG(head_dim > 0, "AttentionConfig: head_dim must be positive, got "
                                 << head_dim);
  QS_CHECK_MSG(n_heads % n_kv_heads == 0,
               "AttentionConfig: n_heads (" << n_heads
                                            << ") must be a multiple of "
                                               "n_kv_heads ("
                                            << n_kv_heads << ")");
  QS_CHECK_MSG(!int4_kv || head_dim % 2 == 0,
               "AttentionConfig: INT4 KV packs two codes per byte, so "
               "head_dim must be even, got "
                   << head_dim);
}

namespace {

// Attended set of a row at position p: [0, a) ∪ [b0, b1) (see AttendMask).
struct RowSet {
  int64_t a, b0, b1;
  int64_t nb() const { return std::max<int64_t>(0, b1 - b0); }
};

RowSet row_set(const AttendMask& m, int64_t p) {
  if (m.window == 0) return {0, 0, p + 1};
  return {std::min(p + 1, m.sink), std::max(m.sink, p + 1 - m.window), p + 1};
}

// Per-thread tile scratch, grown on demand and reused across tiles. Every
// buffer starts on a cache line, so the padded q/out/K/V tile rows do too.
struct TileScratch {
  std::vector<float> q, out, scores, kv;
};

}  // namespace

int tile_head_slices(int64_t n_tiles, int group) {
  const int threads = in_parallel_region() ? 1 : num_threads();
  if (n_tiles <= 0 || n_tiles >= threads) return 1;
  return static_cast<int>(std::min<int64_t>(group, ceil_div(threads, n_tiles)));
}

void attend_row_tile(const cpu::AttentionKernels& ker, const AttendRun* runs,
                     int n_runs, const AttendMask& mask, int64_t pos0,
                     int n_pos, int group, const float* q, int64_t ldq,
                     float* out, int64_t ldo, int head_dim, bool fp16_accum) {
  const int dim = cpu::padded_head_dim(head_dim);
  const int rows = n_pos * group;
  const float scale = 1.0f / std::sqrt(float(head_dim));
  int64_t width = 0, max_run = 0;
  for (int r = 0; r < n_runs; ++r) {
    width = std::max(width, runs[r].score0 + runs[r].k.n_tokens);
    max_run = std::max(max_run, runs[r].k.n_tokens);
  }
  // Runs at or above the sink share one position -> score column offset.
  const int64_t shift =
      n_runs > 0 ? runs[n_runs - 1].token0 - runs[n_runs - 1].score0 : 0;
  const bool windowed = mask.window > 0;

  thread_local TileScratch scratch;
  float* qt = cache_aligned(scratch.q, int64_t(rows) * dim);
  float* ot = cache_aligned(scratch.out, int64_t(rows) * dim);
  float* sc = cache_aligned(scratch.scores, int64_t(rows) * width);
  float* kv = cache_aligned(scratch.kv, round_up(max_run, cpu::kQkLanes) * dim);

  // Query rows (i, g) -> tile row i * group + g, zero-padded to `dim`.
  for (int i = 0; i < n_pos; ++i)
    for (int g = 0; g < group; ++g) {
      const float* src = q + i * ldq + int64_t(g) * head_dim;
      float* dst = qt + int64_t(i * group + g) * dim;
      std::copy(src, src + head_dim, dst);
      std::fill(dst + head_dim, dst + dim, 0.0f);
    }
  std::fill(ot, ot + int64_t(rows) * dim, 0.0f);

  // The tokens some row of the tile attends, per run: sink runs up to the
  // last row's sink cut, the rest between the first row's window start and
  // the last row's position.
  const RowSet first = row_set(mask, pos0);
  const RowSet last = row_set(mask, pos0 + n_pos - 1);
  const auto in_sink = [&](const AttendRun& run) {
    return windowed && run.token0 < mask.sink;
  };
  const auto clip = [&](const AttendRun& run, int64_t& c0, int64_t& c1) {
    const int64_t t1 = run.token0 + run.k.n_tokens;
    if (in_sink(run)) {
      c0 = run.token0;
      c1 = std::min(t1, last.a);
    } else {
      c0 = std::max(run.token0, first.b0);
      c1 = std::min(t1, last.b1);
    }
    return c0 < c1;
  };

  // Pass 1: QK. Every row's dot against every clipped token (a dot past a
  // row's causal limit is computed and never read).
  for (int r = 0; r < n_runs; ++r) {
    const AttendRun& run = runs[r];
    int64_t c0, c1;
    if (!clip(run, c0, c1)) continue;
    ker.dequant_run(cpu::sub_run(run.k, c0 - run.token0, c1 - c0), head_dim,
                    kv, dim);
    cpu::KvHeadRun k_tile;  // kF32
    k_tile.n_tokens = c1 - c0;
    k_tile.f32 = kv;
    k_tile.stride = dim;
    ker.qk_tile(qt, dim, rows, k_tile, dim,
                sc + run.score0 + (c0 - run.token0), width);
  }

  // Scale, FP16 rounding (QServe converts the QK product to FP16, §5.3; the
  // baseline keeps FP32) and softmax over each row's own attended columns.
  for (int i = 0; i < n_pos; ++i) {
    const RowSet rs = row_set(mask, pos0 + i);
    const int64_t nb = rs.nb();
    for (int g = 0; g < group; ++g) {
      float* row = sc + int64_t(i * group + g) * width;
      float* tail = nb > 0 ? row + (rs.b0 - shift) : nullptr;
      ker.scale_round(row, rs.a, scale, fp16_accum);
      ker.scale_round(tail, nb, scale, fp16_accum);
      softmax_inplace2(row, static_cast<int>(rs.a), tail,
                       static_cast<int>(nb));
    }
  }

  // Pass 2: SV. Consecutive positions that attend the same slice of a run
  // share one sv_tile call; each row's tokens stay in order across runs.
  for (int r = 0; r < n_runs; ++r) {
    const AttendRun& run = runs[r];
    int64_t c0, c1;
    if (!clip(run, c0, c1)) continue;
    ker.dequant_run(cpu::sub_run(run.v, c0 - run.token0, c1 - c0), head_dim,
                    kv, dim);
    const auto overlap = [&](int i, int64_t& o0, int64_t& o1) {
      const RowSet rs = row_set(mask, pos0 + i);
      o0 = in_sink(run) ? c0 : std::max(c0, rs.b0);
      o1 = std::min(c1, in_sink(run) ? rs.a : rs.b1);
    };
    for (int i = 0; i < n_pos;) {
      int64_t o0, o1;
      overlap(i, o0, o1);
      int j = i + 1;
      for (; j < n_pos; ++j) {
        int64_t p0, p1;
        overlap(j, p0, p1);
        if (p0 != o0 || p1 != o1) break;
      }
      if (o0 < o1) {
        const int64_t row0 = int64_t(i) * group;
        ker.sv_tile(sc + row0 * width + run.score0 + (o0 - run.token0), width,
                    (j - i) * group, kv + (o0 - c0) * dim, dim, o1 - o0, dim,
                    ot + row0 * dim, dim);
      }
      i = j;
    }
  }

  for (int i = 0; i < n_pos; ++i)
    for (int g = 0; g < group; ++g) {
      const float* src = ot + int64_t(i * group + g) * dim;
      float* dst = out + i * ldo + int64_t(g) * head_dim;
      std::copy(src, src + head_dim, dst);
      if (fp16_accum) ker.scale_round(dst, head_dim, 1.0f, true);
    }
}

namespace {

// Rows per float-matrix run: a multiple of 16 whose dequantized tile stays
// in L1 at typical head_dims.
constexpr int64_t kMatrixRunRows = 64;

// Attention of n query rows (row i at position pos0 + i; q/out rows ld*
// floats apart) against float K/V matrices whose rows [0, sink_rows) hold
// positions [0, sink_rows) and whose remaining rows hold positions tail0,
// tail0 + 1, ... . One parallel work item per (KV head, row tile, head
// slice).
void attend_matrix(const float* q, int64_t ldq, int64_t n, const Tensor& k,
                   const Tensor& v, const AttentionConfig& cfg,
                   const AttendMask& mask, int64_t pos0, int64_t sink_rows,
                   int64_t tail0, float* out, int64_t ldo) {
  const int group = cfg.n_heads / cfg.n_kv_heads;
  const int D = cfg.head_dim;
  const cpu::AttentionKernels& ker =
      cpu::attention_kernel_for(cpu::active_isa());

  std::vector<std::vector<AttendRun>> runs(static_cast<size_t>(cfg.n_kv_heads));
  const auto f32_run = [&](const Tensor& m, int64_t row0, int64_t rows,
                           int kvh) {
    cpu::KvHeadRun r;
    r.kind = cpu::KvRunKind::kF32;
    r.n_tokens = rows;
    r.f32 = m.row(row0) + int64_t(kvh) * D;
    r.stride = m.cols();
    return r;
  };
  for (int kvh = 0; kvh < cfg.n_kv_heads; ++kvh) {
    auto& hr = runs[static_cast<size_t>(kvh)];
    for (int64_t row0 = 0; row0 < k.rows();) {
      const int64_t end = row0 < sink_rows ? sink_rows : k.rows();
      const int64_t rows = std::min(kMatrixRunRows, end - row0);
      const int64_t token0 = row0 < sink_rows ? row0 : tail0 + row0 - sink_rows;
      hr.push_back({f32_run(k, row0, rows, kvh), f32_run(v, row0, rows, kvh),
                    token0, row0});
      row0 += rows;
    }
  }

  const int64_t tile_pos = std::max(1, kTileQueryRows / group);
  const int64_t n_tiles = ceil_div(n, tile_pos);
  const int slices = tile_head_slices(cfg.n_kv_heads * n_tiles, group);
  parallel_for(0, int64_t(cfg.n_kv_heads) * n_tiles * slices, 1,
               [&](int64_t w0, int64_t w1) {
                 for (int64_t w = w0; w < w1; ++w) {
                   const int s = static_cast<int>(w % slices);
                   const int64_t tile = w / slices;
                   const int kvh = static_cast<int>(tile / n_tiles);
                   const int64_t i0 = (tile % n_tiles) * tile_pos;
                   const int np = static_cast<int>(std::min(tile_pos, n - i0));
                   const int g0 = s * group / slices;
                   const int g1 = (s + 1) * group / slices;
                   const auto& hr = runs[static_cast<size_t>(kvh)];
                   const int64_t hoff = (int64_t(kvh) * group + g0) * D;
                   attend_row_tile(ker, hr.data(), static_cast<int>(hr.size()),
                                   mask, pos0 + i0, np, g1 - g0,
                                   q + i0 * ldq + hoff, ldq,
                                   out + i0 * ldo + hoff, ldo, D,
                                   cfg.fp16_accum);
                 }
               });
}

}  // namespace

Tensor attention_prefill(const Tensor& q, const Tensor& k, const Tensor& v,
                         const AttentionConfig& cfg) {
  cfg.validate();
  QS_CHECK_EQ(q.cols(), int64_t(cfg.n_heads) * cfg.head_dim);
  QS_CHECK_EQ(k.cols(), int64_t(cfg.n_kv_heads) * cfg.head_dim);
  QS_CHECK(k.same_shape(v));
  const int64_t n = q.rows(), s = k.rows();
  QS_CHECK_LE(n, s);
  Tensor out({n, q.cols()});
  attend_matrix(q.data(), q.cols(), n, k, v, cfg, AttendMask{}, s - n, 0, 0,
                out.data(), out.cols());
  return out;
}

Tensor attention_prefill_windowed(const Tensor& q, const Tensor& k,
                                  const Tensor& v, const AttentionConfig& cfg,
                                  int64_t s_total, int64_t sink,
                                  int64_t window, int64_t tail0) {
  cfg.validate();
  QS_CHECK_EQ(q.cols(), int64_t(cfg.n_heads) * cfg.head_dim);
  QS_CHECK_EQ(k.cols(), int64_t(cfg.n_kv_heads) * cfg.head_dim);
  QS_CHECK(k.same_shape(v));
  QS_CHECK_GT(window, 0);
  QS_CHECK_GE(sink, 0);
  const int64_t n = q.rows();
  QS_CHECK_LE(n, s_total);
  const int64_t sink_eff = std::min(sink, s_total);
  QS_CHECK(tail0 >= sink_eff && tail0 <= s_total);
  QS_CHECK_EQ(k.rows(), sink_eff + (s_total - tail0));
  // Residency: the earliest query row's window lower bound must still be in
  // the gathered tail (the cache's slack discipline guarantees this; a
  // violation means the caller recycled pages a pending query still needs).
  QS_CHECK_MSG(s_total - n + 1 <= sink ||
                   std::max(sink, s_total - n + 1 - window) >= tail0,
               "attention_prefill_windowed: earliest query row (position "
                   << s_total - n << ") needs tokens below the resident tail "
                   << tail0);
  Tensor out({n, q.cols()});
  attend_matrix(q.data(), q.cols(), n, k, v, cfg, AttendMask{sink, window},
                s_total - n, sink_eff, tail0, out.data(), out.cols());
  return out;
}

void attention_decode_token(const float* q, const Tensor& k, const Tensor& v,
                            const AttentionConfig& cfg, float* out) {
  cfg.validate();
  QS_CHECK_EQ(k.cols(), int64_t(cfg.n_kv_heads) * cfg.head_dim);
  QS_CHECK(k.same_shape(v));
  QS_CHECK_GT(k.rows(), 0);
  const int64_t hd = int64_t(cfg.n_heads) * cfg.head_dim;
  attend_matrix(q, hd, 1, k, v, cfg, AttendMask{}, k.rows() - 1, 0, 0, out,
                hd);
}

}  // namespace qserve
