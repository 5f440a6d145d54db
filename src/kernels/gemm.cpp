#include "kernels/gemm.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/half.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "kernels/cpu/attention_kernel.h"
#include "kernels/cpu/microkernel.h"
#include "kernels/rlp.h"

namespace qserve {

namespace {

// Input channels per cache block of the (n, k) tiling. A tile's weight
// block (np panels x nr rows x kKcBlock codes: 32 KiB for the AVX-512 tile)
// stays L1-resident while the driver sweeps all m tokens over it, so weight
// tiles are read from memory once per call instead of once per token tile.
constexpr int64_t kKcBlock = 512;

// Weight-stream size (n*k elements) above which a single-token call should
// take the plain per-group kernel instead of walking the reordered stream:
// for m == 1 the stream walk is pure overhead (one fragment feeds one
// output), and decode-layer weights are always far above this threshold.
constexpr int64_t kStreamedDecodeBypassElems = 1 << 14;

// Output rows per gemm_fp16w block: 64 rows of a 512-wide binary16 matrix
// are 64 KiB, which stays L2-resident while every input row passes over it.
constexpr int64_t kFp16wRowBlock = 64;

// Panels per parallel_for chunk, derived from the panel count and the pool
// size so small-n decode layers spread over every worker instead of
// serializing on one chunk, capped at 8 panels per chunk to keep chunks
// cache-friendly on wide layers, and rounded up to whole `np`-panel tiles so
// a chunk boundary never narrows a tile.
int64_t panel_grain(int64_t panels, int np) {
  const int64_t threads = std::max(1, num_threads());
  return round_up(clamp<int64_t>(panels / (4 * threads), 1, 8), int64_t(np));
}

// Core blocked driver. Runs the tile microkernel over (panel tile, k block,
// token tile) and calls row_sink(t, r0, cols, acc) once per (token, panel
// tile) with the exact INT32 accumulators of output channels
// [r0, r0 + cols). row_sink must be safe to call concurrently for disjoint
// channel ranges.
template <typename RowSinkFn>
void run_blocked(const QuantizedActs& x, const PackedGemmB& w,
                 const RowSinkFn& row_sink) {
  QS_CHECK(w.valid());
  QS_CHECK_EQ(x.k(), w.k);
  const int64_t m = x.m(), k = w.k, kp = w.k_padded;
  const int nr = w.nr;
  if (m == 0) return;

  // Microkernel lookup: if the active ISA's vector width no longer matches
  // the packed layout (a test flipped QSERVE_ISA after packing), fall back
  // to the scalar kernel, which handles any nr.
  const cpu::Microkernel* mk = &cpu::microkernel_for(cpu::active_isa());
  if (mk->nr != nr) mk = &cpu::microkernel_for(cpu::Isa::kScalar);
  const bool biased = mk->biased_acts;

  // Stage activations padded to the k-group multiple (pad weight codes are
  // zero, so pads contribute nothing) and, for a biased kernel, flipped to
  // x ^ 0x80 once here rather than once per k-group in the inner loop.
  const int8_t* xs = x.q.data();
  std::vector<int8_t> staged;
  if (kp != k || biased) {
    const uint8_t flip = biased ? 0x80 : 0x00;
    staged.assign(static_cast<size_t>(m * kp), static_cast<int8_t>(flip));
    for (int64_t t = 0; t < m; ++t) {
      const int8_t* src = x.q.row(t);
      int8_t* dst = staged.data() + t * kp;
      for (int64_t c = 0; c < k; ++c)
        dst[c] = static_cast<int8_t>(static_cast<uint8_t>(src[c]) ^ flip);
    }
    xs = staged.data();
  }

  const int64_t width = int64_t(mk->np) * nr;  // accumulator row length
  parallel_for(0, w.panels(), panel_grain(w.panels(), mk->np),
               [&](int64_t p0, int64_t p1) {
    std::vector<int32_t> acc(static_cast<size_t>(m * width));
    for (int64_t pa = p0; pa < p1; pa += mk->np) {
      const int pt = static_cast<int>(std::min<int64_t>(mk->np, p1 - pa));
      const int64_t r0 = pa * nr;
      const int64_t cols = std::min<int64_t>(int64_t(pt) * nr, w.n - r0);
      // A biased kernel's accumulators start at -128 * row_sum, which
      // cancels the +128 activation bias exactly.
      for (int64_t c = 0; c < width; ++c)
        acc[static_cast<size_t>(c)] =
            biased && c < cols ? -128 * w.row_sum[static_cast<size_t>(r0 + c)]
                               : 0;
      for (int64_t t = 1; t < m; ++t)
        std::copy(acc.begin(), acc.begin() + width, acc.begin() + t * width);
      for (int64_t c0 = 0; c0 < kp; c0 += kKcBlock) {
        const int64_t groups = std::min(kKcBlock, kp - c0) / cpu::kKGroup;
        const int8_t* sub = w.data.data() + pa * w.panel_stride() + c0 * nr;
        for (int64_t t0 = 0; t0 < m; t0 += mk->mr) {
          const int mt = static_cast<int>(std::min<int64_t>(mk->mr, m - t0));
          mk->tile(xs + t0 * kp + c0, kp, sub, w.panel_stride(), groups, mt,
                   pt, nr, acc.data() + t0 * width, width);
        }
      }
      for (int64_t t = 0; t < m; ++t)
        row_sink(t, r0, cols, acc.data() + t * width);
    }
  });
}

// The GEMM output rounding: the active ISA's FP16 row epilogue, resolved
// once per call (every ISA's rounds bitwise alike; see
// kernels/cpu/microkernel.h).
cpu::EpilogueRowFn active_epilogue() {
  return cpu::microkernel_for(cpu::active_isa()).epilogue_row;
}

int preferred_nr() {
  return cpu::microkernel_for(cpu::active_isa()).nr;
}

}  // namespace

Tensor gemm_f32_ref(const Tensor& x, const Tensor& w) {
  QS_CHECK_EQ(x.cols(), w.cols());
  const int64_t m = x.rows(), k = x.cols(), n = w.rows();
  Tensor y({m, n});
  for (int64_t t = 0; t < m; ++t) {
    const float* xr = x.row(t);
    for (int64_t r = 0; r < n; ++r) {
      const float* wr = w.row(r);
      double acc = 0.0;
      for (int64_t c = 0; c < k; ++c) acc += double(xr[c]) * double(wr[c]);
      y.at2(t, r) = static_cast<float>(acc);
    }
  }
  return y;
}

Tensor gemm_fp16w(const Tensor& x, const U16Tensor& w) {
  QS_CHECK_EQ(x.cols(), w.cols());
  const int64_t m = x.rows(), k = w.cols(), n = w.rows();
  QS_CHECK_LE(k, int64_t(std::numeric_limits<int>::max()));
  Tensor y({m, n});
  const cpu::AttentionKernels& kern =
      cpu::attention_kernel_for(cpu::active_isa());
  // Each 16-row weight group is dequantized into a zero-padded float tile
  // that every x row then reuses. A single x row (a decode step's logits)
  // reuses nothing, so a full group whose k is on the 16-lane grid is read
  // in place instead, converted exactly as it is loaded (bench_w4a8_gemm's
  // lm_head rows, one thread on an AVX-512 host: 1.8x the single-row
  // throughput of the tile, while at 8 rows the tile is 1.3x faster). Both give the same bits (the conversion is exact and padding
  // adds +0 products); x's rows are padded to match the tile.
  const int dim = cpu::padded_head_dim(static_cast<int>(k));
  Tensor xp;
  const float* xs = x.data();
  if (dim != k) {
    xp = Tensor({m, int64_t(dim)});
    for (int64_t t = 0; t < m; ++t)
      std::copy(x.row(t), x.row(t) + k, xp.row(t));
    xs = xp.data();
  }
  parallel_for(0, ceil_div(n, kFp16wRowBlock), 1, [&](int64_t b0, int64_t b1) {
    thread_local std::vector<float> tile;
    for (int64_t r0 = b0 * kFp16wRowBlock;
         r0 < std::min(n, b1 * kFp16wRowBlock); r0 += cpu::kQkLanes) {
      cpu::KvHeadRun run;
      run.kind = cpu::KvRunKind::kFp16;
      run.n_tokens = std::min<int64_t>(cpu::kQkLanes, n - r0);
      run.half_bits = w.row(r0);
      run.stride = k;
      if (m > 1 || dim != k || run.n_tokens < cpu::kQkLanes) {
        float* t = cache_aligned(tile, int64_t(cpu::kQkLanes) * dim);
        kern.dequant_run(run, static_cast<int>(k), t, dim);
        run = cpu::KvHeadRun{};  // kF32
        run.n_tokens = std::min<int64_t>(cpu::kQkLanes, n - r0);
        run.f32 = t;
        run.stride = dim;
      }
      kern.qk_tile(xs, dim, static_cast<int>(m), run, dim, y.data() + r0, n);
    }
  });
  return y;
}

I32Tensor gemm_i8i8_i32(const I8Tensor& x, const I8Tensor& w) {
  QS_CHECK_EQ(x.cols(), w.cols());
  const int64_t m = x.rows(), k = x.cols(), n = w.rows();
  I32Tensor y({m, n});
  for (int64_t t = 0; t < m; ++t) {
    const int8_t* xr = x.row(t);
    for (int64_t r = 0; r < n; ++r) {
      const int8_t* wr = w.row(r);
      int32_t acc = 0;
      for (int64_t c = 0; c < k; ++c)
        acc += int32_t(xr[c]) * int32_t(wr[c]);
      y.at2(t, r) = acc;
    }
  }
  return y;
}

Tensor gemm_blocked(const QuantizedActs& x, const PackedGemmB& w) {
  Tensor y({x.m(), w.n});
  const cpu::EpilogueRowFn epilogue = active_epilogue();
  const bool has_zp = !w.zp_term.empty();
  run_blocked(x, w, [&](int64_t t, int64_t r0, int64_t cols,
                        const int32_t* acc) {
    epilogue(acc, cols, x.s[t], w.scale.data() + r0,
             has_zp ? x.token_sum[t] : 0.0f,
             has_zp ? w.zp_term.data() + r0 : nullptr, y.row(t) + r0);
  });
  return y;
}

I32Tensor gemm_blocked_acc(const QuantizedActs& x, const PackedGemmB& w) {
  I32Tensor out({x.m(), w.n});
  run_blocked(x, w, [&](int64_t t, int64_t r0, int64_t cols,
                        const int32_t* acc) {
    std::copy(acc, acc + cols, out.row(t) + r0);
  });
  return out;
}

Tensor gemm_blocked_epilogue(const I32Tensor& acc, const QuantizedActs& x,
                             const std::vector<float>& scale,
                             const std::vector<float>& zp_term) {
  const int64_t m = acc.rows(), n = acc.cols();
  QS_CHECK_EQ(m, x.m());
  QS_CHECK_EQ(n, static_cast<int64_t>(scale.size()));
  const bool has_zp = !zp_term.empty();
  if (has_zp) QS_CHECK_EQ(n, static_cast<int64_t>(zp_term.size()));
  Tensor y({m, n});
  const cpu::EpilogueRowFn epilogue = active_epilogue();
  parallel_for(0, m, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t)
      epilogue(acc.row(t), n, x.s[t], scale.data(),
               has_zp ? x.token_sum[t] : 0.0f,
               has_zp ? zp_term.data() : nullptr, y.row(t));
  });
  return y;
}

Tensor gemm_w8a8(const QuantizedActs& x, const W8PerChannel& w) {
  QS_CHECK_EQ(x.k(), w.k());
  return gemm_blocked(x, pack_gemm_b(w, preferred_nr()));
}

Tensor gemm_w4a8_per_channel(const QuantizedActs& x, const W4PerChannel& w) {
  QS_CHECK_EQ(x.k(), w.k());
  // Main loop MACs the raw UINT4 codes against INT8 activations; the
  // zero-point correction -tX * (z*s) happens once per output in the
  // epilogue (subtraction after multiplication, Eq. 12/13).
  return gemm_blocked(x, pack_gemm_b(w, preferred_nr()));
}

Tensor gemm_w4a8_per_group(const QuantizedActs& x, const W4PerGroup& w) {
  QS_CHECK_EQ(x.k(), w.k());
  // Packing performs the level-2 dequant (q - z) * s1 to integer level-1
  // codes (the protective range guarantees they fit INT8; the naive range
  // wraps, reproducing the paper's Fig. 6 overflow); the blocked GEMM then
  // runs entirely on the INT8 path. The SWAR-faithful version of the dequant
  // is exercised by the streamed kernel below; the arithmetic is identical.
  return gemm_blocked(x, pack_gemm_b(w, preferred_nr()));
}

Tensor gemm_w4a8_per_group_streamed(const QuantizedActs& x,
                                    const W4PerGroup& w,
                                    const ReorderedW4& stream,
                                    const ReorderedGroupMeta& meta) {
  QS_CHECK_EQ(x.k(), w.k());
  QS_CHECK_EQ(stream.n, w.n());
  QS_CHECK_EQ(stream.k, w.k());
  const int64_t m = x.m(), n = w.n();

  // Single-token decode against a large weight stream: every fragment feeds
  // exactly one output, so the sequential stream walk buys nothing and the
  // per-fragment bookkeeping dominates. Route to the plain kernel (bitwise
  // identical, and it takes the blocked SIMD path).
  if (m == 1 && n * w.k() >= kStreamedDecodeBypassElems)
    return gemm_w4a8_per_group(x, w);

  I32Tensor acc({m, n});

  // Walk the stream in storage order — one pass, no per-fragment index
  // arithmetic beyond the tile bookkeeping a real thread block keeps.
  size_t pos = 0;
  for (int64_t nt = 0; nt < stream.n_tiles(); ++nt) {
    for (int64_t kt = 0; kt < stream.k_tiles(); ++kt) {
      for (int t = 0; t < kThreadsPerTile; ++t) {
        for (int j = 0; j < kWordsPerThread; ++j, ++pos) {
          const uint32_t word = stream.words[pos];
          const uint8_t s1 = meta.s1[pos];
          const uint8_t z = meta.z[pos];
          // Figure 13 unpack + Figure 14b sub-after-mul dequant, both on
          // packed 32-bit registers.
          const UnpackedU4x8 u = unpack_u4x8(word);
          const uint32_t lo = dequant4_sub_after_mul(u.low, s1, z);
          const uint32_t hi = dequant4_sub_after_mul(u.high, s1, z);
          const int64_t row = nt * kTileN + tile_out_channel(t, j);
          for (int64_t tok = 0; tok < m; ++tok) {
            const int8_t* xr = x.q.row(tok);
            int32_t a = 0;
            for (int l = 0; l < 4; ++l) {
              const int64_t ca = kt * kTileK + tile_in_channel_a(t, l);
              const int64_t cb = kt * kTileK + tile_in_channel_b(t, l);
              a += int32_t(xr[ca]) * int32_t(lane_s8(lo, l));
              a += int32_t(xr[cb]) * int32_t(lane_s8(hi, l));
            }
            acc.at2(tok, row) += a;
          }
        }
      }
    }
  }

  Tensor y({m, n});
  for (int64_t tok = 0; tok < m; ++tok)
    for (int64_t r = 0; r < n; ++r)
      y.at2(tok, r) =
          to_half_precision(float(acc.at2(tok, r)) * x.s[tok] * w.s0[r]);
  return y;
}

Tensor gemm_w4a4_atom(const QuantizedActs& x, const W4A4PerGroup& w) {
  QS_CHECK_EQ(x.k(), w.k());
  const int64_t m = x.m(), k = x.k(), n = w.n();
  const int64_t ng = k / w.group;
  Tensor y({m, n});
  for (int64_t t = 0; t < m; ++t) {
    const int8_t* xr = x.q.row(t);
    const float sx = x.s[t];
    for (int64_t r = 0; r < n; ++r) {
      const int8_t* wr = w.qw.row(r);
      // Per-group INT32 partial sums dequantized to FP32 *inside* the main
      // loop — the CUDA-core bottleneck of Fig. 5c.
      float acc = 0.0f;
      for (int64_t g = 0; g < ng; ++g) {
        const int64_t base = g * w.group;
        int32_t partial = 0;
        for (int64_t c = 0; c < w.group; ++c)
          partial += int32_t(xr[base + c]) * int32_t(wr[base + c]);
        acc += float(partial) * sx * w.s.at2(r, g);
      }
      y.at2(t, r) = to_half_precision(acc);
    }
  }
  return y;
}

Tensor gemm_w4a16(const Tensor& x, const W4A16PerGroup& w) {
  QS_CHECK_EQ(x.cols(), w.k());
  const int64_t m = x.rows(), k = x.cols(), n = w.n();
  Tensor y({m, n});
  for (int64_t r = 0; r < n; ++r) {
    // Main-loop INT4 -> FP16 weight dequantization (Fig. 5b).
    std::vector<float> wrow(static_cast<size_t>(k));
    for (int64_t c = 0; c < k; ++c) {
      const int64_t g = c / w.group;
      wrow[static_cast<size_t>(c)] = to_half_precision(
          float(int(get_u4(w.qw, r, c)) - int(w.z.at2(r, g))) *
          w.s.at2(r, g));
    }
    for (int64_t t = 0; t < m; ++t) {
      const float* xr = x.row(t);
      float acc = 0.0f;
      for (int64_t c = 0; c < k; ++c)
        acc += xr[c] * wrow[static_cast<size_t>(c)];
      y.at2(t, r) = to_half_precision(acc);
    }
  }
  return y;
}

}  // namespace qserve
