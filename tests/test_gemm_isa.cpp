// Cross-ISA equivalence of the GEMM microkernel subsystem: the scalar, AVX2
// and AVX-512 VNNI paths must produce bitwise-identical INT32 accumulators
// and FP16 outputs for every quant scheme, across m in {1, 7, 64}, odd n/k,
// mixed activation magnitudes (including rows whose codes clamp to -128),
// and both protective-range and naive-range (deliberate INT8 overflow)
// per-group weights; every token-tile and panel-tile remainder at 1 and 8
// threads; and the FP16 row epilogue against software rounding. Also covers
// the QSERVE_ISA override plumbing and the streamed kernel's single-token
// bypass.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/cpu/isa.h"
#include "kernels/cpu/microkernel.h"
#include "kernels/gemm.h"
#include "kernels/weight_layout.h"
#include "model/quantized_model.h"
#include "model/weights.h"
#include "quant/quantize.h"

namespace qserve {
namespace {

using cpu::Isa;

// RAII: pin an ISA for a scope, always return control to env/detection.
struct IsaGuard {
  explicit IsaGuard(Isa isa) { cpu::set_isa(isa); }
  ~IsaGuard() { cpu::clear_isa_override(); }
};

std::vector<Isa> supported_isas() {
  std::vector<Isa> v{Isa::kScalar};
  if (static_cast<int>(cpu::detected_isa()) >= static_cast<int>(Isa::kAvx2))
    v.push_back(Isa::kAvx2);
  if (static_cast<int>(cpu::detected_isa()) >= static_cast<int>(Isa::kAvx512))
    v.push_back(Isa::kAvx512);
  return v;
}

// Activations spanning ~12 orders of magnitude across rows: tiny rows push
// the FP16 subnormal scale path where codes can clamp to -128, exercising
// the full operand range of the SIMD tricks.
Tensor random_acts(int64_t m, int64_t k, uint64_t seed) {
  Rng rng(seed);
  Tensor t({m, k});
  for (int64_t r = 0; r < m; ++r) {
    const float row_scale = std::pow(10.0f, float(r % 13) - 6.0f);
    for (int64_t c = 0; c < k; ++c)
      t.at2(r, c) = rng.heavy_tailed(row_scale);
  }
  return t;
}

Tensor random_weights(int64_t n, int64_t k, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n, k});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.heavy_tailed();
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* tag) {
  ASSERT_TRUE(a.same_shape(b)) << tag;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(float) * static_cast<size_t>(a.numel())))
      << tag;
}

void expect_bitwise_equal(const I32Tensor& a, const I32Tensor& b,
                          const char* tag) {
  ASSERT_TRUE(a.same_shape(b)) << tag;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(int32_t) * static_cast<size_t>(a.numel())))
      << tag;
}

// Run `gemm(qx)` (a plain-API kernel) and `pack()` + accumulators under every
// supported ISA and require bitwise identity with the scalar result.
template <typename Weights, typename GemmFn>
void check_all_isas(const QuantizedActs& qx, const Weights& qw,
                    const GemmFn& gemm, const char* tag) {
  Tensor y_scalar;
  I32Tensor acc_scalar;
  {
    IsaGuard guard(Isa::kScalar);
    y_scalar = gemm(qx, qw);
    acc_scalar = gemm_blocked_acc(
        qx, pack_gemm_b(qw, cpu::microkernel_for(Isa::kScalar).nr));
  }
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    const Tensor y = gemm(qx, qw);
    const I32Tensor acc =
        gemm_blocked_acc(qx, pack_gemm_b(qw, cpu::microkernel_for(isa).nr));
    SCOPED_TRACE(std::string(tag) + " isa=" + cpu::isa_name(isa));
    expect_bitwise_equal(y_scalar, y, tag);
    expect_bitwise_equal(acc_scalar, acc, tag);
  }
}

struct Shape {
  int64_t m, n, k;
  int group;  // for per-group schemes; must divide k
};

const Shape kShapes[] = {
    {1, 33, 131, 131},   // odd n, odd (prime) k, group == k
    {7, 17, 96, 32},     // panel remainder rows, multiple groups
    {7, 64, 256, 128},   // aligned shape, two groups
    {64, 48, 132, 66},   // prefill-sized m, odd-ish n/k
};

TEST(GemmIsaEquivalence, W8A8) {
  uint64_t seed = 100;
  for (const Shape& s : kShapes) {
    const auto qx = quantize_acts_per_token(random_acts(s.m, s.k, seed++));
    const auto qw = quantize_w8_per_channel(random_weights(s.n, s.k, seed++));
    check_all_isas(qx, qw,
                   [](const QuantizedActs& x, const W8PerChannel& w) {
                     return gemm_w8a8(x, w);
                   },
                   "w8a8");
  }
}

TEST(GemmIsaEquivalence, W4A8PerChannel) {
  uint64_t seed = 200;
  for (const Shape& s : kShapes) {
    const auto qx = quantize_acts_per_token(random_acts(s.m, s.k, seed++));
    const auto qw = quantize_w4_per_channel(random_weights(s.n, s.k, seed++));
    check_all_isas(qx, qw,
                   [](const QuantizedActs& x, const W4PerChannel& w) {
                     return gemm_w4a8_per_channel(x, w);
                   },
                   "w4a8_per_channel");
  }
}

TEST(GemmIsaEquivalence, W4A8PerGroupProtectiveRange) {
  uint64_t seed = 300;
  for (const Shape& s : kShapes) {
    const auto qx = quantize_acts_per_token(random_acts(s.m, s.k, seed++));
    const auto qw = quantize_progressive(random_weights(s.n, s.k, seed++),
                                         {.group = s.group});
    check_all_isas(qx, qw,
                   [](const QuantizedActs& x, const W4PerGroup& w) {
                     return gemm_w4a8_per_group(x, w);
                   },
                   "w4a8_per_group");
  }
}

TEST(GemmIsaEquivalence, W4A8PerGroupNaiveRangeOverflowWraps) {
  // level1_range = 127 makes (q - z) * s1 overflow INT8 (the Fig. 6 accuracy
  // bug); the wrap must be identical on every ISA — including the -128 codes
  // that break vpmaddubsw-style sign-splitting tricks.
  uint64_t seed = 400;
  for (const Shape& s : kShapes) {
    const auto qx = quantize_acts_per_token(random_acts(s.m, s.k, seed++));
    const auto qw =
        quantize_progressive(random_weights(s.n, s.k, seed++),
                             {.group = s.group, .level1_range = 127});
    check_all_isas(qx, qw,
                   [](const QuantizedActs& x, const W4PerGroup& w) {
                     return gemm_w4a8_per_group(x, w);
                   },
                   "w4a8_per_group_naive");
  }
}

TEST(GemmIsaEquivalence, Fp16WeightLinear) {
  // The FP16 QuantizedLinear (the LM head of every scheme) runs gemm_fp16w:
  // binary16 weight bits dotted in the attention QK kernel's canonical
  // 16-lane order. Checks, per shape: bitwise identity across ISA x {1, 8}
  // threads; row t of an m-row call equals the 1-row call on that row; and
  // FP32 accumulation stays within the summation error bound of the double
  // reference on the same half-rounded weights. The odd k (131, 96 and 132
  // are not multiples of 16) exercise the kernel's lane tail; n is taken
  // both as listed and widened past several 64-row blocks with a partial
  // last block.
  uint64_t seed = 500;
  for (const Shape& s : kShapes) {
    for (const int64_t n : {s.n, 4 * s.n + 1}) {
      SCOPED_TRACE("m=" + std::to_string(s.m) + " n=" + std::to_string(n) +
                   " k=" + std::to_string(s.k));
      const Tensor x = random_acts(s.m, s.k, seed++);
      const Tensor w = random_weights(n, s.k, seed++);

      const QuantizedLinear lin(w, QuantSchemeConfig::fp16());
      Tensor ref;
      {
        IsaGuard guard(Isa::kScalar);
        set_num_threads(1);
        ref = lin.apply(x);
      }
      for (Isa isa : supported_isas()) {
        for (int threads : {1, 8}) {
          IsaGuard guard(isa);
          set_num_threads(threads);
          SCOPED_TRACE(std::string(cpu::isa_name(isa)) +
                       " threads=" + std::to_string(threads));
          expect_bitwise_equal(ref, lin.apply(x), "fp16w_isa_threads");
          for (int64_t t = 0; t < s.m; ++t) {
            Tensor xt({1, s.k});
            std::copy(x.row(t), x.row(t) + s.k, xt.data());
            const Tensor yt = lin.apply(xt);
            EXPECT_EQ(0, std::memcmp(ref.row(t), yt.data(),
                                     sizeof(float) * static_cast<size_t>(n)))
                << "row " << t << " of the m-row call differs from 1-row";
          }
        }
      }
      set_num_threads(0);

      // Reference: the serial double-accumulating loop on the same
      // half-rounded weights. Each FP32 dot rounds one product and at most
      // ceil(k/16) lane adds, 4 fold adds, and the reference rounds its
      // double sum once, so |y - ref| <= (ceil(k/16) + 6) * 2^-24 *
      // sum_c |x_c * w_c| to first order; the bound doubles that.
      Tensor wh = w;
      for (int64_t i = 0; i < wh.numel(); ++i)
        wh[i] = to_half_precision(wh[i]);
      const Tensor dref = gemm_f32_ref(x, wh);
      const double u = std::ldexp(1.0, -24);
      const double terms = double((s.k + 15) / 16 + 6);
      for (int64_t t = 0; t < s.m; ++t) {
        for (int64_t r = 0; r < n; ++r) {
          double mag = 0.0;
          for (int64_t c = 0; c < s.k; ++c)
            mag += std::fabs(double(x.at2(t, c)) * double(wh.at2(r, c)));
          ASSERT_LE(std::fabs(double(ref.at2(t, r)) - double(dref.at2(t, r))),
                    2.0 * terms * u * mag)
              << "t=" << t << " r=" << r;
        }
      }
    }
  }
}

TEST(GemmIsaEquivalence, ModelLogitsBitwiseIdentical) {
  // End-to-end: a toy model quantized+packed under each ISA produces
  // bit-identical logits (attention/normalization are FP paths shared by all
  // ISAs; every INT8 GEMM goes through the dispatched blocked driver).
  const ModelWeights weights = make_synthetic_weights(toy_config(2));
  std::vector<int> tokens;
  for (int i = 0; i < 12; ++i) tokens.push_back((7 * i + 3) % 512);

  Tensor ref;
  {
    IsaGuard guard(Isa::kScalar);
    QuantizedModel qm(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
    ref = qm.forward(tokens);
  }
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    QuantizedModel qm(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
    SCOPED_TRACE(cpu::isa_name(isa));
    expect_bitwise_equal(ref, qm.forward(tokens), "model_logits");
  }
}

TEST(GemmIsaEquivalence, MismatchedPackWidthFallsBackCorrectly) {
  // Pack under one ISA, run under another: the driver must fall back to the
  // scalar microkernel (any nr) and still match bitwise.
  const auto qx = quantize_acts_per_token(random_acts(5, 96, 900));
  const auto qw = quantize_w8_per_channel(random_weights(24, 96, 901));
  Tensor ref;
  PackedGemmB packed;
  {
    IsaGuard guard(Isa::kScalar);
    ref = gemm_w8a8(qx, qw);
    packed = pack_gemm_b(qw, cpu::microkernel_for(Isa::kScalar).nr);
  }
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    SCOPED_TRACE(cpu::isa_name(isa));
    expect_bitwise_equal(ref, gemm_blocked(qx, packed), "fallback");
  }
}

// A 1-row activation batch holding row t of `x`.
QuantizedActs act_row(const QuantizedActs& x, int64_t t) {
  QuantizedActs row;
  row.q = I8Tensor({1, x.k()});
  std::copy(x.q.row(t), x.q.row(t) + x.k(), row.q.data());
  row.s = Tensor({1});
  row.s[0] = x.s[t];
  row.token_sum = Tensor({1});
  row.token_sum[0] = x.token_sum[t];
  return row;
}

// Under every ISA at 1 and 8 threads: gemm_blocked equals the scalar
// kernel's output bitwise; the accumulators plus gemm_blocked_epilogue (the
// tensor-parallel all-reduce path) equal gemm_blocked; and row t of the
// m-row call equals the 1-row call on that row. Returns how many packed
// codes are -128 (the naive-range wrap) so callers can assert coverage.
template <typename Weights>
int64_t check_tile_edges(const QuantizedActs& qx, const Weights& qw) {
  Tensor ref;
  {
    IsaGuard guard(Isa::kScalar);
    set_num_threads(1);
    ref = gemm_blocked(
        qx, pack_gemm_b(qw, cpu::microkernel_for(Isa::kScalar).nr));
  }
  int64_t wrapped_codes = 0;
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    const PackedGemmB packed = pack_gemm_b(qw, cpu::microkernel_for(isa).nr);
    wrapped_codes +=
        std::count(packed.data.begin(), packed.data.end(), int8_t(-128));
    for (int threads : {1, 8}) {
      set_num_threads(threads);
      SCOPED_TRACE(std::string(cpu::isa_name(isa)) +
                   " threads=" + std::to_string(threads));
      const Tensor y = gemm_blocked(qx, packed);
      expect_bitwise_equal(ref, y, "tile vs scalar");
      expect_bitwise_equal(
          y,
          gemm_blocked_epilogue(gemm_blocked_acc(qx, packed), qx,
                                packed.scale, packed.zp_term),
          "acc + epilogue vs gemm_blocked");
      for (int64_t t = 0; t < qx.m(); ++t) {
        const Tensor yt = gemm_blocked(act_row(qx, t), packed);
        EXPECT_EQ(0, std::memcmp(y.row(t), yt.data(),
                                 sizeof(float) * static_cast<size_t>(y.cols())))
            << "row " << t << " of the m-row call differs from 1-row";
      }
    }
  }
  set_num_threads(0);
  return wrapped_codes;
}

TEST(GemmIsaEquivalence, TileEdgesEverySchemeIsaAndThreadCount) {
  // m crosses every token-tile remainder (mr = 4 on every ISA) up to a
  // 128-row prefill; n crosses every panel-tile remainder: 17 is one full
  // AVX-512 panel plus one row, 48 three panels (a 3-panel tile), 80 a full
  // 4-panel tile plus one, 1000 a partial last panel. k = 99 is odd, so
  // every staged activation row carries pad bytes (0x80 on the biased VNNI
  // path) against zero pad codes.
  const int64_t k = 99;
  const int group = 33;
  uint64_t seed = 1000;
  int64_t naive_wrapped_codes = 0;
  for (const int64_t m : {1, 2, 3, 4, 5, 8, 9, 128}) {
    for (const int64_t n : {17, 48, 80, 1000}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));
      const auto qx = quantize_acts_per_token(random_acts(m, k, seed++));
      const Tensor w = random_weights(n, k, seed++);
      {
        SCOPED_TRACE("w8a8");
        check_tile_edges(qx, quantize_w8_per_channel(w));
      }
      {
        SCOPED_TRACE("w4a8_per_channel");
        check_tile_edges(qx, quantize_w4_per_channel(w));
      }
      {
        SCOPED_TRACE("w4a8_per_group");
        check_tile_edges(qx, quantize_progressive(w, {.group = group}));
      }
      {
        SCOPED_TRACE("w4a8_per_group_naive");
        naive_wrapped_codes += check_tile_edges(
            qx, quantize_progressive(w, {.group = group, .level1_range = 127}));
      }
    }
  }
  // The naive range must actually have produced wrapped -128 codes.
  EXPECT_GT(naive_wrapped_codes, 0);
}

// --- the FP16 row epilogue ---------------------------------------------------

// Every ISA's epilogue row must round through FP16 exactly like
// to_half_precision(). NaN payloads are the only permitted difference: F16C
// keeps the top payload bits, to_half_precision() emits one canonical quiet
// NaN, so a NaN is checked by class only. With acc = 1, s = 1 and no zero
// point, v = scale[r] exactly, so each scale entry probes one float.
TEST(GemmEpilogue, SimdFp16RoundTripMatchesSoftwareRounding) {
  using detail::bit_cast;
  std::vector<float> probes;
  const uint32_t specials[] = {
      0x00000000u, 0x80000000u,  // +-0
      0x7F800000u, 0xFF800000u,  // +-inf
      0x33000000u, 0x33000001u,  // 2^-25: tie between 0 and the min subnormal
      0x337FFFFFu, 0x33800000u,  // around the min half subnormal 2^-24
      0x387FC000u, 0x38800000u,  // max half subnormal / min half normal
      0x00000001u, 0x007FFFFFu,  // float subnormals (underflow to +-0)
  };
  for (uint32_t b : specials) probes.push_back(bit_cast<float>(b));
  for (float f : {65504.0f, 65519.996f, 65520.0f, 65536.0f, 1e6f, 3.4e38f})
    probes.push_back(f);
  // Every tie between adjacent finite halves (normal and subnormal), and one
  // float ulp either side of it, with both signs.
  for (uint16_t h = 0; h < 0x7BFF; ++h) {
    const float a = detail::half_bits_to_float(h);
    const float b = detail::half_bits_to_float(static_cast<uint16_t>(h + 1));
    const float mid = (a + b) * 0.5f;  // exact: 12 significant bits
    for (float f : {mid, std::nextafter(mid, 0.0f),
                    std::nextafter(mid, 70000.0f)}) {
      probes.push_back(f);
      probes.push_back(-f);
    }
  }
  // Random finite floats: half over every bit pattern, half concentrated in
  // and around the binary16 range.
  Rng rng(77);
  std::mt19937 bits(78);
  for (int i = 0; i < (1 << 19); ++i) {
    uint32_t b = bits();
    if ((b & 0x7F800000u) == 0x7F800000u) b ^= 0x40000000u;  // keep finite
    probes.push_back(bit_cast<float>(b));
  }
  for (int i = 0; i < (1 << 19) + 13; ++i) {  // odd total: masked tail
    const float mant = rng.uniform(1.0f, 2.0f);
    const int exp = static_cast<int>(bits() % 48) - 30;  // 2^-30 .. 2^17
    probes.push_back((bits() & 1 ? -1.0f : 1.0f) * std::ldexp(mant, exp));
  }
  probes.push_back(std::numeric_limits<float>::quiet_NaN());

  const int64_t n = static_cast<int64_t>(probes.size());
  ASSERT_GE(n, 1000000);
  const std::vector<int32_t> ones(probes.size(), 1);
  for (Isa isa : supported_isas()) {
    SCOPED_TRACE(cpu::isa_name(isa));
    std::vector<float> y(probes.size());
    cpu::microkernel_for(isa).epilogue_row(ones.data(), n, 1.0f, probes.data(),
                                           0.0f, nullptr, y.data());
    int64_t mismatches = 0;
    for (int64_t i = 0; i < n; ++i) {
      const float want = to_half_precision(probes[size_t(i)]);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(y[size_t(i)])) << i;
        continue;
      }
      if (bit_cast<uint32_t>(want) != bit_cast<uint32_t>(y[size_t(i)])) {
        if (++mismatches <= 5)
          ADD_FAILURE() << "probe " << std::hexfloat << probes[size_t(i)]
                        << ": got " << y[size_t(i)] << ", want " << want;
      }
    }
    EXPECT_EQ(0, mismatches);
  }
}

TEST(GemmEpilogue, ZeroPointRowMatchesScalarOnEveryIsa) {
  // The full row expression, zero-point term included: every ISA equals the
  // scalar row bitwise at every row length (masked tails included). The
  // zero-point term is drawn to nearly cancel the main term, as it does for
  // real per-channel W4A8 rows, so a fused multiply-add on either side would
  // show.
  Rng rng(79);
  const float s = 0.0123f, tsum = 37.5f;
  for (const int64_t n : {1, 7, 8, 15, 16, 17, 100, 1000}) {
    const size_t len = static_cast<size_t>(n);
    std::vector<int32_t> acc(len);
    std::vector<float> scale(len), zp(len);
    for (size_t r = 0; r < len; ++r) {
      acc[r] = static_cast<int32_t>(rng.uniform(-2e6f, 2e6f));
      scale[r] = rng.uniform(1e-4f, 1e-2f);
      zp[r] = float(acc[r]) * s * scale[r] / tsum *
              (1.0f + rng.uniform(-1e-3f, 1e-3f));
    }
    std::vector<float> want(len);
    cpu::microkernel_for(Isa::kScalar)
        .epilogue_row(acc.data(), n, s, scale.data(), tsum, zp.data(),
                      want.data());
    for (Isa isa : supported_isas()) {
      std::vector<float> got(len);
      cpu::microkernel_for(isa).epilogue_row(acc.data(), n, s, scale.data(),
                                             tsum, zp.data(), got.data());
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(), sizeof(float) * len))
          << cpu::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(GemmIsaEquivalence, StreamedM1BypassMatchesStreamWalk) {
  // Above the bypass threshold the streamed kernel reroutes m == 1 calls to
  // the plain (blocked) kernel; below it, it walks the stream. Both paths
  // must agree bitwise with the plain kernel (n, k multiples of 32 as the
  // stream layout requires). 128x128 = 16384 elements hits the threshold.
  for (int64_t n : {64, 128}) {
    const int64_t k = 128;
    const auto qx = quantize_acts_per_token(random_acts(1, k, 950 + n));
    const auto qw =
        quantize_progressive(random_weights(n, k, 960 + n), {.group = 128});
    const auto stream = reorder_w4_for_compute(qw.qw);
    const auto meta = reorder_group_meta(qw);
    const Tensor plain = gemm_w4a8_per_group(qx, qw);
    const Tensor streamed = gemm_w4a8_per_group_streamed(qx, qw, stream, meta);
    SCOPED_TRACE(n);
    expect_bitwise_equal(plain, streamed, "streamed_m1");
  }
}

// --- dispatch plumbing -------------------------------------------------------

TEST(IsaDispatch, ParseAndNames) {
  EXPECT_EQ(Isa::kScalar, cpu::parse_isa("scalar"));
  EXPECT_EQ(Isa::kAvx2, cpu::parse_isa("avx2"));
  EXPECT_EQ(Isa::kAvx512, cpu::parse_isa("avx512"));
  EXPECT_EQ(Isa::kAvx512, cpu::parse_isa("avx512vnni"));
  EXPECT_EQ(std::nullopt, cpu::parse_isa("neon"));
  EXPECT_EQ(std::nullopt, cpu::parse_isa(""));
  EXPECT_EQ(std::nullopt, cpu::parse_isa(nullptr));
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512})
    EXPECT_EQ(isa, cpu::parse_isa(cpu::isa_name(isa)));
}

TEST(IsaDispatch, EnvOverrideForcesIsaAndClampsToDetected) {
  cpu::clear_isa_override();
  ASSERT_EQ(0, setenv("QSERVE_ISA", "scalar", 1));
  EXPECT_EQ(Isa::kScalar, cpu::active_isa());
  // Requests above the host's capability clamp down instead of faulting.
  ASSERT_EQ(0, setenv("QSERVE_ISA", "avx512", 1));
  EXPECT_EQ(static_cast<int>(cpu::detected_isa()) >=
                    static_cast<int>(Isa::kAvx512)
                ? Isa::kAvx512
                : cpu::detected_isa(),
            cpu::active_isa());
  // Unrecognized values fall back to detection.
  ASSERT_EQ(0, setenv("QSERVE_ISA", "quantum", 1));
  EXPECT_EQ(cpu::detected_isa(), cpu::active_isa());
  ASSERT_EQ(0, unsetenv("QSERVE_ISA"));
  EXPECT_EQ(cpu::detected_isa(), cpu::active_isa());
}

TEST(IsaDispatch, SetIsaWinsOverEnv) {
  ASSERT_EQ(0, setenv("QSERVE_ISA", "avx2", 1));
  {
    IsaGuard guard(Isa::kScalar);
    EXPECT_EQ(Isa::kScalar, cpu::active_isa());
  }
  ASSERT_EQ(0, unsetenv("QSERVE_ISA"));
}

TEST(IsaDispatch, MicrokernelTableIsConsistent) {
  for (Isa isa : supported_isas()) {
    const cpu::Microkernel& mk = cpu::microkernel_for(isa);
    EXPECT_EQ(isa, mk.isa) << cpu::isa_name(isa);
    EXPECT_GT(mk.nr, 0);
    EXPECT_GT(mk.mr, 0);
    EXPECT_GT(mk.np, 0);
    EXPECT_NE(nullptr, mk.tile);
    EXPECT_NE(nullptr, mk.epilogue_row);
  }
  // Unsupported ISAs resolve to a usable kernel rather than nullptr.
  const cpu::Microkernel& fallback = cpu::microkernel_for(Isa::kAvx512);
  EXPECT_NE(nullptr, fallback.tile);
}

}  // namespace
}  // namespace qserve
