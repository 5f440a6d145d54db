#include "model/quantized_model.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "common/half.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "kernels/attention.h"
#include "kernels/cpu/microkernel.h"
#include "kernels/gemm.h"
#include "kernels/ops.h"
#include "kvcache/fused_attention.h"
#include "quant/quantize.h"

namespace qserve {

namespace {

// Tensor parallelism is restricted to the schemes whose GEMMs accumulate in
// exact INT32 — that is what makes the row-parallel all-reduce bitwise
// (integer partials from disjoint k-slices sum exactly in any order).
bool int8_path_scheme(WeightScheme w) {
  return w == WeightScheme::kW8PerChannel ||
         w == WeightScheme::kW4PerChannel ||
         w == WeightScheme::kW4PerGroupProgressive;
}

int resolve_tp_shards(const ModelConfig& cfg, const QuantSchemeConfig& qcfg,
                      const TpConfig& tp) {
  const int max_feasible =
      int8_path_scheme(qcfg.weights) ? cfg.n_kv_heads : 1;
  if (tp.n_shards == 0) {
    // Runtime default: clamp silently — QSERVE_TP_SHARDS applies to every
    // model in the process, shardable or not.
    return std::max(1, std::min(tp_shards(), max_feasible));
  }
  QS_CHECK_MSG(tp.n_shards >= 1, "TpConfig.n_shards must be >= 1 (0 = auto)");
  if (tp.n_shards > 1) {
    QS_CHECK_MSG(int8_path_scheme(qcfg.weights),
                 "tensor parallelism requires an INT8-path weight scheme "
                 "(W8A8 or W4A8)");
    QS_CHECK_MSG(tp.n_shards <= cfg.n_kv_heads,
                 "TpConfig.n_shards "
                     << tp.n_shards << " exceeds n_kv_heads "
                     << cfg.n_kv_heads << " (GQA group "
                     << cfg.n_heads / cfg.n_kv_heads
                     << ": each shard must carry at least one KV head with "
                        "its whole query-head group)");
  }
  return tp.n_shards;
}

// Column slice [c0, c1) of centrally quantized activations: shard-local
// codes, shared FULL-row per-token scale and token sum — the row-parallel
// input contract (the quantizer must see every column of a row, so shards
// slice codes, never re-quantize).
QuantizedActs slice_acts_cols(const QuantizedActs& x, int64_t c0, int64_t c1) {
  QuantizedActs out;
  out.q = I8Tensor({x.m(), c1 - c0});
  for (int64_t t = 0; t < x.m(); ++t)
    std::copy(x.q.row(t) + c0, x.q.row(t) + c1, out.q.row(t));
  out.s = x.s;
  out.token_sum = x.token_sum;
  return out;
}

// All-reduce of per-shard INT32 partial accumulators over the fixed pairwise
// summation tree (math_util.h). Integer sums are exact in any order, but the
// fixed tree keeps the reduction's definition shard-count-explicit and
// matches the float helper the tests pin down.
I32Tensor reduce_partials(const std::vector<I32Tensor>& parts) {
  const int64_t s_count = static_cast<int64_t>(parts.size());
  QS_CHECK_GT(s_count, 0);
  I32Tensor out({parts[0].rows(), parts[0].cols()});
  for (const I32Tensor& p : parts) QS_CHECK(p.same_shape(out));
  parallel_for(0, out.numel(), 1024, [&](int64_t lo, int64_t hi) {
    thread_local std::vector<int32_t> vals;
    vals.resize(static_cast<size_t>(s_count));
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t s = 0; s < s_count; ++s)
        vals[static_cast<size_t>(s)] = parts[static_cast<size_t>(s)][i];
      out[i] = pairwise_tree_sum(vals.data(), s_count);
    }
  });
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Reduction boundary (comm): concatenate per-shard column slices — slice s
// lands at column col0(s) — back into full [rows, cols] rows, adding the
// copy time to `comm_seconds`. A single part already is the full matrix and
// is moved out untouched.
template <typename Col0>
Tensor concat_cols(std::vector<Tensor>& parts, int64_t cols, Col0 col0,
                   double& comm_seconds) {
  if (parts.size() == 1) return std::move(parts[0]);
  const auto t0 = std::chrono::steady_clock::now();
  Tensor out({parts[0].rows(), cols});
  for (size_t s = 0; s < parts.size(); ++s) {
    const Tensor& p = parts[s];
    const int64_t c0 = col0(static_cast<int>(s));
    for (int64_t t = 0; t < p.rows(); ++t)
      std::copy(p.row(t), p.row(t) + p.cols(), out.row(t) + c0);
  }
  comm_seconds += seconds_since(t0);
  return out;
}

}  // namespace

// --- scheme presets -----------------------------------------------------------

QuantSchemeConfig QuantSchemeConfig::qserve_w4a8kv4_g128() {
  QuantSchemeConfig c;
  c.weights = WeightScheme::kW4PerGroupProgressive;
  c.acts = ActScheme::kInt8PerToken;
  c.kv = KvPrecision::kInt4;
  return c;
}

QuantSchemeConfig QuantSchemeConfig::qserve_w4a8kv4_per_channel() {
  QuantSchemeConfig c = qserve_w4a8kv4_g128();
  c.weights = WeightScheme::kW4PerChannel;
  return c;
}

QuantSchemeConfig QuantSchemeConfig::trt_w8a8() {
  QuantSchemeConfig c;
  c.weights = WeightScheme::kW8PerChannel;
  c.acts = ActScheme::kInt8PerToken;
  c.kv = KvPrecision::kInt8;
  c.fp16_attention = false;
  return c;
}

QuantSchemeConfig QuantSchemeConfig::trt_w4a16() {
  QuantSchemeConfig c;
  c.weights = WeightScheme::kW4A16Group;
  c.acts = ActScheme::kFp16;
  c.kv = KvPrecision::kFp16;
  c.fp16_attention = false;
  return c;
}

QuantSchemeConfig QuantSchemeConfig::atom_w4a4() {
  QuantSchemeConfig c;
  c.weights = WeightScheme::kW4A4Group;
  c.acts = ActScheme::kInt4PerToken;
  c.kv = KvPrecision::kInt4;
  c.fp16_attention = false;
  return c;
}

QuantSchemeConfig QuantSchemeConfig::fp16() {
  QuantSchemeConfig c;
  c.weights = WeightScheme::kFp16;
  c.acts = ActScheme::kFp16;
  c.kv = KvPrecision::kFp16;
  c.fp16_attention = false;
  return c;
}

// --- QuantizedLinear -----------------------------------------------------------

QuantizedLinear::QuantizedLinear(const Tensor& w,
                                 const QuantSchemeConfig& cfg)
    : QuantizedLinear(w, cfg, {PackSlice{0, w.rows(), 0, w.cols()}}) {}

QuantizedLinear::QuantizedLinear(const Tensor& w, const QuantSchemeConfig& cfg,
                                 const std::vector<PackSlice>& shard_slices)
    : scheme_(cfg.weights), n_(w.rows()) {
  QS_CHECK_MSG(!shard_slices.empty(), "QuantizedLinear needs a slice");
  const PackSlice& s0 = shard_slices[0];
  QS_CHECK_MSG(int8_path_scheme(scheme_) ||
                   (shard_slices.size() == 1 && s0.row0 == 0 &&
                    s0.row1 == w.rows() && s0.col0 == 0 &&
                    s0.col1 == w.cols()),
               "tensor-parallel sharding requires an INT8-path weight "
               "scheme (W8A8 or W4A8)");
  const int group = static_cast<int>(std::min<int64_t>(cfg.group, w.cols()));
  // INT8-path schemes quantize the full matrix ONCE, then pack each slice's
  // rectangle from it for the ISA active at construction (the blocked driver
  // falls back to the scalar microkernel if the active ISA changes to an
  // incompatible vector width afterwards). pack_gemm_b_slice reads metadata
  // at absolute indices, so every packed code / row_sum / epilogue constant
  // is bitwise the full pack's entry for the same (row, col), and the
  // quantization-time struct is dropped once packed.
  const auto pack_slices = [&](const auto& qw) {
    const int nr = cpu::microkernel_for(cpu::active_isa()).nr;
    packs_.reserve(shard_slices.size());
    for (const PackSlice& s : shard_slices)
      packs_.push_back(pack_gemm_b_slice(qw, nr, s));
  };
  switch (scheme_) {
    case WeightScheme::kFp16:
      fp16_ = U16Tensor({w.rows(), w.cols()});
      for (int64_t i = 0; i < w.numel(); ++i)
        fp16_[i] = detail::float_to_half_bits(w[i]);
      break;
    case WeightScheme::kW8PerChannel:
      pack_slices(quantize_w8_per_channel(w));
      break;
    case WeightScheme::kW4PerChannel:
      pack_slices(quantize_w4_per_channel(w));
      break;
    case WeightScheme::kW4PerGroupProgressive: {
      ProgressiveOptions popt;
      popt.group = group;
      popt.level1_range = cfg.level1_range;
      pack_slices(quantize_progressive(w, popt));
      break;
    }
    case WeightScheme::kW4A16Group:
      w4a16_ = quantize_w4a16(w, group);
      break;
    case WeightScheme::kW4A4Group:
      w4a4_ = quantize_w4a4_per_group(w, group);
      break;
  }
}

LinearInput QuantizedLinear::prepare(Tensor x) const {
  LinearInput in;
  if (int8_path_scheme(scheme_)) {
    in.q = quantize_acts_per_token(x);
  } else if (scheme_ == WeightScheme::kW4A4Group) {
    in.q = quantize_acts_per_token_int4(x);
  } else {
    in.fp = std::move(x);
  }
  return in;
}

Tensor QuantizedLinear::apply(const Tensor& x) const {
  QS_CHECK_LE(packs_.size(), size_t(1));
  return apply_shard(prepare(x), 0);
}

Tensor QuantizedLinear::apply_shard(const LinearInput& x, int s) const {
  switch (scheme_) {
    case WeightScheme::kFp16:
      return gemm_fp16w(x.fp, fp16_);
    // The INT8 paths hit the pre-packed blocked GEMM: weight tiles were
    // interleaved (and, for per-group, dequantized to level-1 codes) once at
    // construction, and a stacked prefill reuses each tile across all its
    // tokens in one call.
    case WeightScheme::kW8PerChannel:
    case WeightScheme::kW4PerChannel:
    case WeightScheme::kW4PerGroupProgressive:
      QS_DCHECK(s >= 0 && s < static_cast<int>(packs_.size()));
      return gemm_blocked(x.q, packs_[static_cast<size_t>(s)]);
    case WeightScheme::kW4A16Group:
      return gemm_w4a16(x.fp, w4a16_);
    case WeightScheme::kW4A4Group:
      return gemm_w4a4_atom(x.q, w4a4_);
  }
  QS_CHECK(false);
  return Tensor{};
}

I32Tensor QuantizedLinear::acc_shard(const QuantizedActs& x_slice,
                                     int s) const {
  QS_DCHECK(s >= 0 && s < static_cast<int>(packs_.size()));
  return gemm_blocked_acc(x_slice, packs_[static_cast<size_t>(s)]);
}

const std::vector<float>& QuantizedLinear::epilogue_scale() const {
  QS_CHECK(!packs_.empty());
  return packs_[0].scale;
}

const std::vector<float>& QuantizedLinear::epilogue_zp_term() const {
  QS_CHECK(!packs_.empty());
  return packs_[0].zp_term;
}

// --- QuantizedModel --------------------------------------------------------------

QuantizedModel::QuantizedModel(const ModelWeights& weights,
                               const QuantSchemeConfig& cfg)
    : QuantizedModel(weights, cfg, TpConfig{}) {}

QuantizedModel::QuantizedModel(const ModelWeights& weights,
                               const QuantSchemeConfig& cfg,
                               const TpConfig& tp)
    : cfg_(weights.cfg), qcfg_(cfg) {
  // Loud scheme validation at construction instead of downstream
  // misbehavior (a non-positive group would divide by zero at pack time; a
  // level-1 range outside (0, 127] is not representable in INT8).
  QS_CHECK_MSG(cfg.group > 0, "QuantSchemeConfig.group must be >= 1");
  QS_CHECK_MSG(cfg.level1_range >= 1 && cfg.level1_range <= 127,
               "QuantSchemeConfig.level1_range must be in [1, 127]");
  QS_CHECK_MSG(cfg.kv_max_pages > 0,
               "QuantSchemeConfig.kv_max_pages must be >= 1");
  tp_ = resolve_tp_shards(cfg_, cfg, tp);
  // Shard plan: contiguous near-even KV head ranges (feasibility caps tp_ at
  // n_kv_heads, so every range is non-empty), query ranges scaled by the GQA
  // group, and near-even granularity-1 splits of ffn_dim and the o_proj
  // input — the k-splits need no head/group alignment because
  // pack_gemm_b_slice resolves metadata at absolute indices. With tp_ = 1
  // the single shard covers every dimension whole.
  const int group = cfg_.n_heads / cfg_.n_kv_heads;
  const int64_t dim = cfg_.head_dim;
  const int64_t hidden = cfg_.hidden;
  const int64_t q_dim = int64_t(cfg_.n_heads) * dim;
  QS_CHECK_GE(cfg_.ffn_dim, int64_t(tp_));
  tp_plan_.resize(static_cast<size_t>(tp_));
  // Per-projection slice lists, identical for every layer: column-parallel
  // layers (QKV, gate/up) slice output rows; row-parallel layers (o_proj,
  // down) slice input columns. Each shard's rectangle is packed once at
  // construction — no duplicated packing, no full pack.
  std::vector<PackSlice> sq, skv, so, sffn, sdown;
  for (int s = 0; s < tp_; ++s) {
    TpShard& sh = tp_plan_[static_cast<size_t>(s)];
    sh.kh0 = (s * cfg_.n_kv_heads) / tp_;
    sh.kh1 = ((s + 1) * cfg_.n_kv_heads) / tp_;
    sh.qh0 = sh.kh0 * group;
    sh.qh1 = sh.kh1 * group;
    sh.f0 = (int64_t(s) * cfg_.ffn_dim) / tp_;
    sh.f1 = (int64_t(s + 1) * cfg_.ffn_dim) / tp_;
    sh.ko0 = (int64_t(s) * q_dim) / tp_;
    sh.ko1 = (int64_t(s + 1) * q_dim) / tp_;
    QS_CHECK(sh.kh1 > sh.kh0 && sh.f1 > sh.f0 && sh.ko1 > sh.ko0);
    sq.push_back({int64_t(sh.qh0) * dim, int64_t(sh.qh1) * dim, 0, hidden});
    skv.push_back({int64_t(sh.kh0) * dim, int64_t(sh.kh1) * dim, 0, hidden});
    so.push_back({0, hidden, sh.ko0, sh.ko1});
    sffn.push_back({sh.f0, sh.f1, 0, hidden});
    sdown.push_back({0, hidden, sh.f0, sh.f1});
  }
  embedding_ = weights.embedding;
  layers_.reserve(weights.layers.size());
  for (const auto& lw : weights.layers) {
    QLayer ql;
    ql.wq = QuantizedLinear(lw.wq, cfg, sq);
    ql.wk = QuantizedLinear(lw.wk, cfg, skv);
    ql.wv = QuantizedLinear(lw.wv, cfg, skv);
    ql.wo = QuantizedLinear(lw.wo, cfg, so);
    ql.w_gate = QuantizedLinear(lw.w_gate, cfg, sffn);
    ql.w_up = QuantizedLinear(lw.w_up, cfg, sffn);
    ql.w_down = QuantizedLinear(lw.w_down, cfg, sdown);
    ql.ln_attn = lw.ln_attn;
    ql.ln_ffn = lw.ln_ffn;
    layers_.push_back(std::move(ql));
  }
  ln_final_ = weights.ln_final;
  // The LM head stays FP16 in every scheme (standard practice): binary16
  // weight bits, FP32 activations, and dots in the attention QK kernel's
  // canonical order (gemm_fp16w) — 16 lanes, pairwise fold, no FMA. Logits
  // are therefore bitwise identical across ISAs, thread counts and the
  // number of rows in the call, so batched steps and verify spans score
  // exactly what single-row decode does.
  QuantSchemeConfig head_cfg = cfg;
  head_cfg.weights = WeightScheme::kFp16;
  lm_head_ = QuantizedLinear(weights.lm_head, head_cfg);

  KvCacheConfig kcfg;
  kcfg.n_kv_heads = cfg_.n_kv_heads;
  kcfg.head_dim = cfg_.head_dim;
  kcfg.precision = cfg.kv;
  kcfg.page_size = 16;
  kcfg.max_pages = cfg.kv_max_pages;
  kv_ = std::make_unique<PagedKvCache>(kcfg);

  // Loud construction-time validation: a head layout the attention kernels
  // cannot serve (e.g. odd head_dim with nibble-packed INT4 KV) throws here,
  // not deep inside the first forward.
  attn_cfg_.n_heads = cfg_.n_heads;
  attn_cfg_.n_kv_heads = cfg_.n_kv_heads;
  attn_cfg_.head_dim = cfg_.head_dim;
  attn_cfg_.fp16_accum = qcfg_.fp16_attention;
  attn_cfg_.validate(/*int4_kv=*/qcfg_.kv == KvPrecision::kInt4);
}

int QuantizedModel::begin_sequence() {
  int id = -1;
  for (size_t i = 0; i < seqs_.size(); ++i) {
    if (!seqs_[i].live) {
      id = static_cast<int>(i);
      break;
    }
  }
  if (id < 0) {
    id = static_cast<int>(seqs_.size());
    seqs_.emplace_back();
  }
  auto& s = seqs_[static_cast<size_t>(id)];
  s.layer_seqs.clear();
  for (int l = 0; l < cfg_.n_layers; ++l)
    s.layer_seqs.push_back(kv_->alloc_sequence());
  s.next_pos = 0;
  s.sink = 0;
  s.window = 0;
  s.live = true;
  return id;
}

void QuantizedModel::set_sequence_window(int seq, int64_t sink_tokens,
                                         int64_t window_tokens,
                                         int64_t slack_tokens) {
  auto& state = seqs_[static_cast<size_t>(seq)];
  QS_CHECK(state.live);
  for (int ls : state.layer_seqs)
    kv_->set_window(ls, sink_tokens, window_tokens, slack_tokens);
  state.sink = sink_tokens;
  state.window = window_tokens;
}

void QuantizedModel::end_sequence(int seq) {
  auto& s = seqs_[static_cast<size_t>(seq)];
  QS_CHECK(s.live);
  for (int ls : s.layer_seqs) kv_->free_sequence(ls);
  s.live = false;
}

void QuantizedModel::note_shard_times(const std::vector<double>& seconds) {
  // A single shard has no imbalance to report (and no parallel deployment
  // to model), so its regions stay out of the accumulators.
  if (seconds.size() < 2) return;
  double mx = 0.0, sum = 0.0;
  for (double v : seconds) {
    mx = std::max(mx, v);
    sum += v;
  }
  tp_shard_max_seconds_ += mx;
  tp_shard_mean_seconds_ += sum / double(seconds.size());
}

Tensor QuantizedModel::row_parallel(const QuantizedLinear& w,
                                    const LinearInput& x,
                                    int64_t TpShard::*k0, int64_t TpShard::*k1,
                                    std::vector<double>& times) {
  // Nothing to reduce: one plain GEMM on the centrally prepared input.
  if (tp_ == 1) return w.apply_shard(x, 0);
  std::vector<I32Tensor> accs(static_cast<size_t>(tp_));
  run_sharded(
      tp_,
      [&](int s) {
        const TpShard& sh = tp_plan_[static_cast<size_t>(s)];
        accs[static_cast<size_t>(s)] =
            w.acc_shard(slice_acts_cols(x.q, sh.*k0, sh.*k1), s);
      },
      times.data());
  note_shard_times(times);
  // Reduction boundary (comm): fixed pairwise-tree all-reduce of the exact
  // INT32 partials + the identical post-reduction epilogue.
  const auto t0 = std::chrono::steady_clock::now();
  Tensor out = gemm_blocked_epilogue(reduce_partials(accs), x.q,
                                     w.epilogue_scale(), w.epilogue_zp_term());
  tp_comm_seconds_ += seconds_since(t0);
  return out;
}

Tensor QuantizedModel::run_blocks_batched(const std::vector<SeqSpan>& spans,
                                          Tensor x,
                                          const std::vector<int>& positions) {
  const int64_t n = x.rows();
  QS_CHECK_EQ(n, static_cast<int64_t>(positions.size()));
  const int S = tp_;
  const int64_t dim = cfg_.head_dim;

  std::vector<double> times(static_cast<size_t>(S), 0.0);
  // Per-shard scratch reused across regions of one layer.
  std::vector<Tensor> qs(static_cast<size_t>(S)), ks(static_cast<size_t>(S)),
      vs(static_cast<size_t>(S)), attns(static_cast<size_t>(S)),
      acts(static_cast<size_t>(S));
  std::vector<int64_t> pos0(spans.size());
  int64_t n_single = 0;
  for (const SeqSpan& sp : spans) n_single += (sp.n == 1) ? 1 : 0;

  for (size_t li = 0; li < layers_.size(); ++li) {
    auto& layer = layers_[li];
    // Attention block. The norm output is prepared ONCE, over full rows (the
    // per-token scale must see every column), and feeds all three QKV
    // projections. Every projection runs ONE GEMM per shard over the whole
    // row stack — all sequences' decode tokens and prefill chunks together;
    // the per-row quantizer makes stacking change no per-row numerics. Each
    // shard then applies RoPE to its own head slices — RoPE is per-head, so
    // a head slice transforms bitwise like the full matrix.
    const LinearInput hq = layer.wq.prepare(rms_norm(x, layer.ln_attn));
    run_sharded(
        S,
        [&](int s) {
          qs[static_cast<size_t>(s)] = layer.wq.apply_shard(hq, s);
          ks[static_cast<size_t>(s)] = layer.wk.apply_shard(hq, s);
          vs[static_cast<size_t>(s)] = layer.wv.apply_shard(hq, s);
          rope_inplace(qs[static_cast<size_t>(s)], positions, cfg_.head_dim);
          rope_inplace(ks[static_cast<size_t>(s)], positions, cfg_.head_dim);
        },
        times.data());
    note_shard_times(times);

    // Attention section, timed separately (attention_seconds_): KV append +
    // attend. Slots for every span are reserved centrally, in span order —
    // ONE kKvAppend fault draw per span, so an armed fault site fires at the
    // same step regardless of shard count. Then all single-row spans (decode
    // and token-wise verify rows) run through ONE batched executor call per
    // shard that walks all sequences × heads in a single parallel_for,
    // dequantizing page data inline in the ISA-dispatched microkernels
    // (§5.3). Multi-row spans (prefill chunks) gather the dequantized K/V
    // once — both paths share the same kernel arithmetic, so the step is
    // bitwise identical to a per-sequence fan-out at any thread count, ISA
    // and shard count.
    const auto attn_t0 = std::chrono::steady_clock::now();
    for (size_t si = 0; si < spans.size(); ++si) {
      const SeqSpan& sp = spans[si];
      const int lseq = seqs_[static_cast<size_t>(sp.seq)].layer_seqs[li];
      pos0[si] = kv_->append_reserve(lseq, sp.n);
    }
    run_sharded(
        S,
        [&](int s) {
          const TpShard& sh = tp_plan_[static_cast<size_t>(s)];
          const int qn = sh.qh1 - sh.qh0;
          const Tensor& qsl = qs[static_cast<size_t>(s)];
          const Tensor& ksl = ks[static_cast<size_t>(s)];
          const Tensor& vsl = vs[static_cast<size_t>(s)];
          // Each shard writes its own KV head range of every span's reserved
          // rows — disjoint byte ranges (INT4 head boundaries are
          // byte-aligned via the even head_dim), written lock-free after a
          // short locked destination resolution. Distinct spans are distinct
          // sequences, so they scatter concurrently.
          parallel_for(
              0, static_cast<int64_t>(spans.size()), 1,
              [&](int64_t lo, int64_t hi) {
                for (int64_t si = lo; si < hi; ++si) {
                  const SeqSpan& sp = spans[static_cast<size_t>(si)];
                  kv_->append_write_heads(
                      seqs_[static_cast<size_t>(sp.seq)].layer_seqs[li],
                      pos0[static_cast<size_t>(si)], ksl.row(sp.row0),
                      vsl.row(sp.row0), sp.n, sh.kh0, sh.kh1, ksl.cols());
                }
              });
          // No cross-shard barrier before attending: a shard reads only the
          // KV heads it just wrote. Multi-row spans attend with the shard's
          // head-sliced config — the kernels are per-head, so the slice
          // output is bitwise the matching columns of the unsharded call.
          AttentionConfig scfg = attn_cfg_;
          scfg.n_heads = qn;
          scfg.n_kv_heads = sh.kh1 - sh.kh0;
          const auto attend_span = [&](const SeqSpan& sp, const Tensor& q) {
            const auto& st = seqs_[static_cast<size_t>(sp.seq)];
            return span_attention(
                st.layer_seqs[li], st, q,
                int64_t(positions[static_cast<size_t>(sp.row0)]) + sp.n, scfg,
                sh.kh0, sh.kh1);
          };
          Tensor& attn_s = attns[static_cast<size_t>(s)];
          if (spans.size() == 1 && spans[0].n > 1) {
            // Single multi-row span (a plain prefill chunk): q already is
            // exactly this span's rows, so attend on it directly — no
            // scratch copies.
            attn_s = attend_span(spans[0], qsl);
            return;
          }
          attn_s = Tensor({n, int64_t(qn) * dim});
          std::vector<DecodeAttentionItem> items;
          std::vector<size_t> multi;
          items.reserve(spans.size());
          for (size_t si = 0; si < spans.size(); ++si) {
            const SeqSpan& sp = spans[si];
            if (sp.n == 1) {
              items.push_back(
                  {seqs_[static_cast<size_t>(sp.seq)].layer_seqs[li],
                   qsl.row(sp.row0), attn_s.row(sp.row0)});
            } else {
              multi.push_back(si);
            }
          }
          if (!items.empty())
            batched_fused_decode_attention(*kv_, items, attn_cfg_, sh.qh0,
                                           qn);
          // The gather path for the (rare) multi-row spans sharing the step
          // with decodes.
          parallel_for(
              0, static_cast<int64_t>(multi.size()), 1,
              [&](int64_t lo, int64_t hi) {
                for (int64_t mi = lo; mi < hi; ++mi) {
                  const SeqSpan& sp = spans[multi[static_cast<size_t>(mi)]];
                  Tensor qspan({sp.n, attn_s.cols()});
                  std::copy(qsl.row(sp.row0),
                            qsl.row(sp.row0) + sp.n * qspan.cols(),
                            qspan.data());
                  const Tensor a = attend_span(sp, qspan);
                  std::copy(a.data(), a.data() + a.numel(),
                            attn_s.row(sp.row0));
                }
              });
        },
        times.data());
    note_shard_times(times);
    attention_seconds_ += seconds_since(attn_t0);
    if (n_single > 0) {
      batched_attention_calls_ += S;  // one head-ranged dispatch per shard
      decode_attention_items_ += n_single;
    }

    // Reduction boundary 1 (comm): concat the column-parallel attention
    // slices back into full rows for the central o_proj quant node, then
    // the row-parallel o_proj.
    const LinearInput aq = layer.wo.prepare(concat_cols(
        attns, int64_t(cfg_.n_heads) * dim,
        [&](int s) {
          return int64_t(tp_plan_[static_cast<size_t>(s)].qh0) * dim;
        },
        tp_comm_seconds_));
    add_inplace(x, row_parallel(layer.wo, aq, &TpShard::ko0, &TpShard::ko1,
                                times));

    // FFN block: one prepared norm output feeds the column-parallel gate/up
    // GEMMs and SwiGLU on each shard's slice; concat, then the row-parallel
    // down projection behind its own quant node.
    const LinearInput h2q = layer.w_gate.prepare(rms_norm(x, layer.ln_ffn));
    run_sharded(
        S,
        [&](int s) {
          const Tensor gate = layer.w_gate.apply_shard(h2q, s);
          const Tensor up = layer.w_up.apply_shard(h2q, s);
          Tensor& act_s = acts[static_cast<size_t>(s)];
          act_s = Tensor({n, gate.cols()});
          // Row-independent like the norm/quant loops, so the stacked rows
          // of a batched step parallelize bitwise-identically.
          parallel_for(0, n, 4, [&](int64_t lo, int64_t hi) {
            for (int64_t t = lo; t < hi; ++t)
              for (int64_t c = 0; c < gate.cols(); ++c) {
                const float g = gate.at2(t, c);
                act_s.at2(t, c) = (g / (1.0f + std::exp(-g))) * up.at2(t, c);
              }
          });
        },
        times.data());
    note_shard_times(times);
    const LinearInput actq = layer.w_down.prepare(concat_cols(
        acts, cfg_.ffn_dim,
        [&](int s) { return tp_plan_[static_cast<size_t>(s)].f0; },
        tp_comm_seconds_));
    add_inplace(x, row_parallel(layer.w_down, actq, &TpShard::f0,
                                &TpShard::f1, times));
  }
  return x;
}

Tensor QuantizedModel::span_attention(int lseq, const SeqState& st,
                                      const Tensor& qspan, int64_t s_total,
                                      const AttentionConfig& acfg, int kh0,
                                      int kh1) const {
  Tensor kd, vd;
  if (st.window > 0) {
    const int64_t tail0 = kv_->gather_visible_heads(lseq, kd, vd, kh0, kh1);
    return attention_prefill_windowed(qspan, kd, vd, acfg, s_total, st.sink,
                                      st.window, tail0);
  }
  if (kh0 == 0 && kh1 == cfg_.n_kv_heads) {
    kv_->gather(lseq, kd, vd);
  } else {
    kv_->gather_heads(lseq, kd, vd, kh0, kh1);
  }
  return attention_prefill(qspan, kd, vd, acfg);
}

Tensor QuantizedModel::logits_from_hidden(const Tensor& h) const {
  return lm_head_.apply(rms_norm(h, ln_final_));
}

Tensor QuantizedModel::prefill(int seq, const std::vector<int>& tokens) {
  return prefill_chunk(
      seq, tokens,
      static_cast<int>(seqs_[static_cast<size_t>(seq)].next_pos));
}

Tensor QuantizedModel::prefill_chunk(int seq, const std::vector<int>& tokens,
                                     int pos0) {
  // A one-chunk step: the chunk is stacked into one [n, hidden] activation
  // matrix, so each projection is a single blocked GEMM call and every
  // packed weight tile is unpacked once and reused across all n tokens.
  return forward_step(BatchedStep{{{seq, tokens, pos0, 1}}})
      .reshaped({cfg_.vocab});
}

Tensor QuantizedModel::forward_step(const BatchedStep& step) {
  QS_CHECK(!step.chunks.empty());
  const int64_t n = step.total_rows();

  // Validate chunks and lay out the stacked rows: chunk i occupies the
  // contiguous row range [spans[i].row0, spans[i].row0 + |tokens|).
  std::vector<SeqSpan> spans;
  spans.reserve(step.chunks.size());
  std::vector<int> positions(static_cast<size_t>(n));
  std::unordered_set<int> seen_seqs;
  int64_t row0 = 0;
  for (const StepSeqChunk& c : step.chunks) {
    QS_CHECK(!c.tokens.empty());
    QS_CHECK(c.seq >= 0 && c.seq < static_cast<int>(seqs_.size()));
    const auto& state = seqs_[static_cast<size_t>(c.seq)];
    QS_CHECK(state.live);
    QS_CHECK_EQ(int64_t(c.pos0), state.next_pos);
    QS_CHECK_MSG(c.logit_rows >= 0 &&
                     c.logit_rows <= static_cast<int>(c.tokens.size()),
                 "logit_rows must be in [0, |tokens|]");
    QS_CHECK_MSG(seen_seqs.insert(c.seq).second,
                 "a sequence may appear in at most one chunk per step");
    const int64_t cn = static_cast<int64_t>(c.tokens.size());
    for (int64_t t = 0; t < cn; ++t) {
      QS_CHECK(c.tokens[static_cast<size_t>(t)] >= 0 &&
               c.tokens[static_cast<size_t>(t)] < cfg_.vocab);
      positions[static_cast<size_t>(row0 + t)] =
          c.pos0 + static_cast<int>(t);
    }
    spans.push_back({c.seq, row0, cn});
    row0 += cn;
  }

  // Row-gathered embedding lookup into one stacked activation buffer; each
  // chunk's rows are contiguous, so the gather parallelizes over chunks
  // without changing bits.
  Tensor x({n, cfg_.hidden});
  parallel_for(
      0, static_cast<int64_t>(step.chunks.size()), 1,
      [&](int64_t lo, int64_t hi) {
        for (int64_t ci = lo; ci < hi; ++ci) {
          const StepSeqChunk& c = step.chunks[static_cast<size_t>(ci)];
          const SeqSpan& sp = spans[static_cast<size_t>(ci)];
          for (int64_t t = 0; t < sp.n; ++t) {
            const int tok = c.tokens[static_cast<size_t>(t)];
            std::copy(embedding_.row(tok), embedding_.row(tok) + cfg_.hidden,
                      x.row(sp.row0 + t));
          }
        }
      });

  const Tensor h = run_blocks_batched(spans, std::move(x), positions);
  for (const StepSeqChunk& c : step.chunks)
    seqs_[static_cast<size_t>(c.seq)].next_pos +=
        static_cast<int64_t>(c.tokens.size());

  // One LM-head GEMM over every row that declared it needs logits — a
  // chunk's trailing logit_rows positions, gathered chunk by chunk. A step
  // whose chunks all set logit_rows = 0 (e.g. only mid-prompt prefill
  // chunks) skips the LM head entirely.
  const int64_t n_logits = step.total_logit_rows();
  if (n_logits == 0) return Tensor({0, cfg_.vocab});
  Tensor last({n_logits, cfg_.hidden});
  int64_t out = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int lr = step.chunks[i].logit_rows;
    for (int64_t j = 0; j < lr; ++j) {
      const int64_t src = spans[i].row0 + spans[i].n - lr + j;
      std::copy(h.row(src), h.row(src) + cfg_.hidden, last.row(out++));
    }
  }
  return logits_from_hidden(last);
}

void QuantizedModel::truncate_sequence(int seq, int64_t new_len) {
  auto& state = seqs_[static_cast<size_t>(seq)];
  QS_CHECK(state.live);
  QS_CHECK_MSG(new_len >= 0 && new_len <= state.next_pos,
               "truncate target " << new_len << " outside [0, "
                                  << state.next_pos << "]");
  for (int ls : state.layer_seqs) kv_->truncate_sequence(ls, new_len);
  state.next_pos = new_len;
}

int QuantizedModel::fork_sequence(int src, int64_t upto_len) {
  const auto& source = seqs_[static_cast<size_t>(src)];
  QS_CHECK(source.live);
  QS_CHECK_MSG(upto_len >= 0 && upto_len <= source.next_pos,
               "fork upto_len " << upto_len << " outside [0, "
                                << source.next_pos << "]");
  int id = -1;
  for (size_t i = 0; i < seqs_.size(); ++i) {
    if (!seqs_[i].live) {
      id = static_cast<int>(i);
      break;
    }
  }
  if (id < 0) {
    id = static_cast<int>(seqs_.size());
    seqs_.emplace_back();
  }
  auto& s = seqs_[static_cast<size_t>(id)];
  // seqs_ may have reallocated; re-resolve the source.
  const auto& sp = seqs_[static_cast<size_t>(src)];
  s.layer_seqs.clear();
  for (int ls : sp.layer_seqs)
    s.layer_seqs.push_back(kv_->fork_sequence(ls, upto_len));
  s.next_pos = upto_len;
  // Forks start full-attention regardless of the source's policy (the cache
  // enforces that only never-recycled pages were aliased); the caller
  // installs its own window if it wants one.
  s.sink = 0;
  s.window = 0;
  s.live = true;
  return id;
}

int64_t QuantizedModel::seq_pos(int seq) const {
  const auto& state = seqs_[static_cast<size_t>(seq)];
  QS_CHECK(state.live);
  return state.next_pos;
}

std::vector<uint32_t> QuantizedModel::sequence_page_generations(
    int seq) const {
  const auto& state = seqs_[static_cast<size_t>(seq)];
  QS_CHECK(state.live);
  std::vector<uint32_t> gens;
  for (int ls : state.layer_seqs) {
    const std::vector<uint32_t> layer = kv_->page_generations(ls);
    gens.insert(gens.end(), layer.begin(), layer.end());
  }
  return gens;
}

int64_t QuantizedModel::sequence_shared_pages(int seq) const {
  const auto& state = seqs_[static_cast<size_t>(seq)];
  QS_CHECK(state.live);
  int64_t n = 0;
  for (int ls : state.layer_seqs) n += kv_->seq_shared_pages(ls);
  return n;
}

Tensor QuantizedModel::decode_step(int seq, int token) {
  return prefill(seq, {token});
}

Tensor QuantizedModel::forward(const std::vector<int>& tokens) {
  const int seq = begin_sequence();
  const int n = static_cast<int>(tokens.size());
  Tensor logits = forward_step(BatchedStep{{{seq, tokens, 0, n}}});
  end_sequence(seq);
  return logits;
}

}  // namespace qserve
