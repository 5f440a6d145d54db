#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "common/check.h"
#include "common/parallel.h"
#include "kernels/attention.h"
#include "kernels/ops.h"
#include "kvcache/fused_attention.h"
#include "stats.h"

namespace servebench {

using namespace qserve;

const char* op_name(Op op) {
  static const char* const names[] = {
      "embed",  "norm_quant", "qkv",  "rope",          "kv_append",
      "attn_decode", "attn_prefill", "o_proj", "gate_up", "ffn_act_quant",
      "down",   "lm_head"};
  return names[static_cast<int>(op)];
}

namespace {

// Nominal bytes of a W4A8 GEMM with n output channels, k inputs and m rows:
// 4-bit weights plus a 1-byte level-2 scale per 128-group and an FP16
// scale + zero per channel, INT8 activations in, FP16 out.
double w4a8_gemm_bytes(double m, double n, double k) {
  return n * k / 2 + n * k / 128 + n * 4 + m * k + m * n * 2;
}

// INT4 K and V codes plus an FP16 scale + zero per (token, head), K and V.
double kv_bytes_per_token_layer(const ModelConfig& c) {
  return double(c.kv_dim()) + 8.0 * c.n_kv_heads;
}

// Times one op call as a child span and adds its shape-derived work.
class OpTimer {
 public:
  // Null `totals` (and `tracer`) run the ops untimed.
  OpTimer(std::array<OpTotals, size_t(Op::kCount)>* totals, Tracer* tracer,
          int64_t parent, int lane)
      : totals_(totals), tracer_(tracer), parent_(parent), lane_(lane) {}

  template <typename Fn>
  void run(Op op, double ops, double bytes, Fn&& fn) {
    if (!totals_) {
      fn();
      return;
    }
    const double t0 = tracer_->now_us();
    fn();
    const double t1 = tracer_->now_us();
    OpTotals& t = (*totals_)[static_cast<size_t>(op)];
    t.seconds += (t1 - t0) * 1e-6;
    t.ops += ops;
    t.bytes += bytes;
    tracer_->add(op_name(op), t0, t1, parent_, -1, lane_);
  }

 private:
  std::array<OpTotals, size_t(Op::kCount)>* totals_;
  Tracer* tracer_;
  int64_t parent_;
  int lane_;
};

}  // namespace

OpModel::OpModel(const ModelWeights& weights, const QuantSchemeConfig& scheme,
                 int64_t window_slack)
    : cfg_(weights.cfg), window_slack_(window_slack) {
  embedding_ = weights.embedding;
  ln_final_ = weights.ln_final;
  for (const LayerWeights& lw : weights.layers) {
    Layer l;
    l.wq = QuantizedLinear(lw.wq, scheme);
    l.wk = QuantizedLinear(lw.wk, scheme);
    l.wv = QuantizedLinear(lw.wv, scheme);
    l.wo = QuantizedLinear(lw.wo, scheme);
    l.w_gate = QuantizedLinear(lw.w_gate, scheme);
    l.w_up = QuantizedLinear(lw.w_up, scheme);
    l.w_down = QuantizedLinear(lw.w_down, scheme);
    l.ln_attn = lw.ln_attn;
    l.ln_ffn = lw.ln_ffn;
    layers_.push_back(std::move(l));
  }
  // The model keeps its LM head at FP16 in every scheme.
  QuantSchemeConfig head = scheme;
  head.weights = WeightScheme::kFp16;
  head.acts = ActScheme::kFp16;
  lm_head_ = QuantizedLinear(weights.lm_head, head);

  KvCacheConfig kcfg;
  kcfg.n_kv_heads = cfg_.n_kv_heads;
  kcfg.head_dim = cfg_.head_dim;
  kcfg.precision = scheme.kv;
  kcfg.page_size = 16;
  kcfg.max_pages = scheme.kv_max_pages;
  kv_ = std::make_unique<PagedKvCache>(kcfg);

  acfg_.n_heads = cfg_.n_heads;
  acfg_.n_kv_heads = cfg_.n_kv_heads;
  acfg_.head_dim = cfg_.head_dim;
  acfg_.fp16_accum = scheme.fp16_attention;
  acfg_.validate(scheme.kv == KvPrecision::kInt4);
}

int OpModel::new_seq_slot() {
  for (size_t i = 0; i < seqs_.size(); ++i)
    if (!seqs_[i].live) return static_cast<int>(i);
  seqs_.emplace_back();
  return static_cast<int>(seqs_.size() - 1);
}

int OpModel::begin_sequence() {
  const int id = new_seq_slot();
  Seq& s = seqs_[static_cast<size_t>(id)];
  s = Seq{};
  for (size_t l = 0; l < layers_.size(); ++l)
    s.layer_seqs.push_back(kv_->alloc_sequence());
  s.live = true;
  return id;
}

int OpModel::fork_sequence(int src, int64_t upto_len) {
  const int id = new_seq_slot();
  const std::vector<int> src_layers = seqs_[static_cast<size_t>(src)].layer_seqs;
  Seq& s = seqs_[static_cast<size_t>(id)];
  s = Seq{};
  for (int ls : src_layers) s.layer_seqs.push_back(kv_->fork_sequence(ls, upto_len));
  s.next_pos = upto_len;
  s.live = true;
  return id;
}

void OpModel::set_window(int seq, int64_t sinks, int64_t window) {
  Seq& s = seqs_[static_cast<size_t>(seq)];
  for (int ls : s.layer_seqs) kv_->set_window(ls, sinks, window, window_slack_);
  s.sink = sinks;
  s.window = window;
}

void OpModel::end_sequence(int seq) {
  Seq& s = seqs_[static_cast<size_t>(seq)];
  for (int ls : s.layer_seqs) kv_->free_sequence(ls);
  s = Seq{};
}

Tensor OpModel::span_attention(int lseq, const Seq& st, const Tensor& q,
                               int64_t s_total) const {
  Tensor kd, vd;
  if (st.window > 0) {
    const int64_t tail0 =
        kv_->gather_visible_heads(lseq, kd, vd, 0, cfg_.n_kv_heads);
    return attention_prefill_windowed(q, kd, vd, acfg_, s_total, st.sink,
                                      st.window, tail0);
  }
  kv_->gather(lseq, kd, vd);
  return attention_prefill(q, kd, vd, acfg_);
}

Tensor OpModel::forward_step(const BatchedStep& step, Tracer* tracer,
                             int64_t parent, int lane) {
  OpTimer timer(tracer ? &totals_ : nullptr, tracer, parent, lane);
  const int64_t n = step.total_rows();
  const int64_t H = cfg_.hidden, Q = cfg_.q_dim(), KV = cfg_.kv_dim();
  const int64_t F = cfg_.ffn_dim, V = cfg_.vocab;
  const double kvtok = kv_bytes_per_token_layer(cfg_);

  struct SpanRows {
    int seq;
    int64_t row0, n;
  };
  std::vector<SpanRows> spans;
  std::vector<int> positions(static_cast<size_t>(n));
  int64_t row0 = 0;
  for (const StepSeqChunk& c : step.chunks) {
    QS_CHECK_EQ(int64_t(c.pos0), seqs_[static_cast<size_t>(c.seq)].next_pos);
    const int64_t cn = static_cast<int64_t>(c.tokens.size());
    for (int64_t t = 0; t < cn; ++t)
      positions[static_cast<size_t>(row0 + t)] = c.pos0 + static_cast<int>(t);
    spans.push_back({c.seq, row0, cn});
    row0 += cn;
  }
  // Visible KV tokens each attention row reads, for the work counts.
  auto visible = [&](const Seq& st, int64_t pos) {
    const int64_t len = pos + 1;
    if (st.window <= 0) return double(len);
    return double(std::min(len, st.sink + st.window));
  };

  Tensor x({n, H});
  timer.run(Op::kEmbed, 0, 2.0 * n * H * 4, [&] {
    for (size_t ci = 0; ci < step.chunks.size(); ++ci) {
      const StepSeqChunk& c = step.chunks[ci];
      for (int64_t t = 0; t < spans[ci].n; ++t) {
        const int tok = c.tokens[static_cast<size_t>(t)];
        std::copy(embedding_.row(tok), embedding_.row(tok) + H,
                  x.row(spans[ci].row0 + t));
      }
    }
  });

  for (size_t li = 0; li < layers_.size(); ++li) {
    Layer& layer = layers_[li];
    Tensor h, q, k, v;
    timer.run(Op::kNormQuant, 4.0 * n * H, 8.0 * n * H + 4.0 * H,
              [&] { h = rms_norm(x, layer.ln_attn); });
    timer.run(Op::kQkv, 2.0 * n * (Q + 2 * KV) * H,
              w4a8_gemm_bytes(double(n), double(Q + 2 * KV), double(H)), [&] {
                q = layer.wq.apply(h);
                k = layer.wk.apply(h);
                v = layer.wv.apply(h);
              });
    timer.run(Op::kRope, 3.0 * n * (Q + KV), 8.0 * n * (Q + KV), [&] {
      rope_inplace(q, positions, cfg_.head_dim);
      rope_inplace(k, positions, cfg_.head_dim);
    });

    Tensor attn;
    const double append_ops = 5.0 * n * 2 * KV;
    const double append_bytes = n * (kvtok + 2.0 * KV * 4);
    if (spans.size() == 1 && spans[0].n > 1) {
      const SpanRows& sp = spans[0];
      const Seq& st = seqs_[static_cast<size_t>(sp.seq)];
      const int lseq = st.layer_seqs[li];
      timer.run(Op::kKvAppend, append_ops, append_bytes,
                [&] { kv_->append_batch(lseq, k.row(0), v.row(0), sp.n); });
      double vis = 0;
      for (int64_t t = 0; t < sp.n; ++t)
        vis += visible(st, positions[static_cast<size_t>(t)]);
      const int64_t s_total = int64_t(positions[0]) + sp.n;
      timer.run(Op::kAttnPrefill, 4.0 * Q * vis,
                double(std::min<int64_t>(s_total, st.window > 0
                                                      ? st.sink + st.window +
                                                            sp.n
                                                      : s_total)) *
                        kvtok +
                    2.0 * sp.n * Q * 4,
                [&] { attn = span_attention(lseq, st, q, s_total); });
    } else {
      attn = Tensor({n, Q});
      timer.run(Op::kKvAppend, append_ops, append_bytes, [&] {
        parallel_for(0, static_cast<int64_t>(spans.size()), 1,
                     [&](int64_t lo, int64_t hi) {
                       for (int64_t si = lo; si < hi; ++si) {
                         const SpanRows& sp = spans[static_cast<size_t>(si)];
                         const int lseq =
                             seqs_[static_cast<size_t>(sp.seq)].layer_seqs[li];
                         kv_->append_batch(lseq, k.row(sp.row0),
                                           v.row(sp.row0), sp.n);
                       }
                     });
      });
      std::vector<DecodeAttentionItem> items;
      std::vector<size_t> multi;
      double dec_vis = 0, pre_vis = 0, pre_kv = 0;
      int64_t pre_rows = 0;
      for (size_t si = 0; si < spans.size(); ++si) {
        const SpanRows& sp = spans[si];
        const Seq& st = seqs_[static_cast<size_t>(sp.seq)];
        if (sp.n == 1) {
          items.push_back({st.layer_seqs[li], q.row(sp.row0), attn.row(sp.row0)});
          dec_vis += visible(st, positions[static_cast<size_t>(sp.row0)]);
        } else {
          multi.push_back(si);
          for (int64_t t = 0; t < sp.n; ++t)
            pre_vis += visible(st, positions[static_cast<size_t>(sp.row0 + t)]);
          pre_kv += visible(st, positions[static_cast<size_t>(sp.row0 + sp.n - 1)]);
          pre_rows += sp.n;
        }
      }
      if (!items.empty())
        timer.run(Op::kAttnDecode, 4.0 * Q * dec_vis,
                  dec_vis * kvtok + 2.0 * double(items.size()) * Q * 4,
                  [&] { batched_fused_decode_attention(*kv_, items, acfg_); });
      if (!multi.empty())
        timer.run(Op::kAttnPrefill, 4.0 * Q * pre_vis,
                  pre_kv * kvtok + 2.0 * pre_rows * Q * 4, [&] {
                    parallel_for(
                        0, static_cast<int64_t>(multi.size()), 1,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t mi = lo; mi < hi; ++mi) {
                            const SpanRows& sp =
                                spans[multi[static_cast<size_t>(mi)]];
                            const Seq& st = seqs_[static_cast<size_t>(sp.seq)];
                            Tensor qs({sp.n, Q});
                            std::copy(q.row(sp.row0), q.row(sp.row0) + sp.n * Q,
                                      qs.data());
                            const Tensor a = span_attention(
                                st.layer_seqs[li], st, qs,
                                int64_t(positions[static_cast<size_t>(sp.row0)]) +
                                    sp.n);
                            std::copy(a.data(), a.data() + a.numel(),
                                      attn.row(sp.row0));
                          }
                        });
                  });
    }

    timer.run(Op::kOProj, 2.0 * n * H * Q + double(n) * H,
              w4a8_gemm_bytes(double(n), double(H), double(Q)) + 8.0 * n * H,
              [&] { add_inplace(x, layer.wo.apply(attn)); });

    Tensor h2, gate, up;
    timer.run(Op::kNormQuant, 4.0 * n * H, 8.0 * n * H + 4.0 * H,
              [&] { h2 = rms_norm(x, layer.ln_ffn); });
    timer.run(Op::kGateUp, 2.0 * n * 2 * F * H,
              w4a8_gemm_bytes(double(n), double(2 * F), double(H)), [&] {
                gate = layer.w_gate.apply(h2);
                up = layer.w_up.apply(h2);
              });
    Tensor act({n, F});
    // The model's SwiGLU loop, verbatim, so the bits match.
    timer.run(Op::kFfnActQuant, 5.0 * n * F, 12.0 * n * F, [&] {
      parallel_for(0, n, 4, [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t)
          for (int64_t c = 0; c < F; ++c) {
            const float g = gate.at2(t, c);
            act.at2(t, c) = (g / (1.0f + std::exp(-g))) * up.at2(t, c);
          }
      });
    });
    timer.run(Op::kDown, 2.0 * n * H * F + double(n) * H,
              w4a8_gemm_bytes(double(n), double(H), double(F)) + 8.0 * n * H,
              [&] { add_inplace(x, layer.w_down.apply(act)); });
  }
  for (const StepSeqChunk& c : step.chunks)
    seqs_[static_cast<size_t>(c.seq)].next_pos +=
        static_cast<int64_t>(c.tokens.size());

  const int64_t r = step.total_logit_rows();
  if (r == 0) return Tensor({0, V});
  Tensor logits;
  timer.run(Op::kLmHead, 2.0 * r * V * H + 4.0 * r * H,
            double(V) * H * 2 + double(r) * H * 4 + double(r) * V * 4, [&] {
              Tensor last({r, H});
              int64_t out = 0;
              for (size_t i = 0; i < spans.size(); ++i) {
                const int lr = step.chunks[i].logit_rows;
                for (int64_t j = 0; j < lr; ++j) {
                  const int64_t src = spans[i].row0 + spans[i].n - lr + j;
                  std::copy(x.row(src), x.row(src) + H, last.row(out++));
                }
              }
              logits = lm_head_.apply(rms_norm(last, ln_final_));
            });
  return logits;
}

namespace {

}  // namespace

ReplayResult replay(const std::vector<ReplayStep>& steps,
                    QuantizedModel& model, const ModelWeights& weights,
                    int64_t window_slack, Tracer& tracer) {
  OpModel ops(weights, model.scheme(), window_slack);
  ReplayResult res;
  // Per request its (model, OpModel) sequence, and the donated prefixes
  // later admissions fork from.
  std::map<int, std::pair<int, int>> live, donors;
  // Donated prefixes some later admission forks, with their last use.
  std::map<int, size_t> donor_last_use;
  for (size_t si = 0; si < steps.size(); ++si)
    for (const ReplayAdmit& a : steps[si].admits)
      if (a.donor >= 0) donor_last_use[a.donor] = si;

  const int64_t vocab = model.config().vocab;
  for (size_t si = 0; si < steps.size(); ++si) {
    const ReplayStep& st = steps[si];
    for (const ReplayAdmit& a : st.admits) {
      int ms, os;
      if (a.fork_len > 0) {
        const auto& d = donors.at(a.donor);
        ms = model.fork_sequence(d.first, a.fork_len);
        os = ops.fork_sequence(d.second, a.fork_len);
      } else {
        ms = model.begin_sequence();
        os = ops.begin_sequence();
      }
      if (a.window > 0) {
        model.set_sequence_window(ms, a.sinks, a.window, window_slack);
        ops.set_window(os, a.sinks, a.window);
      }
      live[a.req] = {ms, os};
    }
    BatchedStep mstep, ostep;
    for (const ReplayChunk& c : st.chunks) {
      const auto& s = live.at(c.req);
      mstep.chunks.push_back({s.first, c.tokens, c.pos0, c.samples ? 1 : 0});
      ostep.chunks.push_back({s.second, c.tokens, c.pos0, c.samples ? 1 : 0});
    }
    if (!mstep.chunks.empty() && !st.measured) {
      model.forward_step(mstep);
      ops.forward_step(ostep, nullptr, -1, 3);
    } else if (!mstep.chunks.empty()) {
      const double t0 = tracer.now_us();
      const Tensor ml = model.forward_step(mstep);
      const double t1 = tracer.now_us();
      const double fs = (t1 - t0) * 1e-6;
      tracer.add("forward_step", t0, t1, -1, -1, 2);
      res.forward_ms.push_back(fs * 1e3);
      res.forward_s += fs;

      const int64_t parent = tracer.begin("op_step", -1, -1, 3);
      const Tensor ol = ops.forward_step(ostep, &tracer, parent, 3);
      tracer.end(parent);

      if (ml.numel() != ol.numel() ||
          std::memcmp(ml.data(), ol.data(), sizeof(float) * size_t(ml.numel())) != 0)
        ++res.logit_mismatches;
      int64_t row = 0;
      for (const ReplayChunk& c : st.chunks) {
        if (!c.samples) continue;
        ++res.sampled_rows;
        if (argmax(ml.row(row), vocab) != c.expected_token ||
            argmax(ol.row(row), vocab) != c.expected_token)
          ++res.token_mismatches;
        ++row;
      }
      ++res.steps;
    }
    for (const auto& [req, cached] : st.donations) {
      if (!donor_last_use.count(req) || donor_last_use[req] <= si) continue;
      const auto& s = live.at(req);
      donors[req] = {model.fork_sequence(s.first, cached),
                          ops.fork_sequence(s.second, cached)};
    }
    for (int req : st.finished) {
      const auto it = live.find(req);
      model.end_sequence(it->second.first);
      ops.end_sequence(it->second.second);
      live.erase(it);
    }
    for (auto it = donors.begin(); it != donors.end();) {
      if (donor_last_use[it->first] <= si) {
        model.end_sequence(it->second.first);
        ops.end_sequence(it->second.second);
        it = donors.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& [req, s] : live) {
    model.end_sequence(s.first);
    ops.end_sequence(s.second);
  }
  res.ops = ops.totals();
  for (const OpTotals& t : res.ops) res.op_self_s += t.seconds;
  return res;
}

}  // namespace servebench
