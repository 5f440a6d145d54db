// Quantized transformer executor — the CPU analogue of the QServe runtime
// (Fig. 11): all GEMMs take quantized inputs and produce FP16 outputs. Each
// RMSNorm output is quantized once, by a quant node that runs right after the
// norm and feeds every projection reading it (QKV, gate/up); separate quant
// nodes precede o_proj and down_proj. The KV cache is paged + quantized per
// head. One block-stack executor serves every shard count: single-shard
// execution is the 1-shard plan of tensor parallelism.
#pragma once

#include <memory>

#include "kernels/attention.h"
#include "kernels/weight_layout.h"
#include "kvcache/paged_kv_cache.h"
#include "model/weights.h"
#include "quant/types.h"
#include "quant/w4a16.h"
#include "tensor/tensor.h"

namespace qserve {

// Tensor-parallel execution config. n_shards = 0 resolves the shard count
// from the runtime default (QSERVE_TP_SHARDS / set_tp_shards()) and clamps
// it to what the model can serve: INT8-path weight schemes (W8A8 and the two
// W4A8 variants) shard up to n_kv_heads ways; every other scheme runs
// single-shard. An explicit n_shards >= 1 is validated loudly instead —
// requesting 2 shards of a scheme or head layout that cannot shard throws
// CheckError at construction, not a silent fallback.
struct TpConfig {
  int n_shards = 0;
};

enum class WeightScheme {
  kFp16,
  kW8PerChannel,          // SmoothQuant / TRT-LLM W8A8
  kW4PerChannel,          // QServe per-channel W4A8
  kW4PerGroupProgressive, // QServe per-group W4A8 (QoQ)
  kW4A16Group,            // AWQ/GPTQ-style weight-only
  kW4A4Group,             // Atom/QuaRot-style
};

enum class ActScheme { kFp16, kInt8PerToken, kInt4PerToken };

struct QuantSchemeConfig {
  WeightScheme weights = WeightScheme::kW4PerGroupProgressive;
  // Descriptive only: the activation format follows from `weights` (INT8
  // per-token for W8A8/W4A8, INT4 per-token for W4A4, FP otherwise) and
  // nothing reads this field.
  ActScheme acts = ActScheme::kInt8PerToken;
  KvPrecision kv = KvPrecision::kInt4;
  int group = 128;
  int level1_range = 119;  // kProtectiveRange; 127 = naive (overflow repro)
  bool fp16_attention = true;  // QServe's FP16 attention arithmetic
  // KV pool size (pages of 16 tokens per layer-sequence); shrink to create
  // real memory pressure in serving tests.
  int64_t kv_max_pages = 1 << 20;

  static QuantSchemeConfig qserve_w4a8kv4_g128();
  static QuantSchemeConfig qserve_w4a8kv4_per_channel();
  static QuantSchemeConfig trt_w8a8();
  static QuantSchemeConfig trt_w4a16();
  static QuantSchemeConfig atom_w4a4();
  static QuantSchemeConfig fp16();
};

// The input operand of a QuantizedLinear in the form its scheme's GEMM
// consumes: per-token quantized codes (`q`: INT8 for W8A8/W4A8, INT4 for
// W4A4) or the FP activations themselves (`fp`: FP16 and W4A16 weights).
// Prepared once per producer and shared by every projection reading it.
struct LinearInput {
  Tensor fp;
  QuantizedActs q;
};

// One quantized projection; holds exactly the representation `scheme` needs.
class QuantizedLinear {
 public:
  QuantizedLinear() = default;
  // Unsharded: one slice covering the whole matrix.
  QuantizedLinear(const Tensor& w, const QuantSchemeConfig& cfg);
  // Sliced construction: quantize the full matrix once, then pack one
  // rectangular slice per shard via pack_gemm_b_slice — no full pack is ever
  // built, so a sharded layer holds each weight exactly once. Column-parallel
  // layers pass full-k row slices; row-parallel layers pass full-n column (k)
  // slices. Only INT8-path schemes take more than one slice; every other
  // scheme requires the single full slice.
  QuantizedLinear(const Tensor& w, const QuantSchemeConfig& cfg,
                  const std::vector<PackSlice>& shard_slices);

  // Convert FP activations into this scheme's GEMM input (the quant node of
  // Fig. 11; the FP schemes pass x through).
  LinearInput prepare(Tensor x) const;
  // prepare + the GEMM of an unsharded projection.
  Tensor apply(const Tensor& x) const;
  // Shard s's output columns (its row slice of the weight) from the full-k
  // prepared input; with one slice this is the whole projection. Bitwise
  // the corresponding output columns of apply().
  Tensor apply_shard(const LinearInput& x, int s) const;
  // Row-parallel shard GEMM: shard s's exact INT32 partial accumulators over
  // its k-slice. `x_slice` holds the shard's columns of the centrally
  // quantized codes with the FULL-row per-token scale/token_sum; integer
  // partials from disjoint k-slices sum exactly, so the all-reduced total
  // fed to gemm_blocked_epilogue is bitwise the unsharded accumulator.
  I32Tensor acc_shard(const QuantizedActs& x_slice, int s) const;
  // Full-row epilogue constants for the post-reduction epilogue. Row-
  // parallel slices span every output row, so every shard pack carries the
  // identical vectors; shard 0's are returned.
  const std::vector<float>& epilogue_scale() const;
  const std::vector<float>& epilogue_zp_term() const;

  int64_t out_features() const { return n_; }

 private:
  WeightScheme scheme_ = WeightScheme::kFp16;
  int64_t n_ = 0;
  // kFp16 keeps only the binary16 bits [n, k] (half the bytes of an FP32
  // copy); apply() runs gemm_fp16w over them.
  U16Tensor fp16_;
  W4A16PerGroup w4a16_;
  W4A4PerGroup w4a4_;
  // INT8-path schemes (W8A8, per-channel/per-group W4A8) keep only packed
  // slices, one per shard (one when unsharded): ISA-interleaved tiles,
  // per-group weights pre-dequantized to level-1 codes, epilogue constants
  // inline. Every GEMM — a decode step or a whole stacked prefill — reuses
  // the tiles via the blocked driver instead of re-dequantizing weight rows
  // per call, and the quantization-time structs are dropped after packing
  // so the weights are never held twice.
  std::vector<PackedGemmB> packs_;
};

// One sequence's slice of a batched engine step: `tokens` are appended to
// sequence `seq` starting at absolute position `pos0` (which must equal
// seq_pos(seq)). A single-token chunk of an already-prefilled sequence is a
// decode row; a multi-token chunk is a prefill chunk or a speculative verify
// span. `logit_rows` declares how many of the chunk's TRAILING rows need LM-
// head logits: 1 (default) is the classic chunk-last sampling row, 0 skips
// the LM head entirely (a mid-prompt prefill chunk samples nothing), and
// tokens.size() asks for logits at every position — what a verify span needs
// to score all k+1 speculative candidates in one forward.
struct StepSeqChunk {
  int seq = -1;
  std::vector<int> tokens;
  int pos0 = 0;
  int logit_rows = 1;
};

// The model-level lowering of a scheduler StepPlan: every decode token and
// every prefill-chunk token from all scheduled requests, stacked row-wise.
// Each row is tagged with its (seq, pos) through the chunk structure; rows of
// one chunk are contiguous and in position order.
struct BatchedStep {
  std::vector<StepSeqChunk> chunks;  // distinct sequences, one chunk each
  int64_t total_rows() const {
    int64_t n = 0;
    for (const auto& c : chunks) n += static_cast<int64_t>(c.tokens.size());
    return n;
  }
  int64_t total_logit_rows() const {
    int64_t n = 0;
    for (const auto& c : chunks) n += c.logit_rows;
    return n;
  }
};

class QuantizedModel {
 public:
  // `weights` are the (possibly QoQ-transformed) FP32 weights to quantize.
  // The two-argument form resolves the tensor-parallel shard count from the
  // runtime default (TpConfig{0}); pass an explicit TpConfig to pin it.
  QuantizedModel(const ModelWeights& weights, const QuantSchemeConfig& cfg);
  QuantizedModel(const ModelWeights& weights, const QuantSchemeConfig& cfg,
                 const TpConfig& tp);

  // Stateless full-sequence forward (allocates a scratch KV sequence).
  Tensor forward(const std::vector<int>& tokens);

  // Streaming interface for the serving engine.
  int begin_sequence();                       // KV sequence handle
  void end_sequence(int seq);
  // Prefill `tokens`, return logits of the last position ([vocab]).
  Tensor prefill(int seq, const std::vector<int>& tokens);
  // Chunked prefill: run one slice of a prompt whose first `pos0` tokens are
  // already in the cache. `pos0` must equal the sequence's current position
  // (the engine tracks it per request). Per-token outputs are bitwise
  // identical to a monolithic prefill of the whole prompt — every GEMM row,
  // norm, and attention score is computed per position, and the causal mask
  // offsets against the cached prefix. Returns logits of the chunk's last
  // position ([vocab]); only the final chunk's logits are sampled.
  Tensor prefill_chunk(int seq, const std::vector<int>& tokens, int pos0);
  // Decode one token given the previous one; returns logits [vocab].
  Tensor decode_step(int seq, int token);
  // Batched step executor: run every chunk's rows through the block stack in
  // ONE stacked forward — a single GEMM call per projection per shard per
  // layer covers all decode tokens and prefill-chunk tokens of the step
  // (per-token activation quantization is row-wise, so stacking changes no
  // numerics). Only attention fans out per-sequence against the paged KV
  // cache, and KV appends reserve each sequence's slots once, then scatter
  // them per shard head range. Returns
  // [total_logit_rows(), vocab] logits: chunks contribute their trailing
  // `logit_rows` positions, in chunk order, positions ascending within a
  // chunk (logit_rows = 0 chunks contribute nothing and skip the LM head).
  // Each row of the result, and every KV entry written, is bitwise identical
  // to executing the chunks one token at a time via prefill_chunk() /
  // decode_step(), at any thread count and ISA — a multi-row chunk's row at
  // position p sees exactly the cached prefix [0, p) through the causal
  // mask, which is what makes a k+1-row speculative verify span score every
  // candidate with the same bits as k+1 sequential decode steps.
  Tensor forward_step(const BatchedStep& step);
  // Roll `seq` back to `new_len` tokens across every layer's KV sequence and
  // rewind the next append position — the speculative-decoding rejection
  // path. Freed pages return to the pool; stale SeqViews trip QS_DCHECK (see
  // PagedKvCache::truncate_sequence). A subsequent append of the same tokens
  // reconstructs bitwise-identical state.
  void truncate_sequence(int seq, int64_t new_len);
  // Fork: a new logical sequence aliasing src's first `upto_len` tokens
  // across every layer's KV sequence — page refcounts go up, nothing is
  // copied (copy-on-write happens lazily in the cache when a writer touches
  // a shared page; see PagedKvCache::fork_sequence). The fork's next append
  // position is upto_len. This is the prefix-cache / parallel-sampling
  // primitive: requests sharing a prompt prefix share its KV pages.
  int fork_sequence(int src, int64_t upto_len);
  // Install a sliding window with attention sinks on `seq` across every
  // layer's KV sequence (PagedKvCache::set_window). From then on the
  // sequence's attention — decode rows via the paged SeqView, prefill chunks
  // via gather_visible + attention_prefill_windowed — walks only the sink
  // runs plus each row's trailing window, and the cache recycles the oldest
  // non-sink page in place once the ring fills, so a 32k generation holds a
  // constant page footprint. Must be called before the sequence grows past
  // sinks + window + slack; `slack_tokens` must cover both the deepest
  // truncate_sequence rollback and the largest single append span (the
  // engine passes max(prefill chunk, speculative span)). window == context
  // or larger never recycles and is bitwise identical to full attention.
  void set_sequence_window(int seq, int64_t sink_tokens, int64_t window_tokens,
                           int64_t slack_tokens);
  // Tokens appended to `seq` so far (next position to prefill/decode).
  int64_t seq_pos(int seq) const;
  // Page-generation snapshot across every layer's KV sequence, concatenated
  // in layer order — the prefix index's validity stamp for a cached entry.
  std::vector<uint32_t> sequence_page_generations(int seq) const;
  // Currently-shared pages across every layer's KV sequence (observability).
  int64_t sequence_shared_pages(int seq) const;

  const ModelConfig& config() const { return cfg_; }
  const QuantSchemeConfig& scheme() const { return qcfg_; }
  PagedKvCache& kv_cache() { return *kv_; }

  // Observability for the attention executor (EngineStats reads these):
  // cumulative wall time spent in the per-layer attention sections of the
  // block stack (KV append + QK/softmax/SV, both the batched decode executor
  // and the prefill gather path).
  double attention_seconds() const { return attention_seconds_; }
  // How many batched_fused_decode_attention dispatches ran (one per layer
  // per step that carries at least one single-row span; one per SHARD per
  // layer under tensor parallelism, since each shard dispatches its own
  // head range) and how many sequence-items they covered in total — a step
  // with d decode rows adds d * n_layers items regardless of shard count,
  // never a per-sequence fan-out.
  int64_t batched_attention_calls() const { return batched_attention_calls_; }
  int64_t decode_attention_items() const { return decode_attention_items_; }

  // Tensor-parallel observability. tp_shards() is the resolved shard count
  // (1 = single-shard execution). tp_comm_seconds() is the cumulative wall
  // time spent at the reduction boundaries — the concat of column-parallel
  // output slices and the all-reduce + epilogue of row-parallel partials —
  // i.e. the time a multi-device deployment would spend in collectives.
  // tp_shard_max/mean_seconds() accumulate, per shard region, the slowest
  // shard's wall time and the mean shard wall time; their ratio is the
  // shard-imbalance factor EngineStats reports. All three stay 0 at one
  // shard.
  int tp_shards() const { return tp_; }
  double tp_comm_seconds() const { return tp_comm_seconds_; }
  double tp_shard_max_seconds() const { return tp_shard_max_seconds_; }
  double tp_shard_mean_seconds() const { return tp_shard_mean_seconds_; }

 private:
  struct QLayer {
    QuantizedLinear wq, wk, wv, wo, w_gate, w_up, w_down;
    Tensor ln_attn, ln_ffn;
  };

  // Row range [row0, row0 + n) of a stacked activation matrix belonging to
  // one sequence — the executor's internal row tag.
  struct SeqSpan {
    int seq;
    int64_t row0;
    int64_t n;
  };

  // The block-stack executor: `x` stacks every span's embedded rows;
  // positions[r] is row r's absolute position. Returns the hidden states.
  // Each layer runs five run_sharded regions over the tp_ shard plan —
  // QKV+RoPE slices, KV writes + attention, o_proj partials, gate/up+SwiGLU
  // slices, down partials — with centrally prepared activations and timed
  // concat / all-reduce boundaries between them. At tp_ = 1 the regions run
  // inline on the caller's pool, both boundaries are the identity and the
  // row-parallel projections are plain GEMMs.
  Tensor run_blocks_batched(const std::vector<SeqSpan>& spans, Tensor x,
                            const std::vector<int>& positions);
  struct SeqState;  // defined below with the data members
  // Multi-row span attention against the paged cache: full-attention spans
  // gather every cached K/V row and run attention_prefill; windowed spans
  // gather only the visible rows (sinks + retained tail) and run
  // attention_prefill_windowed. [kh0, kh1) selects the KV head range — TP
  // shards pass their slice together with a head-sliced AttentionConfig;
  // a single shard passes the full range. `s_total` is the sequence
  // length after the span's rows were appended.
  Tensor span_attention(int lseq, const SeqState& st, const Tensor& qspan,
                        int64_t s_total, const AttentionConfig& acfg, int kh0,
                        int kh1) const;
  Tensor logits_from_hidden(const Tensor& h) const;
  // Fold one shard region's per-shard wall times into the imbalance
  // accumulators.
  void note_shard_times(const std::vector<double>& seconds);

  // One shard's slice of every per-layer dimension. KV head ranges are
  // contiguous and near-even (feasibility caps shards at n_kv_heads); query
  // head ranges are the KV range times the GQA group, so a KV head's whole
  // query group lives on one shard; the FFN partition slices ffn_dim with
  // granularity 1; the o_proj/down k-slices are the matching near-even input
  // splits (head-layout-unaligned bounds are fine — pack_gemm_b_slice looks
  // metadata up at absolute indices).
  struct TpShard {
    int kh0 = 0, kh1 = 0;      // KV head range [kh0, kh1)
    int qh0 = 0, qh1 = 0;      // query head range
    int64_t f0 = 0, f1 = 0;    // ffn_dim range (gate/up rows, down k-slice)
    int64_t ko0 = 0, ko1 = 0;  // o_proj k-slice of n_heads * head_dim
  };
  // Row-parallel projection of centrally prepared activations: per-shard
  // INT32 partials over the k-slices [sh.*k0, sh.*k1), then the fixed-tree
  // all-reduce and the shared epilogue (timed as comm). One shard runs the
  // plain GEMM on the full input.
  Tensor row_parallel(const QuantizedLinear& w, const LinearInput& x,
                      int64_t TpShard::*k0, int64_t TpShard::*k1,
                      std::vector<double>& times);

  ModelConfig cfg_;
  QuantSchemeConfig qcfg_;
  // Built and validated once at construction (INT4 KV implies even
  // head_dim); every forward reuses it instead of re-deriving per call.
  AttentionConfig attn_cfg_;
  int tp_ = 1;
  std::vector<TpShard> tp_plan_;
  double attention_seconds_ = 0.0;
  double tp_comm_seconds_ = 0.0;
  double tp_shard_max_seconds_ = 0.0;
  double tp_shard_mean_seconds_ = 0.0;
  int64_t batched_attention_calls_ = 0;
  int64_t decode_attention_items_ = 0;
  Tensor embedding_;
  std::vector<QLayer> layers_;
  Tensor ln_final_;
  QuantizedLinear lm_head_;
  std::unique_ptr<PagedKvCache> kv_;
  // Each logical sequence owns one cache sequence per layer.
  struct SeqState {
    std::vector<int> layer_seqs;
    int64_t next_pos = 0;
    // Sliding-window attention parameters (0 = full attention); mirrors the
    // per-layer cache state so the executors can route multi-row spans to
    // the windowed gather/prefill path without a cache query.
    int64_t sink = 0;
    int64_t window = 0;
    bool live = false;
  };
  std::vector<SeqState> seqs_;
};

}  // namespace qserve
