// Replay of a traced serving run's engine steps. The serving loop records,
// from public engine state, which sequences decoded and which prefill chunks
// ran in each step; the replay re-executes those rows in lockstep on
//   * a second QuantizedModel through forward_step (the model layer), and
//   * OpModel, which mirrors run_blocks_batched op by op through the public
//     kernel, KV-cache and QuantizedLinear entry points and times each op
//     (the kernels layer).
// Both must sample the engine's tokens, and OpModel's logits must equal
// forward_step's bit for bit; otherwise the replay reports a mismatch.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "model/quantized_model.h"
#include "trace.h"

namespace servebench {

// One sequence's rows in a recorded step.
struct ReplayChunk {
  int req = -1;             // request index in the phase
  std::vector<int> tokens;
  int pos0 = 0;
  bool samples = false;     // the chunk's last row was sampled this step
  int expected_token = -1;  // the engine's token for that row
};

// A request admitted in a recorded step.
struct ReplayAdmit {
  int req = -1;
  int64_t fork_len = 0;  // KV tokens forked from a cached prefix (0 = cold)
  int donor = -1;        // request whose donated prefix was forked
  int64_t window = 0, sinks = 0;
};

struct ReplayStep {
  bool measured = true;  // false: replayed for its state only, not timed
  std::vector<ReplayAdmit> admits;
  std::vector<ReplayChunk> chunks;  // decode rows first, then prefill chunks
  // Requests whose prefill completed (the engine donates the page-aligned
  // prompt prefix) and requests that finished, after the step.
  std::vector<std::pair<int, int64_t>> donations;  // (request, cached tokens)
  std::vector<int> finished;
};

// The ops of one engine step, in run_blocks_batched order.
enum class Op : int {
  kEmbed = 0,
  kNormQuant,    // rms_norm before QKV and FFN (quantization runs in the GEMM)
  kQkv,
  kRope,
  kKvAppend,
  kAttnDecode,
  kAttnPrefill,
  kOProj,        // includes the residual add
  kGateUp,
  kFfnActQuant,  // SwiGLU activation
  kDown,         // includes the residual add
  kLmHead,       // final norm + LM head over the sampled rows
  kCount
};
const char* op_name(Op op);

struct OpTotals {
  double seconds = 0;
  double ops = 0;    // arithmetic operations, computed from tensor shapes
  double bytes = 0;  // bytes moved, computed from shapes at nominal widths
};

// The model's block stack re-executed op by op, each op timed as a child
// span of the step. Holds its own quantized weights and paged KV cache.
class OpModel {
 public:
  OpModel(const qserve::ModelWeights& weights,
          const qserve::QuantSchemeConfig& scheme, int64_t window_slack);

  int begin_sequence();
  int fork_sequence(int src, int64_t upto_len);
  void set_window(int seq, int64_t sinks, int64_t window);
  void end_sequence(int seq);
  // Same contract and result as QuantizedModel::forward_step. Op spans go
  // to `tracer` under `parent`; a null tracer runs the step untimed.
  qserve::Tensor forward_step(const qserve::BatchedStep& step, Tracer* tracer,
                              int64_t parent, int lane);

  const std::array<OpTotals, size_t(Op::kCount)>& totals() const {
    return totals_;
  }

 private:
  struct Layer {
    qserve::QuantizedLinear wq, wk, wv, wo, w_gate, w_up, w_down;
    qserve::Tensor ln_attn, ln_ffn;
  };
  struct Seq {
    std::vector<int> layer_seqs;
    int64_t next_pos = 0;
    int64_t sink = 0, window = 0;
    bool live = false;
  };
  int new_seq_slot();
  qserve::Tensor span_attention(int lseq, const Seq& st,
                                const qserve::Tensor& q, int64_t s_total) const;

  qserve::ModelConfig cfg_;
  qserve::AttentionConfig acfg_;
  int64_t window_slack_;
  qserve::Tensor embedding_, ln_final_;
  std::vector<Layer> layers_;
  qserve::QuantizedLinear lm_head_;
  std::unique_ptr<qserve::PagedKvCache> kv_;
  std::vector<Seq> seqs_;
  std::array<OpTotals, size_t(Op::kCount)> totals_{};
};

struct ReplayResult {
  std::vector<double> forward_ms;  // per step, QuantizedModel::forward_step
  double forward_s = 0;
  double op_self_s = 0;            // sum of op self time
  std::array<OpTotals, size_t(Op::kCount)> ops{};
  int64_t steps = 0;
  int64_t sampled_rows = 0;
  int64_t token_mismatches = 0;    // either replay sampled another token
  int64_t logit_mismatches = 0;    // OpModel logits != forward_step logits
};

// Replays `steps` on `model` (a fresh instance with an empty KV cache) and on
// a fresh OpModel built from `weights`. Spans: lane 2 forward_step, lane 3
// OpModel steps with their op children.
ReplayResult replay(const std::vector<ReplayStep>& steps,
                    qserve::QuantizedModel& model,
                    const qserve::ModelWeights& weights, int64_t window_slack,
                    Tracer& tracer);

}  // namespace servebench
