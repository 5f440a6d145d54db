// Decode-priority continuous-batching scheduler with chunked prefill and
// preemption (§5.1: QServe supports in-flight batching like vLLM / TRT-LLM;
// chunking follows Sarathi-style stall-free scheduling, preemption follows
// vLLM's recompute-on-resume).
//
// Each engine step asks the scheduler for a StepPlan:
//   1. Requests past their deadline (deadline_steps / ttft_deadline_steps)
//      are expired first — running or queued — so their pages are free
//      before any reservation or admission decision this step.
//   2. Every decoding request decodes one token. Their page needs are
//      reserved *first*; if the pool cannot serve them, the youngest running
//      request is evicted back to the *front* of the queue (its pages free
//      immediately, it re-prefills prompt + generated-so-far on re-admission)
//      — queued prefill work can never starve a running decode.
//   3. Admission is FCFS and incremental: a queued request joins as soon as
//      the batch has room and at least one token's worth of pages is left
//      after the decode reservations. No max-final-length reservation — the
//      pool is allowed to over-commit, and preemption resolves the pressure.
//   4. At most `prefill_chunk` prompt tokens are prefilled per step, shared
//      across the batch shortest-remaining-first (so a short prompt's TTFT
//      is never stuck behind a long prompt's prefill), with the oldest
//      prefilling request guaranteed at least half the chunk (so a stream
//      of short arrivals cannot starve a long prompt). Every share is
//      clamped to the pages actually free, so a planned step can never
//      exhaust the pool mid-forward.
//   5. A request that cannot make progress even with the whole pool to
//      itself is moved to `stalled` instead of livelocking the loop — the
//      engine finishes it with FinishReason::kError and every other request
//      keeps running.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "serving/request.h"

namespace qserve {

struct SchedulerConfig {
  int max_batch = 8;
  // Maximum prompt tokens prefilled per engine step, shared across requests.
  int prefill_chunk = 128;
};

// One request's slice of this step's prefill chunk budget.
struct PrefillWork {
  Request* req = nullptr;
  int tokens = 0;
};

// Work for one engine step. A request appears in at most one list.
struct StepPlan {
  std::vector<Request*> decodes;     // one token each, always all decoders
  std::vector<PrefillWork> prefills; // chunk shares, includes newly admitted
  std::vector<Request*> admitted;    // FCFS order
  std::vector<Request*> evicted;     // youngest first; already re-queued
  // Requests the scheduler removed from service this step. The engine must
  // finish them (kDeadline / kError) and free their KV sequences *before*
  // executing the step: their pages were credited to this plan's budget.
  std::vector<Request*> expired;     // past a deadline; no longer queued/live
  std::vector<Request*> stalled;     // cannot progress even alone in the pool
  // "No execution work" — expired/stalled are excluded on purpose: a step
  // that only retires requests still counts as progress for the engine's
  // livelock check but runs no forward.
  bool empty() const {
    return decodes.empty() && prefills.empty() && admitted.empty() &&
           evicted.empty();
  }
};

class Scheduler {
 public:
  // `page_size` / `n_layers` give the KV pool geometry: appending one token
  // to a request costs one page per layer whenever its length crosses a
  // page boundary. `decode_tokens_per_step` is the KV tokens one step may
  // append per decoding request before its rollback (if any): 1 for plain
  // decode, k + 1 for a speculative engine, whose verify forward appends the
  // pending token plus k draft candidates before truncating the rejected
  // tail. plan() reserves pages for the full peak, so admission and
  // preemption stay sound even though the post-rollback footprint is
  // usually smaller.
  Scheduler(const SchedulerConfig& cfg, int page_size, int n_layers,
            int decode_tokens_per_step = 1);

  void enqueue(Request* r) {
    queue_.push_back(r);
    queued_prompt_tokens_ += r->context_len();
  }
  // Push an evicted/fault-recovered request back to the queue front so it
  // outranks never-admitted requests on re-admission.
  void requeue_front(Request* r) {
    queue_.push_front(r);
    queued_prompt_tokens_ += r->context_len();
  }
  // Remove `r` from the queue if it is queued (cancellation of a not-yet-
  // admitted request). Returns false if `r` was not in the queue.
  bool remove_queued(Request* r);

  // Consulted once per admitted request, after it is popped from the queue
  // and before the prefill chunk is distributed. The engine's prefix-cache
  // hook lives here: on a hit it sets r.prefill_pos to the match length (so
  // this very plan's chunk shares and page arithmetic already see the
  // smaller remaining prefill) and stashes the fork source the engine
  // consumes when it applies the admission. The hook must not touch KV
  // state — forking happens engine-side, after the plan is returned.
  void set_admission_hook(std::function<void(Request&)> hook) {
    admission_hook_ = std::move(hook);
  }

  // Plan one step. `running` is the engine's batch in admission order (the
  // eviction victim is its back); `free_pages` is the pool's current free
  // page count; `current_step` is the engine step index used for deadline
  // expiry. Evicted requests are pushed to the queue front (oldest evictee
  // first); admitted requests are popped. The engine applies the
  // corresponding model-side state changes.
  StepPlan plan(const std::vector<Request*>& running, int64_t free_pages,
                int64_t current_step = 0);

  bool idle(int running) const { return queue_.empty() && running == 0; }
  Request* queued_front() const {
    return queue_.empty() ? nullptr : queue_.front();
  }
  int64_t queued() const { return static_cast<int64_t>(queue_.size()); }
  // Context tokens (prompt + any pre-eviction generation) across the queue,
  // maintained incrementally for O(1) admission-cap checks.
  int64_t queued_prompt_tokens() const { return queued_prompt_tokens_; }

  // KV tokens `r` has appended so far (used for page-cost arithmetic; also
  // handy for tests). During prefill this is the chunk progress; during
  // decode the last sampled token is not yet appended.
  static int64_t kv_len(const Request& r);

 private:
  int64_t grow_pages(int64_t len, int64_t tokens) const;
  // Bounded-footprint variant: a request with a sliding window
  // (window_page_cap > 0) never holds more than cap pages per layer — once
  // the ring is full, appends recycle pages in place instead of allocating,
  // so growth beyond the cap costs nothing. This is what lets a 32k
  // generation admit into a pool sized for ~5k tokens.
  int64_t grow_pages(const Request& r, int64_t tokens) const;
  int64_t held_pages(const Request& r) const;
  // Tokens that fit in the last partially-filled page plus `free` new pages.
  int64_t token_capacity(int64_t len, int64_t free) const;
  // Per-request variant: a windowed request whose remaining page growth fits
  // in `free` can absorb any number of tokens (the ring recycles from there).
  int64_t token_capacity(const Request& r, int64_t free) const;
  static bool past_deadline(const Request& r, int64_t current_step);

  SchedulerConfig cfg_;
  int page_size_;
  int n_layers_;
  int decode_tokens_per_step_;
  std::deque<Request*> queue_;
  int64_t queued_prompt_tokens_ = 0;
  std::function<void(Request&)> admission_hook_;
};

}  // namespace qserve
