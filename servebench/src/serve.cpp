#include "serve.h"

#include <algorithm>
#include <chrono>

namespace servebench {

using namespace qserve;

namespace {

// What the step reconstruction needs of a request before a step.
struct Snapshot {
  int req;
  RequestState state;
  int64_t prefill_pos;
  size_t generated;
};

int64_t lcp(const std::vector<int>& a, const std::vector<int>& b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return static_cast<int64_t>(i);
}

// Rebuilds one step's rows from public request state: decode rows for
// requests that were decoding, prefill chunks for requests that were
// prefilling or were just admitted. The prefill start of an admission is the
// prefix the engine forked; it mirrors the engine's lookup (longest page-
// aligned match against prompts whose prefill completed in earlier steps)
// and is checked against the EngineStats prefix_tokens_reused delta.
class StepRecorder {
 public:
  StepRecorder(const std::vector<GenRequest>& reqs, int64_t page)
      : reqs_(reqs), page_(page) {}

  void before(const ServingEngine& engine, const std::vector<int>& live,
              const std::vector<int>& ids) {
    snaps_.clear();
    for (int i : live) {
      const Request& r = engine.request(ids[static_cast<size_t>(i)]);
      snaps_.push_back({i, r.state, r.prefill_pos, r.generated.size()});
    }
  }

  // Returns false when the step could not be rebuilt exactly.
  bool after(const ServingEngine& engine, const std::vector<int>& ids,
             int64_t reused_delta, std::vector<RequestRecord>& recs,
             double step_t0_us, ReplayStep& out, StepSample& sample) {
    bool exact = true;
    int64_t reused = 0;
    std::vector<ReplayChunk> prefills;
    std::vector<std::pair<int, int64_t>> donations;
    for (const Snapshot& s : snaps_) {
      const Request& r = engine.request(ids[static_cast<size_t>(s.req)]);
      const GenRequest& g = reqs_[static_cast<size_t>(s.req)];
      const int64_t plen = static_cast<int64_t>(g.prompt.size());
      const int64_t ctx = plen + static_cast<int64_t>(s.generated);
      if (s.state == RequestState::kQueued && r.state == RequestState::kQueued)
        continue;
      if (s.state != RequestState::kQueued && r.state == RequestState::kQueued) {
        exact = false;  // preempted: recompute-on-resume is not replayed
        continue;
      }
      if (s.state == RequestState::kDecoding) {
        if (r.generated.size() != s.generated + 1) {
          exact = false;
          continue;
        }
        ReplayChunk c;
        c.req = s.req;
        c.tokens = {r.generated[s.generated - 1]};
        c.pos0 = static_cast<int>(ctx - 1);
        c.samples = true;
        c.expected_token = r.generated[s.generated];
        out.chunks.push_back(std::move(c));
        ++sample.decode_rows;
        const int64_t len = ctx;
        sample.decode_kv_tokens += double(
            g.opts.attention_window > 0
                ? std::min(len, g.opts.sink_tokens + g.opts.attention_window)
                : len);
      } else {
        int64_t start = s.prefill_pos;
        if (s.state == RequestState::kQueued) {
          ReplayAdmit a = admit(s.req, ctx);
          reused += a.fork_len;
          start = a.fork_len;
          out.admits.push_back(a);
          recs[static_cast<size_t>(s.req)].admit_us = step_t0_us;
          admitted_.push_back(s.req);
        }
        const bool completes = r.state != RequestState::kPrefilling;
        const int64_t end = completes ? ctx : r.prefill_pos;
        ReplayChunk c;
        c.req = s.req;
        c.tokens.assign(g.prompt.begin() + start, g.prompt.begin() + end);
        c.pos0 = static_cast<int>(start);
        c.samples = completes;
        if (completes) {
          c.expected_token = r.generated.empty() ? -1 : r.generated[0];
          const int64_t cached = donated_len(g);
          if (cached > 0) donations.push_back({s.req, cached});
        }
        // An admitted or prefilling request can get no share of this step's
        // chunk budget.
        if (!c.tokens.empty()) prefills.push_back(std::move(c));
      }
      if (r.state == RequestState::kFinished) out.finished.push_back(s.req);
    }
    // Prefill chunks after the decode rows, in admission order.
    std::sort(prefills.begin(), prefills.end(),
              [&](const ReplayChunk& a, const ReplayChunk& b) {
                return order(a.req) < order(b.req);
              });
    for (ReplayChunk& c : prefills) out.chunks.push_back(std::move(c));
    for (const auto& d : donations) donors_.push_back(d);
    out.donations = std::move(donations);
    sample.requests = static_cast<int64_t>(out.chunks.size());
    return exact && reused == reused_delta;
  }

 private:
  // The engine's donation: the page-aligned prompt; a windowed donor whose
  // prompt outgrew sinks + window donates only its sink pages.
  int64_t donated_len(const GenRequest& g) const {
    const int64_t plen = static_cast<int64_t>(g.prompt.size());
    int64_t cached = plen / page_ * page_;
    if (g.opts.attention_window > 0 &&
        plen > g.opts.sink_tokens + g.opts.attention_window)
      cached = std::min(cached, g.opts.sink_tokens);
    return cached;
  }

  ReplayAdmit admit(int req, int64_t ctx) const {
    const GenRequest& g = reqs_[static_cast<size_t>(req)];
    ReplayAdmit a;
    a.req = req;
    a.window = g.opts.attention_window;
    a.sinks = g.opts.sink_tokens;
    for (const auto& [d, cached] : donors_) {
      int64_t m = std::min(
          {lcp(g.prompt, reqs_[static_cast<size_t>(d)].prompt), cached, ctx - 1});
      if (a.window > 0) m = std::min(m, a.sinks + a.window);
      m = m / page_ * page_;
      if (m > a.fork_len) {
        a.fork_len = m;
        a.donor = d;
      }
    }
    return a;
  }

  size_t order(int req) const {
    return static_cast<size_t>(
        std::find(admitted_.begin(), admitted_.end(), req) - admitted_.begin());
  }

  const std::vector<GenRequest>& reqs_;
  int64_t page_;
  std::vector<Snapshot> snaps_;
  std::vector<int> admitted_;
  std::vector<std::pair<int, int64_t>> donors_;  // (request, cached tokens)
};

}  // namespace

// The measured share of cumulative engine counters: `end` minus `start`.
EngineStats since(const EngineStats& end, const EngineStats& start) {
  EngineStats d = end;
  d.steps -= start.steps;
  d.prefill_tokens -= start.prefill_tokens;
  d.decode_tokens -= start.decode_tokens;
  d.first_tokens -= start.first_tokens;
  d.preemptions -= start.preemptions;
  d.prefill_seconds -= start.prefill_seconds;
  d.decode_seconds -= start.decode_seconds;
  d.wall_seconds -= start.wall_seconds;
  d.attention_seconds -= start.attention_seconds;
  d.step_tokens -= start.step_tokens;
  d.completed -= start.completed;
  d.prefix_hits -= start.prefix_hits;
  d.prefix_tokens_reused -= start.prefix_tokens_reused;
  d.prefix_evictions -= start.prefix_evictions;
  d.cow_page_copies -= start.cow_page_copies;
  d.kv_recycled_pages -= start.kv_recycled_pages;
  return d;
}

PhaseRun serve_phase(QuantizedModel& model, const std::vector<GenRequest>& warm,
                     const std::vector<GenRequest>& reqs, Tracer& clock,
                     bool traced) {
  PhaseRun run;
  std::vector<GenRequest> all = warm;
  all.insert(all.end(), reqs.begin(), reqs.end());
  const size_t n = all.size(), n_warm = warm.size();
  std::vector<RequestRecord> recs(n);
  std::vector<int> ids(n, -1);
  std::vector<int> live;  // submitted, not yet finished (traced runs)
  ServingEngine engine(&model, served_engine_config());
  StepRecorder recorder(all, model.kv_cache().config().page_size);
  EngineStats start_stats;
  const int64_t id_base = clock.reserve_request_ids(static_cast<int64_t>(n));

  // Warm-up requests are due at once; the measured schedule starts when the
  // last of them has finished.
  bool measuring = false;
  size_t next = 0;
  int64_t outstanding = 0;  // submitted, on_finish not yet fired
  while (true) {
    if (!measuring && next == n_warm && outstanding == 0) {
      measuring = true;
      start_stats = engine.stats();
      run.start_us = clock.now_us();
      for (size_t i = n_warm; i < n; ++i)
        recs[i].arrival_us = run.start_us + all[i].arrival_s * 1e6;
    }
    const double now = clock.now_us();
    while (next < n && (next < n_warm || (measuring && recs[next].arrival_us <= now))) {
      RequestRecord& rec = recs[next];
      const double t0 = clock.now_us();
      if (next < n_warm) rec.arrival_us = t0;
      rec.submit_us = t0;
      ++outstanding;
      ids[next] = engine.submit(
          all[next].prompt, all[next].opts,
          [&rec, &clock](const Request&, int token) {
            rec.token_us.push_back(clock.now_us());
            rec.tokens.push_back(token);
          },
          [&rec, &run, &clock, &outstanding](const Request& r) {
            ++rec.finishes;
            --outstanding;
            rec.reason = r.finish_reason;
            run.end_us = clock.now_us();
          });
      if (traced) {
        clock.add("submit", t0, clock.now_us(), -1,
                  id_base + static_cast<int64_t>(next), 1);
        live.push_back(static_cast<int>(next));
      }
      ++next;
    }

    if (outstanding == 0) {
      if (next == n) break;
      if (!measuring) continue;
      clock.advance_to(recs[next].arrival_us);
      continue;
    }
    const double s0 = clock.now_us();
    if (!traced) {
      engine.step();
      if (measuring) run.step_s += (clock.now_us() - s0) * 1e-6;
      continue;
    }
    const EngineStats before = engine.stats();
    recorder.before(engine, live, ids);
    const auto w0 = std::chrono::steady_clock::now();
    engine.step();
    const auto w1 = std::chrono::steady_clock::now();
    const EngineStats& after = engine.stats();
    StepSample sample;
    sample.t0_us = s0;
    sample.t1_us = clock.now_us();
    sample.wall_s = std::chrono::duration<double>(w1 - w0).count();
    ReplayStep rs;
    rs.measured = measuring;
    if (!recorder.after(engine, ids,
                        after.prefix_tokens_reused - before.prefix_tokens_reused,
                        recs, s0, rs, sample))
      ++run.reconstruct_errors;
    sample.forward_s = (after.prefill_seconds + after.decode_seconds) -
                       (before.prefill_seconds + before.decode_seconds);
    sample.rows = after.step_tokens - before.step_tokens;
    sample.pages_in_use = model.kv_cache().pages_in_use();
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](int i) {
                                return engine.request(ids[static_cast<size_t>(i)])
                                    .done();
                              }),
               live.end());
    for (int i : live)
      if (engine.request(ids[static_cast<size_t>(i)]).state ==
          RequestState::kQueued)
        ++sample.queue_depth;
    clock.add("step", s0, sample.t1_us, -1, -1, 1);
    if (measuring) {
      run.step_s += (sample.t1_us - s0) * 1e-6;
      run.steps.push_back(sample);
    }
    run.replay.push_back(std::move(rs));
  }
  run.stats = since(engine.drain(), start_stats);

  if (traced) {
    for (size_t i = 0; i < n; ++i) {
      const RequestRecord& rec = recs[i];
      const double t_end = rec.token_us.empty() ? rec.submit_us : rec.token_us.back();
      const int64_t id = id_base + static_cast<int64_t>(i);
      const int64_t root = clock.add("request", rec.arrival_us, t_end, -1, id, 0);
      if (rec.admit_us >= 0)
        clock.add("queue", rec.arrival_us, rec.admit_us, root, id, 0);
    }
  }
  engine.clear_prefix_cache();
  run.pages_after_clear = model.kv_cache().pages_in_use();
  run.warmup.assign(recs.begin(), recs.begin() + static_cast<long>(n_warm));
  run.requests.assign(recs.begin() + static_cast<long>(n_warm), recs.end());
  return run;
}

}  // namespace servebench
