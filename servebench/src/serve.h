// One benchmark phase: a request list served through a fresh ServingEngine
// from a single-threaded load generator. Requests are submitted when their
// scheduled arrival is due on the work clock (open loop: the schedule never
// waits for the engine); latencies are work-clock times of the on_token
// callbacks (see Tracer).
#pragma once

#include <vector>

#include "loadgen.h"
#include "replay.h"
#include "trace.h"

namespace servebench {

struct RequestRecord {
  double arrival_us = 0;  // scheduled arrival
  double submit_us = 0;
  double admit_us = -1;   // start of the step that admitted it (traced runs)
  std::vector<double> token_us;
  std::vector<int> tokens;
  int finishes = 0;       // on_finish calls; must end at exactly 1
  qserve::FinishReason reason = qserve::FinishReason::kNone;

  bool ok() const {
    return finishes == 1 && reason == qserve::FinishReason::kLength;
  }
};

// Per-step counters of a traced phase, read from public engine state.
struct StepSample {
  double t0_us = 0, t1_us = 0;
  double wall_s = 0;        // step() on the steady clock, as EngineStats
  double forward_s = 0;     // EngineStats prefill + decode seconds delta
  int64_t rows = 0;         // stacked rows (decode tokens + prefill tokens)
  int64_t requests = 0;     // sequences in the step
  int64_t queue_depth = 0;  // requests still queued after the step
  int64_t pages_in_use = 0;
  int64_t decode_rows = 0;
  double decode_kv_tokens = 0;  // visible context summed over decode rows
};

struct PhaseRun {
  std::vector<RequestRecord> requests;  // the measured requests
  std::vector<RequestRecord> warmup;    // served before the clock started
  qserve::EngineStats stats;            // counters of the measured part
  double start_us = 0;
  double end_us = 0;           // last on_finish
  double step_s = 0;           // summed step() time on the work clock
  int64_t pages_after_clear = -1;
  // Traced runs only.
  std::vector<StepSample> steps;
  // Request indices count warm-up requests first, then measured ones.
  std::vector<ReplayStep> replay;
  int64_t reconstruct_errors = 0;  // steps whose rows could not be rebuilt
};

// Serves `warm` and then, from a clock start once they have finished,
// `reqs` on their schedule, on a fresh engine over `model` (whose KV cache
// must be empty); drains it, clears its prefix cache and records pages left
// in use. Traced, it records submit / step / request spans and the per-step
// rows the replay needs; untraced, it only timestamps callbacks.
PhaseRun serve_phase(qserve::QuantizedModel& model,
                     const std::vector<GenRequest>& warm,
                     const std::vector<GenRequest>& reqs, Tracer& clock,
                     bool traced);

}  // namespace servebench
