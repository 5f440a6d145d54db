// In-memory span recording for the traced run, self time, and Chrome
// trace-event export (opens in Perfetto or chrome://tracing).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  int64_t id = -1;
  int64_t parent = -1;  // -1 = root
  std::string name;
  double t0_us = 0, t1_us = 0;
  int64_t request = -1;  // spans of one request share its id; -1 = none
  int lane = 0;          // exported as the trace-event thread id
};

// The benchmark's work clock: CPU time of the thread that constructed the
// tracer, plus the idle time skipped by advance_to(), in microseconds since
// construction. The benchmark serves from that one thread with a one-thread
// pool, so on an otherwise idle core this clock reads wall time; time the
// host takes the core away (hypervisor steal, other processes) does not
// count. Use it from the constructing thread only.
class Tracer {
 public:
  Tracer();
  double now_us() const;
  // Moves the clock forward to t_us when it is behind it: an idle engine
  // waits for its next arrival without sleeping.
  void advance_to(double t_us);
  // Record a finished span; returns its id.
  int64_t add(const std::string& name, double t0_us, double t1_us,
              int64_t parent = -1, int64_t request = -1, int lane = 0);
  // Open a span now (so children can name it as parent); end() closes it.
  int64_t begin(const std::string& name, int64_t parent = -1,
                int64_t request = -1, int lane = 0);
  void end(int64_t id);
  const std::vector<Span>& spans() const { return spans_; }
  // First of `n` fresh request ids, so the phases of one trace never share
  // a request id.
  int64_t reserve_request_ids(int64_t n) {
    const int64_t base = next_request_;
    next_request_ += n;
    return base;
  }

 private:
  double epoch_us_ = 0;
  double idle_us_ = 0;
  int64_t next_request_ = 0;
  std::vector<Span> spans_;
};

// Self time of every span, in the order of `spans`: its duration minus the
// part of its interval covered by its direct children (children are clipped
// to the parent and overlapping children are counted once).
std::vector<double> self_times_us(const std::vector<Span>& spans);

// Writes `spans` as Chrome trace-event JSON. Spans on lane 0 that carry a
// request id are exported as async events (requests overlap in time); all
// others as complete events. `metadata` lands in the file's "metadata".
// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::map<std::string, std::string>& metadata);

}  // namespace servebench
