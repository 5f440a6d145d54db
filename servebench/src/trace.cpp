#include "trace.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace servebench {

namespace {

double thread_cpu_us() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) * 1e6 + double(ts.tv_nsec) * 1e-3;
}

}  // namespace

Tracer::Tracer() : epoch_us_(thread_cpu_us()) {}

double Tracer::now_us() const { return thread_cpu_us() - epoch_us_ + idle_us_; }

void Tracer::advance_to(double t_us) {
  const double now = now_us();
  if (t_us > now) idle_us_ += t_us - now;
}

int64_t Tracer::add(const std::string& name, double t0_us, double t1_us,
                    int64_t parent, int64_t request, int lane) {
  Span s;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.name = name;
  s.t0_us = t0_us;
  s.t1_us = t1_us;
  s.request = request;
  s.lane = lane;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

int64_t Tracer::begin(const std::string& name, int64_t parent,
                      int64_t request, int lane) {
  const double t = now_us();
  return add(name, t, t, parent, request, lane);
}

void Tracer::end(int64_t id) { spans_[static_cast<size_t>(id)].t1_us = now_us(); }

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const double a = std::max(s.t0_us, p.t0_us);
    const double b = std::min(s.t1_us, p.t1_us);
    if (b > a) children[it->second].push_back({a, b});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_a = 0, cur_b = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (spans[i].t1_us - spans[i].t0_us) - covered;
  }
  return self;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::map<std::string, std::string>& metadata) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"metadata\":{");
  bool first = true;
  for (const auto& [k, v] : metadata) {
    std::fprintf(f, "%s\"%s\":\"%s\"", first ? "" : ",", json_escape(k).c_str(),
                 json_escape(v).c_str());
    first = false;
  }
  std::fprintf(f, "},\"traceEvents\":[\n");
  first = true;
  for (const Span& s : spans) {
    const std::string name = json_escape(s.name);
    const char* sep = first ? "" : ",\n";
    first = false;
    if (s.lane == 0 && s.request >= 0) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                   "\"id\":%lld,\"pid\":1,\"tid\":0,\"ts\":%.3f,"
                   "\"args\":{\"span\":%lld,\"parent\":%lld}},\n"
                   "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                   "\"id\":%lld,\"pid\":1,\"tid\":0,\"ts\":%.3f}",
                   sep, name.c_str(), static_cast<long long>(s.request),
                   s.t0_us, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), name.c_str(),
                   static_cast<long long>(s.request), s.t1_us);
    } else {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%lld,"
                   "\"parent\":%lld,\"request\":%lld}}",
                   sep, name.c_str(), s.lane, s.t0_us, s.t1_us - s.t0_us,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace servebench
