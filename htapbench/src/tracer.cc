#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace htapbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::Open(const char* name, uint64_t request, int32_t parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

SpanSummary Summarize(const std::vector<const SpanLog*>& logs) {
  SpanSummary out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<int64_t> covered(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      int64_t dur = s.end_ns - s.start_ns;
      int64_t self = std::max<int64_t>(0, dur - covered[i]);
      out.dur_ns[s.name].push_back(dur);
      out.self_ns[s.name].push_back(self);
      if (s.parent >= 0) out.child_ns.push_back(dur);
      if (s.parent < 0) {
        out.root_ns += dur;
        out.root_uncovered_ns += self;
      }
    }
    out.spans += spans.size();
  }
  return out;
}

double SpanCostNs() {
  constexpr int kSpans = 100'000;
  std::vector<double> costs;
  for (int rep = 0; rep < 5; ++rep) {
    SpanLog log(true);
    int64_t start = NowNs();
    for (int i = 0; i < kSpans; ++i) {
      SpanScope scope(&log, "calibrate", static_cast<uint64_t>(i), -1);
    }
    costs.push_back(static_cast<double>(NowNs() - start) / kSpans);
  }
  std::sort(costs.begin(), costs.end());
  return costs[costs.size() / 2];
}

bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs,
                size_t max_spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = 0;
  for (size_t t = 0; t < logs.size() && written < max_spans; ++t) {
    for (const Span& s : logs[t]->spans()) {
      if (written++ >= max_spans) break;
      std::fprintf(f,
                   "{\"thread\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"request\":%llu}\n",
                   t, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace htapbench
