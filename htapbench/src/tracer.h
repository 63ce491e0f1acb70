// In-memory spans recorded by the benchmark around its own calls into the
// program. Each client thread owns one SpanLog; spans of one request (a
// transaction or a query) live on that thread, so parents are indices into
// the same log. Logs are merged and analysed after the threads join.
#ifndef HTAPBENCH_TRACER_H_
#define HTAPBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace htapbench {

int64_t NowNs();

struct Span {
  const char* name = "";  // static string: a layer boundary or statement label
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    // index in the owning log; -1 for a request's root
  uint64_t request = 0;   // shared by every span of one request
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index, or -1 when tracing is off.
  int32_t Open(const char* name, uint64_t request, int32_t parent);
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, uint64_t request, int32_t parent)
      : log_(log), index_(log->Open(name, request, parent)) {}
  ~SpanScope() { log_->Close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Self times grouped by span name, plus root coverage, over merged logs.
struct SpanSummary {
  std::map<std::string, std::vector<int64_t>> dur_ns;   // per span name
  std::map<std::string, std::vector<int64_t>> self_ns;  // per span name
  std::vector<int64_t> child_ns;  // durations of every non-root span
  int64_t root_ns = 0;          // total duration of root spans
  int64_t root_uncovered_ns = 0;  // root time not covered by child spans
  uint64_t spans = 0;
};

/// Self time = duration - time covered by child spans. Children of one span
/// run sequentially on the same thread, so their durations do not overlap.
SpanSummary Summarize(const std::vector<const SpanLog*>& logs);

/// Cost of recording one span (Open + Close), measured on this machine.
double SpanCostNs();

/// Writes up to `max_spans` spans, one JSON object per line.
bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs,
                size_t max_spans);

}  // namespace htapbench

#endif  // HTAPBENCH_TRACER_H_
