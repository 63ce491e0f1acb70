// Turns a RunResult into the metrics BENCHMARK.json names (end to end for an
// untraced run, per layer for a traced one), the human-readable report lines
// with sample counts, and the environment header.
#ifndef HTAPBENCH_REPORT_H_
#define HTAPBENCH_REPORT_H_

#include <string>
#include <vector>

#include "bench.h"

namespace htapbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The end_to_end metrics of BENCHMARK.json, in its order.
std::vector<Metric> EndToEndMetrics(const RunResult& r);

/// The per_layer metrics of BENCHMARK.json, in its order.
StatusOr<std::vector<Metric>> LayerMetrics(const RunResult& r, const SpanSummary& spans);

/// Report lines: the workload's metrics under their role names (oltp.*,
/// olap.*) with sample counts, and for a traced run the per-statement,
/// per-query and wait breakdown that only applies to some workloads.
std::vector<std::string> ReportLines(const RunResult& r, const SpanSummary* spans);

/// One-line JSON environment header.
std::string EnvJson(const BenchConfig& cfg, const RunResult& r, const std::string& source_sha,
                    const std::string& git_sha);

/// The final result line.
std::string ResultJson(bool correct, const RunResult& r, const std::vector<Metric>& metrics);

}  // namespace htapbench

#endif  // HTAPBENCH_REPORT_H_
