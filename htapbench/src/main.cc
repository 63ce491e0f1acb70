// htapbench: one HTAP benchmark over an in-process gphtap Cluster.
//
//   htapbench --workload tpcb|olap_scan|htap --seed N --seconds S --trace 0|1
//             [--source-sha HEX] [--git-sha SHA] [--span-dir DIR]
//
// Prints an environment header, report lines with sample counts, and as its
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the run with
// spans on and reports the per-layer metrics instead. Exits 1 when the
// workload fails or a correctness check does not hold.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "report.h"

namespace {

using namespace htapbench;

int Usage(const char* msg) {
  std::cerr << "htapbench: " << msg << "\n"
            << "usage: htapbench --workload tpcb|olap_scan|htap --seed N --seconds S "
               "--trace 0|1 [--source-sha HEX] [--git-sha SHA] [--span-dir DIR]\n";
  return 2;
}

constexpr size_t kMaxWrittenSpans = 50'000;

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  std::string source_sha = "unknown", git_sha = "unknown", span_dir;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(val) != 0;
      } else if (arg == "--source-sha") {
        source_sha = val;
      } else if (arg == "--git-sha") {
        git_sha = val;
      } else if (arg == "--span-dir") {
        span_dir = val;
      } else {
        return Usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");

  RunResult result;
  Status status;
  if (cfg.workload == "tpcb") {
    status = RunTpcb(cfg, &result);
  } else if (cfg.workload == "olap_scan") {
    status = RunOlapScan(cfg, &result);
  } else if (cfg.workload == "htap") {
    status = RunHtap(cfg, &result);
  } else {
    return Usage(("unknown workload " + cfg.workload).c_str());
  }

  std::cout << EnvJson(cfg, result, source_sha, git_sha) << "\n";
  if (!status.ok()) {
    std::cerr << "htapbench: " << cfg.workload << " failed: " << status.ToString() << "\n";
    std::cout << ResultJson(false, result, {}) << std::endl;
    return 1;
  }

  std::vector<Metric> metrics;
  if (cfg.trace) {
    std::vector<const SpanLog*> logs;
    for (const auto& c : result.traced_clients) logs.push_back(&c->log());
    SpanSummary spans = Summarize(logs);
    for (const std::string& line : ReportLines(result, &spans)) std::cout << line << "\n";
    StatusOr<std::vector<Metric>> layer = LayerMetrics(result, spans);
    if (!layer.ok()) {
      std::cerr << "htapbench: layer metrics: " << layer.status().ToString() << "\n";
      std::cout << ResultJson(false, result, {}) << std::endl;
      return 1;
    }
    metrics = std::move(*layer);
    if (!span_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(span_dir, ec);
      const std::string path =
          span_dir + "/spans-" + cfg.workload + "-seed" + std::to_string(cfg.seed) + ".jsonl";
      if (ec || !WriteSpans(path, logs, kMaxWrittenSpans)) {
        std::cerr << "htapbench: could not write " << path << "\n";
      }
    }
  } else {
    for (const std::string& line : ReportLines(result, nullptr)) std::cout << line << "\n";
    metrics = EndToEndMetrics(result);
  }
  std::cout << ResultJson(true, result, metrics) << std::endl;
  return 0;
}
