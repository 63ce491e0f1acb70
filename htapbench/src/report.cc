#include "report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace htapbench {

namespace {

using gphtap::WaitEvent;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}


// Lower median, the same rank Median() takes for integer samples.
double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  auto mid = v.begin() + static_cast<std::ptrdiff_t>((v.size() - 1) / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

std::string Line(const std::string& kind, const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  return kind + " " + name + " " + Num(value) + " " + unit + " samples=" +
         std::to_string(samples);
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const RunResult& r) {
  return {
      {"throughput", MedianOf(r.round_rate), "1/s"},
      {"latency_p50_us", MedianOf(r.round_p50_us), "us"},
      {"latency_p90_us", MedianOf(r.round_p90_us), "us"},
      {"cpu_us_per_request", MedianOf(r.round_cpu_us), "us"},
      {"setup_s", MedianOf(r.setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

StatusOr<std::vector<Metric>> LayerMetrics(const RunResult& r, const SpanSummary& spans) {
  const WindowStats& w = r.stats;
  GPHTAP_ASSIGN_OR_RETURN(double parse_us, ParseReplayUs(RecordedTexts(r)));
  const double txns = static_cast<double>(w.counter("txn.committed"));
  const double stmts = static_cast<double>(w.stmt_calls);
  auto probe = [&](const std::string& name) {
    auto it = r.probes.find(name);
    return it == r.probes.end() ? 0.0 : it->second;
  };
  const double span_cost_ns = SpanCostNs();
  std::vector<Metric> m = {
      {"cluster.select1_us", probe("cluster.select1_us"), "us"},
      {"cluster.point_select_us", probe("cluster.point_select_us"), "us"},
      {"cluster.point_update_us", probe("cluster.point_update_us"), "us"},
      {"cluster.gang_floor_us", probe("cluster.gang_floor_us"), "us"},
      {"cluster.stmt_p50_us", Median(spans.child_ns) / 1e3, "us"},
      {"sql.parse_us", parse_us, "us"},
      {"plan.plan_us", probe("plan.plan_us"), "us"},
      {"plan.cache_hit_ratio", Ratio(static_cast<double>(w.stmt_plan_hits), stmts), "ratio"},
      {"txn.two_phase_share",
       Ratio(static_cast<double>(w.counter("txn.two_phase_commits")), txns), "ratio"},
      {"txn.commit_fsyncs_per_txn",
       Ratio(static_cast<double>(w.counter("txn.commit_fsyncs")), txns), "count"},
      {"txn.prepare_fsyncs_per_txn",
       Ratio(static_cast<double>(w.counter("txn.prepare_fsyncs")), txns), "count"},
      {"lock.acquires_per_txn", Ratio(static_cast<double>(w.counter("lock.acquires")), txns),
       "count"},
      {"lock.waits_per_txn", Ratio(static_cast<double>(w.counter("lock.waits")), txns),
       "count"},
      {"gdd.rounds", static_cast<double>(w.counter("gdd.rounds")), "count"},
      {"gdd.victims", static_cast<double>(w.counter("gdd.victims")), "count"},
      {"net.msgs_per_txn",
       Ratio(static_cast<double>(w.prefix_sum("net.sent.", "net.sent.gdd_collect")), txns),
       "count"},
      {"net.tuple_rows_per_stmt", Ratio(static_cast<double>(w.counter("net.tuple_rows")), stmts),
       "count"},
      {"net.tuple_bytes_per_stmt",
       Ratio(static_cast<double>(w.counter("net.tuple_bytes")), stmts), "B"},
      {"wait.motion_recv_us_per_stmt",
       Ratio(static_cast<double>(w.wait_us(WaitEvent::kMotionRecv)), stmts), "us"},
      {"vec.rows_per_stmt", Ratio(static_cast<double>(w.counter("vec.rows")), stmts), "count"},
      {"vec.rows_per_batch",
       Ratio(static_cast<double>(w.counter("vec.rows")),
             static_cast<double>(w.counter("vec.batches"))),
       "count"},
      {"vec.fallbacks_per_stmt", Ratio(static_cast<double>(w.counter("vec.fallbacks")), stmts),
       "count"},
      {"exec.cpu_us_per_stmt", Ratio(static_cast<double>(w.stmt_exec_cpu_ns) / 1e3, stmts),
       "us"},
      {"storage.scan_ns_per_row", probe("storage.scan_ns_per_row"), "ns"},
      {"storage.decode_ns_per_value.none", probe("storage.decode_ns_per_value.none"), "ns"},
      {"storage.decode_ns_per_value.rle", probe("storage.decode_ns_per_value.rle"), "ns"},
      {"storage.decode_ns_per_value.delta", probe("storage.decode_ns_per_value.delta"), "ns"},
      {"storage.decode_ns_per_value.dict", probe("storage.decode_ns_per_value.dict"), "ns"},
      {"storage.decode_ns_per_value.lz", probe("storage.decode_ns_per_value.lz"), "ns"},
      {"storage.bytes_per_row", probe("storage.bytes_per_row"), "B"},
      {"delta.fallback_scans", static_cast<double>(w.counter("delta.fallback_scans")), "count"},
      {"delta.sealed_groups", static_cast<double>(w.counter("delta.sealed_groups")), "count"},
      {"delta.applied_records_per_s",
       Ratio(static_cast<double>(w.counter("delta.applied_records")), r.window_s), "1/s"},
      {"trace.overhead_frac",
       Ratio(static_cast<double>(spans.spans) * span_cost_ns, r.window_s * 1e9 * r.clients),
       "ratio"},
      {"trace.unattributed_frac",
       Ratio(static_cast<double>(spans.root_uncovered_ns), static_cast<double>(spans.root_ns)),
       "ratio"},
  };
  return m;
}

std::vector<std::string> ReportLines(const RunResult& r, const SpanSummary* spans) {
  std::vector<std::string> out;
  if (!r.oltp_ns.empty()) {
    out.push_back(Line("metric", "oltp.tps",
                       Ratio(static_cast<double>(r.oltp_ns.size()), r.window_s), "1/s",
                       r.oltp_ns.size()));
    out.push_back(Line("metric", "oltp.p50_us", Percentile(r.oltp_ns, 0.5) / 1e3, "us",
                       r.oltp_ns.size()));
    out.push_back(Line("metric", "oltp.p99_us", Percentile(r.oltp_ns, 0.99) / 1e3, "us",
                       r.oltp_ns.size()));
  }
  if (!r.olap_ns.empty()) {
    out.push_back(Line("metric", "olap.qps",
                       Ratio(static_cast<double>(r.olap_ns.size()), r.window_s), "1/s",
                       r.olap_ns.size()));
    out.push_back(Line("metric", "olap.p50_us", Percentile(r.olap_ns, 0.5) / 1e3, "us",
                       r.olap_ns.size()));
    out.push_back(Line("metric", "olap.p99_us", Percentile(r.olap_ns, 0.99) / 1e3, "us",
                       r.olap_ns.size()));
  }
  out.push_back(Line("metric", "failed_frac",
                     Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
                     "ratio", r.attempted));
  out.push_back(Line("metric", "setup_s", MedianOf(r.setup_s), "s", r.setup_s.size()));
  out.push_back(Line("metric", "window_s", r.window_s, "s", static_cast<size_t>(r.rounds)));
  if (!r.late_ns.empty()) {
    out.push_back(Line("layer", "driver.late_p99_us", Percentile(r.late_ns, 0.99) / 1e3, "us",
                       r.late_ns.size()));
  }
  if (spans == nullptr) return out;

  // Per-statement and per-query spans: median self time of each label
  // (transaction roots: median duration).
  for (const auto& [name, self] : spans->self_ns) {
    const bool root = name.rfind("txn.", 0) == 0;
    if (name.rfind("op.", 0) == 0) continue;  // a query root only wraps its Execute
    const std::vector<int64_t>& sample = root ? spans->dur_ns.at(name) : self;
    out.push_back(Line("layer", "cluster." + name + "_us", Median(sample) / 1e3, "us",
                       sample.size()));
  }
  const WindowStats& w = r.stats;
  const double txns = static_cast<double>(w.counter("txn.committed"));
  const double stmts = static_cast<double>(w.stmt_calls);
  const struct {
    const char* name;
    WaitEvent event;
    double per;
  } waits[] = {
      {"wait.prepare_ack_us_per_txn", WaitEvent::kPrepareAck, txns},
      {"wait.commit_prepared_ack_us_per_txn", WaitEvent::kCommitPreparedAck, txns},
      {"wait.wal_fsync_us_per_txn", WaitEvent::kWalFsync, txns},
      {"wait.motion_send_us_per_stmt", WaitEvent::kMotionSend, stmts},
      {"delta.freshness_wait_us_per_stmt", WaitEvent::kDeltaFreshness, stmts},
  };
  for (const auto& wt : waits) {
    out.push_back(Line("layer", wt.name, Ratio(static_cast<double>(w.wait_us(wt.event)), wt.per),
                       "us", w.waits(wt.event)));
  }
  out.push_back(Line("layer", "lock.wait_us_per_txn",
                     Ratio(static_cast<double>(w.counter("lock.wait_us")), txns), "us",
                     w.counter("lock.waits")));
  return out;
}

std::string EnvJson(const BenchConfig& cfg, const RunResult& r, const std::string& source_sha,
                    const std::string& git_sha) {
  const ClusterOptions o = BaseOptions();
  std::ostringstream s;
  s << "{\"env\": {\"git_sha\": \"" << git_sha << "\", \"source_sha256\": \"" << source_sha
    << "\", \"build_type\": \"" << HTAPBENCH_BUILD_TYPE
    << "\", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"segments\": " << o.num_segments << ", \"net_latency_us\": " << o.net_latency_us
    << ", \"fsync_cost_us\": " << o.fsync_cost_us
    << ", \"exec_cpu_ns_per_row\": " << o.exec_cpu_ns_per_row
    << ", \"buffer_miss_cost_us\": " << o.buffer_pool.miss_cost_us
    << ", \"trace_queries\": " << (o.trace_queries ? "true" : "false") << ", \"workload\": \""
    << cfg.workload << "\", \"seed\": " << cfg.seed << ", \"seconds\": " << Num(cfg.seconds)
    << ", \"trace\": " << (cfg.trace ? 1 : 0) << ", \"rounds\": " << r.rounds
    << ", \"sizes\": {";
  const char* sep = "";
  for (const auto& [k, v] : r.sizes) {
    s << sep << "\"" << k << "\": " << v;
    sep = ", ";
  }
  s << "}}}";
  return s.str();
}

std::string ResultJson(bool correct, const RunResult& r, const std::vector<Metric>& metrics) {
  std::ostringstream s;
  s << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << r.attempted
    << ", \"failed\": " << r.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : metrics) {
    s << sep << "\"" << m.name << "\": {\"value\": " << Num(m.value) << ", \"unit\": \""
      << m.unit << "\"}";
    sep = ", ";
  }
  s << "}}";
  return s.str();
}

}  // namespace htapbench
