// Shared pieces of the HTAP benchmark: run configuration, the seeded input
// generator, the per-thread client that wraps Session::Execute in spans, the
// counter deltas read around each timed window, and the accumulated result
// that report.cc turns into metrics.
#ifndef HTAPBENCH_BENCH_H_
#define HTAPBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/gphtap.h"
#include "tracer.h"

namespace htapbench {

using gphtap::Cluster;
using gphtap::ClusterOptions;
using gphtap::QueryResult;
using gphtap::Session;
using gphtap::Status;
using gphtap::StatusOr;

struct BenchConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Every injected cost at 0, four segments, everything else at defaults.
ClusterOptions BaseOptions();

/// SplitMix64: the benchmark's own generator, so its inputs do not depend on
/// the program's RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a stream tag.
uint64_t StreamSeed(uint64_t seed, uint64_t tag);

/// One client thread's session plus its span log. Execute calls are the
/// benchmark's view of the `cluster` layer.
class Client {
 public:
  /// With `trace`, records spans and the statement texts it sends.
  Client(Cluster* cluster, bool trace);

  Session* session() { return session_.get(); }
  /// Closes the session before its cluster goes away; the log stays.
  void Disconnect() { session_.reset(); }
  const SpanLog& log() const { return log_; }
  /// Drops spans and texts recorded so far (warm-up traffic).
  void ClearTrace();

  /// Opens the root span of a request (a transaction or a query).
  void BeginOp(const char* name);
  void EndOp();

  /// Session::Execute inside a span named `label`.
  StatusOr<QueryResult> Exec(const char* label, const std::string& sql);

  /// Statement texts this client sent (traced runs only, capped).
  const std::vector<std::string>& texts() const { return texts_; }

 private:
  std::unique_ptr<Session> session_;
  SpanLog log_;
  std::vector<std::string> texts_;
  uint64_t request_ = 0;
  int32_t root_ = -1;
};

/// Counter and wait-time deltas over timed windows, summed across windows.
class WindowStats {
 public:
  void Begin(Cluster* cluster);
  void End(Cluster* cluster);

  uint64_t counter(const std::string& name) const;
  /// Total wait time (us) and count of one wait event, all nodes.
  int64_t wait_us(gphtap::WaitEvent e) const;
  uint64_t waits(gphtap::WaitEvent e) const;
  /// Sum of a counter family ("net.sent." prefix, minus excluded names).
  uint64_t prefix_sum(const std::string& prefix, const std::string& exclude) const;

  uint64_t stmt_calls = 0;
  uint64_t stmt_plan_hits = 0;
  uint64_t stmt_exec_cpu_ns = 0;

 private:
  gphtap::MetricsSnapshot begin_metrics_;
  std::vector<gphtap::WaitEventRegistry::Entry> begin_waits_;
  std::vector<gphtap::StatementStatsRegistry::Entry> begin_stmts_;
  std::map<std::string, uint64_t> counters_;
  std::map<int, int64_t> wait_us_;
  std::map<int, uint64_t> waits_;
};

/// Everything one run measured; report.cc derives the metrics from it.
struct RunResult {
  // End to end (untraced and traced runs alike).
  std::vector<double> setup_s;       // one per round
  double window_s = 0;               // summed timed windows
  int rounds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<int64_t> oltp_ns;      // committed transaction latencies
  std::vector<int64_t> olap_ns;      // analytical query latencies
  std::vector<int64_t> late_ns;      // open-loop start lateness (htap)
  int clients = 0;                   // client threads in the timed window

  // Per-round figures; the end-to-end metrics are their medians over the
  // rounds, so a burst of outside load that hits a few rounds of a run does
  // not move the run's result.
  std::vector<double> round_rate;    // closed-loop requests per second
  std::vector<double> round_p50_us;  // latency of the workload's latency sample
  std::vector<double> round_p90_us;
  std::vector<double> round_cpu_us;  // process CPU per request
  /// Records one round's timed window: its closed-loop request count, the
  /// latencies the end-to-end latency metrics describe, and the process CPU
  /// time the window used for `requests` requests of any kind.
  void EndRound(double window_s, uint64_t closed_loop_done,
                const std::vector<int64_t>& latency_ns, int64_t cpu_ns, uint64_t requests);

  // Layers: counter deltas every run; spans, probes and texts in traced runs.
  WindowStats stats;
  std::vector<std::unique_ptr<Client>> traced_clients;  // kept for their spans
  std::map<std::string, double> probes;  // fixed-cost and storage probes
  std::vector<std::string> select_shapes;  // SELECT texts for plan.plan_us

  // Workload description for the environment header.
  std::map<std::string, int64_t> sizes;
};

/// CPU time of the whole process (every thread), in ns.
int64_t ProcessCpuNs();

/// Statement texts recorded by traced clients, replayed through the parser.
std::vector<std::string> RecordedTexts(const RunResult& r);

Status RunTpcb(const BenchConfig& cfg, RunResult* out);
Status RunOlapScan(const BenchConfig& cfg, RunResult* out);
Status RunHtap(const BenchConfig& cfg, RunResult* out);

/// Fixed-cost probes on a loaded cluster, before the timed window:
/// cluster.select1_us, point_select_us, point_update_us, gang_floor_us.
Status RunClusterProbes(Cluster* cluster, RunResult* out);

/// Storage probes over one segment's AO-column copy of the workload's fact
/// rows (`ao_table` when the fact table already is AO-column).
Status RunStorageProbes(Cluster* cluster, const std::string& fact_table,
                        const std::vector<gphtap::Row>& fact_rows, bool fact_is_ao,
                        RunResult* out);

/// Analyzer + PlanSelect time per SELECT shape (plan.plan_us).
Status TimePlans(Cluster* cluster, RunResult* out);

/// Mean ParseStatement time (us) over recorded statement texts.
StatusOr<double> ParseReplayUs(const std::vector<std::string>& texts);

/// Median of a sample (0 for an empty one).
double Median(std::vector<int64_t> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<int64_t> v, double q);

}  // namespace htapbench

#endif  // HTAPBENCH_BENCH_H_
