// Stats-collector overhead: TPC-B with the statement-stats collector +
// history daemon on vs fully off. The acceptance gate (checked by
// run_tier1.sh) is <= 2% more process CPU per committed transaction:
// fingerprinting is one lexer pass per statement and the per-statement Sample
// is a handful of relaxed atomic adds, so the collector must be effectively
// free. CPU per transaction is the gated number because on a shared box it
// moves far less than throughput does (a noisy neighbour stretches wall time,
// not the work a transaction does). Repeats are interleaved
// (on/off, off/on, ...) so drift hits both modes alike, and the median of the
// per-pair ratios is gated.
#include <time.h>

#include <algorithm>

#include "bench_common.h"

namespace gphtap {
namespace bench {
namespace {

constexpr int kRepeats = 15;

int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

ClusterOptions StatsOptions(bool stats_on) {
  ClusterOptions o = Gpdb6Options();
  // Real CPU only: injected wire and fsync sleeps add wakeups whose cost
  // swamps the collector's.
  o.net_latency_us = 0;
  o.fsync_cost_us = 0;
  o.stats_enabled = stats_on;
  o.stats_history_period_us = stats_on ? 100'000 : 0;
  return o;
}

// Process CPU microseconds per committed transaction over the run's window
// (load excluded), or -1 on failure.
double RunOnce(const ClusterOptions& options, int clients, DriverResult* out) {
  Cluster cluster(options);
  TpcbConfig config = BenchTpcb();
  Status load = LoadTpcb(&cluster, config);
  if (!load.ok()) return -1.0;
  DriverOptions opts;
  opts.num_clients = clients;
  opts.duration_ms = PointMs();
  const int64_t cpu_start = ProcessCpuNs();
  DriverResult r = RunWorkload(&cluster, opts, [&](Session* s, Rng& rng) {
    return RunTpcbTransaction(s, rng, config);
  });
  const int64_t cpu_ns = ProcessCpuNs() - cpu_start;
  if (r.committed == 0) return -1.0;
  if (!CheckTpcbInvariant(&cluster).ok()) return -1.0;
  // With the collector on, the run itself must have populated the registry
  // with fingerprinted TPC-B statements and gang-attributed resources.
  if (options.stats_enabled) {
    uint64_t calls = 0, cpu = 0;
    for (const auto& e : cluster.statement_stats().Snapshot()) {
      calls += e.calls;
      cpu += e.exec_cpu_ns;
    }
    if (calls == 0 || cpu == 0) return -1.0;
  }
  *out = std::move(r);
  return static_cast<double>(cpu_ns) / 1e3 / static_cast<double>(out->committed);
}

void RunOverheadPoint(::benchmark::State& state) {
  int clients = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<double> cpu_on, cpu_off, tps_on, tps_off;
    DriverResult last_on, last_off;
    // Interleave the modes so drift hits both equally, and alternate which
    // runs first so a bias for the first or second run of a pair cancels.
    for (int i = 0; i < kRepeats; ++i) {
      double on, off;
      if (i % 2 == 0) {
        on = RunOnce(StatsOptions(true), clients, &last_on);
        off = RunOnce(StatsOptions(false), clients, &last_off);
      } else {
        off = RunOnce(StatsOptions(false), clients, &last_off);
        on = RunOnce(StatsOptions(true), clients, &last_on);
      }
      if (on < 0 || off < 0) {
        state.SkipWithError("stats-overhead run failed");
        return;
      }
      cpu_on.push_back(on);
      cpu_off.push_back(off);
      tps_on.push_back(last_on.Tps());
      tps_off.push_back(last_off.Tps());
    }
    const double med_on = Median(cpu_on);
    const double med_off = Median(cpu_off);
    // Median of the per-pair ratios: each pair ran back to back, so drift
    // across the whole run cancels within a pair.
    std::vector<double> ratios;
    for (int i = 0; i < kRepeats; ++i) ratios.push_back(cpu_on[i] / cpu_off[i]);
    const double overhead_pct = (Median(ratios) - 1.0) * 100.0;
    const double best_on = *std::max_element(tps_on.begin(), tps_on.end());
    const double best_off = *std::max_element(tps_off.begin(), tps_off.end());

    state.counters["cpu_us_per_txn_on"] = med_on;
    state.counters["overhead_pct"] = overhead_pct;
    JsonFields on_fields;
    AddDriverFields(last_on, &on_fields);
    on_fields.push_back({"best_tps", best_on});
    on_fields.push_back({"cpu_us_per_txn", med_on});
    on_fields.push_back({"overhead_pct", overhead_pct});
    RecordPoint("Stats/Overhead/StatsOn", clients, std::move(on_fields));
    JsonFields off_fields;
    AddDriverFields(last_off, &off_fields);
    off_fields.push_back({"best_tps", best_off});
    off_fields.push_back({"cpu_us_per_txn", med_off});
    RecordPoint("Stats/Overhead/StatsOff", clients, std::move(off_fields));
  }
}

void RegisterAll() {
  auto* b = ::benchmark::RegisterBenchmark("Stats/Overhead", RunOverheadPoint);
  for (int64_t clients : Points({20, 100})) b->Arg(clients);
  b->Unit(::benchmark::kMillisecond)->Iterations(1)->UseRealTime();
}

}  // namespace
}  // namespace bench
}  // namespace gphtap

int main(int argc, char** argv) {
  return gphtap::bench::BenchMain(argc, argv, "stats", gphtap::bench::RegisterAll);
}
