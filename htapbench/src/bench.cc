#include "bench.h"

#include <algorithm>
#include <cmath>
#include <ctime>

namespace htapbench {

namespace {
constexpr size_t kMaxRecordedTexts = 20'000;  // per client, for the parse replay
}  // namespace

ClusterOptions BaseOptions() {
  ClusterOptions o;
  o.num_segments = 4;
  o.net_latency_us = 0;
  o.fsync_cost_us = 0;
  o.exec_cpu_ns_per_row = 0;
  o.buffer_pool.miss_cost_us = 0;
  o.trace_queries = false;
  return o;
}

uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  Rng rng(seed * 0x100000001b3ULL + tag);
  return rng.Next();
}

Client::Client(Cluster* cluster, bool trace)
    : session_(cluster->Connect()), log_(trace) {}

void Client::ClearTrace() {
  log_.Clear();
  texts_.clear();
}

void Client::BeginOp(const char* name) {
  ++request_;
  root_ = log_.Open(name, request_, -1);
}

void Client::EndOp() {
  log_.Close(root_);
  root_ = -1;
}

StatusOr<QueryResult> Client::Exec(const char* label, const std::string& sql) {
  if (log_.enabled() && texts_.size() < kMaxRecordedTexts) texts_.push_back(sql);
  SpanScope span(&log_, label, request_, root_);
  return session_->Execute(sql);
}

void WindowStats::Begin(Cluster* cluster) {
  begin_metrics_ = cluster->StatsSnapshot();
  begin_waits_ = cluster->wait_events().Snapshot();
  begin_stmts_ = cluster->statement_stats().Snapshot();
}

void WindowStats::End(Cluster* cluster) {
  gphtap::MetricsSnapshot end = cluster->StatsSnapshot();
  for (const auto& [name, value] : end.counters) {
    counters_[name] += value - begin_metrics_.counter(name);
  }
  for (const auto& e : cluster->wait_events().Snapshot()) {
    wait_us_[static_cast<int>(e.event)] += e.total_us;
    waits_[static_cast<int>(e.event)] += e.count;
  }
  for (const auto& e : begin_waits_) {
    wait_us_[static_cast<int>(e.event)] -= e.total_us;
    waits_[static_cast<int>(e.event)] -= e.count;
  }
  for (const auto& e : cluster->statement_stats().Snapshot()) {
    stmt_calls += e.calls;
    stmt_plan_hits += e.plan_cache_hits;
    stmt_exec_cpu_ns += e.exec_cpu_ns;
  }
  for (const auto& e : begin_stmts_) {
    stmt_calls -= e.calls;
    stmt_plan_hits -= e.plan_cache_hits;
    stmt_exec_cpu_ns -= e.exec_cpu_ns;
  }
}

uint64_t WindowStats::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t WindowStats::wait_us(gphtap::WaitEvent e) const {
  auto it = wait_us_.find(static_cast<int>(e));
  return it == wait_us_.end() ? 0 : it->second;
}

uint64_t WindowStats::waits(gphtap::WaitEvent e) const {
  auto it = waits_.find(static_cast<int>(e));
  return it == waits_.end() ? 0 : it->second;
}

uint64_t WindowStats::prefix_sum(const std::string& prefix,
                                 const std::string& exclude) const {
  uint64_t sum = 0;
  for (const auto& [name, value] : counters_) {
    if (name.compare(0, prefix.size(), prefix) == 0 && name != exclude) sum += value;
  }
  return sum;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void RunResult::EndRound(double round_window_s, uint64_t closed_loop_done,
                         const std::vector<int64_t>& latency_ns, int64_t cpu_ns,
                         uint64_t requests) {
  window_s += round_window_s;
  round_rate.push_back(static_cast<double>(closed_loop_done) / round_window_s);
  round_p50_us.push_back(Percentile(latency_ns, 0.50) / 1e3);
  round_p90_us.push_back(Percentile(latency_ns, 0.90) / 1e3);
  round_cpu_us.push_back(
      requests > 0 ? static_cast<double>(cpu_ns) / 1e3 / static_cast<double>(requests) : 0);
  ++rounds;
}

std::vector<std::string> RecordedTexts(const RunResult& r) {
  std::vector<std::string> out;
  for (const auto& c : r.traced_clients) {
    out.insert(out.end(), c->texts().begin(), c->texts().end());
  }
  return out;
}

double Median(std::vector<int64_t> v) {
  if (v.empty()) return 0;
  return Percentile(std::move(v), 0.5);
}

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]);
}

}  // namespace htapbench
