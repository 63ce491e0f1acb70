#include "stats/statement_stats.h"

#include <algorithm>

namespace gphtap {

void StatementStatsRegistry::Record(const std::string& fingerprint,
                                    const Sample& sample, uint64_t stripe) {
  Stripe& st = stripes_[stripe % kStripes];
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.slots.find(fingerprint);
  // A fingerprint that spilled misses here on every call and asks again; only
  // a fingerprint flood pays that.
  if (it == st.slots.end()) it = st.slots.try_emplace(KeyFor(fingerprint)).first;
  it->second.Add(sample);
}

const std::string& StatementStatsRegistry::KeyFor(const std::string& fingerprint) {
  static const std::string kOverflowKey = "<overflow>";
  std::lock_guard<std::mutex> lock(admit_mu_);
  if (admitted_.size() < capacity_) admitted_.insert(fingerprint);
  return admitted_.count(fingerprint) > 0 ? fingerprint : kOverflowKey;
}

void StatementStatsRegistry::Slot::Add(const Sample& sample) {
  calls += 1;
  if (!sample.ok) errors += 1;
  if (sample.timed_out) timeouts += 1;
  retries += sample.retries;
  if (sample.plan_cache_hit) plan_cache_hits += 1;
  rows += sample.rows;
  total_us += sample.elapsed_us;
  if (calls == 1 || sample.elapsed_us < min_us) min_us = sample.elapsed_us;
  if (sample.elapsed_us > max_us) max_us = sample.elapsed_us;
  latency.Record(sample.elapsed_us);
  if (sample.resources != nullptr) {
    const StatementResources& r = *sample.resources;
    r.MergeSlicesInto(&gang_slices);
    vec_batches += r.vec_batches.load(std::memory_order_relaxed);
    vec_fallbacks += r.vec_fallbacks.load(std::memory_order_relaxed);
    exec_cpu_ns += r.exec_cpu_ns.load(std::memory_order_relaxed);
    net_bytes += r.net_bytes.load(std::memory_order_relaxed);
    buffer_hits += r.buffer_hits.load(std::memory_order_relaxed);
    buffer_misses += r.buffer_misses.load(std::memory_order_relaxed);
  }
  for (const auto& w : sample.top_waits) wait_us[w.event] += w.total_us;
}

void StatementStatsRegistry::Slot::Merge(const Slot& o) {
  if (o.calls == 0) return;
  min_us = calls == 0 ? o.min_us : std::min(min_us, o.min_us);
  max_us = calls == 0 ? o.max_us : std::max(max_us, o.max_us);
  calls += o.calls;
  errors += o.errors;
  timeouts += o.timeouts;
  retries += o.retries;
  plan_cache_hits += o.plan_cache_hits;
  rows += o.rows;
  total_us += o.total_us;
  latency.Merge(o.latency);
  gang_slices.Merge(o.gang_slices);
  vec_batches += o.vec_batches;
  vec_fallbacks += o.vec_fallbacks;
  exec_cpu_ns += o.exec_cpu_ns;
  net_bytes += o.net_bytes;
  buffer_hits += o.buffer_hits;
  buffer_misses += o.buffer_misses;
  for (const auto& [event, us] : o.wait_us) wait_us[event] += us;
}

StatementStatsRegistry::Entry StatementStatsRegistry::ToEntry(const std::string& fp,
                                                              const Slot& s) {
  Entry e;
  e.fingerprint = fp;
  e.calls = s.calls;
  e.errors = s.errors;
  e.timeouts = s.timeouts;
  e.retries = s.retries;
  e.plan_cache_hits = s.plan_cache_hits;
  e.rows = s.rows;
  e.total_us = s.total_us;
  e.min_us = s.min_us;
  e.max_us = s.max_us;
  e.p95_us = s.latency.Percentile(95.0);
  e.gang_p95_us = s.gang_slices.Percentile(95.0);
  e.vec_batches = s.vec_batches;
  e.vec_fallbacks = s.vec_fallbacks;
  e.exec_cpu_ns = s.exec_cpu_ns;
  e.net_bytes = s.net_bytes;
  e.buffer_hits = s.buffer_hits;
  e.buffer_misses = s.buffer_misses;
  for (const auto& [event, us] : s.wait_us) {
    if (us > e.top_wait_us) {
      e.top_wait = event;
      e.top_wait_us = us;
    }
  }
  return e;
}

std::vector<StatementStatsRegistry::Entry> StatementStatsRegistry::Snapshot()
    const {
  std::unordered_map<std::string, Slot> merged;
  for (const Stripe& st : stripes_) {
    std::lock_guard<std::mutex> lock(st.mu);
    for (const auto& [fp, slot] : st.slots) merged[fp].Merge(slot);
  }
  std::vector<Entry> out;
  out.reserve(merged.size());
  for (const auto& [fp, slot] : merged) out.push_back(ToEntry(fp, slot));
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.total_us != b.total_us) return a.total_us > b.total_us;
    return a.fingerprint < b.fingerprint;
  });
  return out;
}

void StatementStatsRegistry::Reset() {
  for (Stripe& st : stripes_) {
    std::lock_guard<std::mutex> lock(st.mu);
    st.slots.clear();
  }
  std::lock_guard<std::mutex> lock(admit_mu_);
  admitted_.clear();
}

}  // namespace gphtap
