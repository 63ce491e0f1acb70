// Cumulative per-fingerprint statement statistics (gp_stat_statements,
// modeled on pg_stat_statements): the session records one Sample per executed
// statement at teardown, keyed by the normalized fingerprint; the registry
// accumulates calls / errors / timeouts / retries / rows / latency histogram /
// plan-cache hits / vec batches + fallbacks / gang resource usage (exec CPU,
// motion bytes, buffer hits+misses, per-wait-event time). Bounded at
// `capacity` distinct fingerprints; the tail spills into one "<overflow>"
// bucket so a fingerprint flood cannot grow memory without bound.
//
// The slots are striped by session: a few hot fingerprints (BEGIN, COMMIT,
// the prepared statements of an OLTP mix) are shared by every session, and
// one set of shared slots would put a contended mutex and cache lines written
// from every core on each statement. Each session records into the stripe its
// id picks, so concurrent sessions rarely share a mutex or a slot, and
// Snapshot() merges the stripes. Memory stays bounded by stripes x capacity
// slots, however many sessions there are.
#ifndef GPHTAP_STATS_STATEMENT_STATS_H_
#define GPHTAP_STATS_STATEMENT_STATS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/histogram.h"
#include "common/wait_event.h"
#include "stats/statement_resources.h"

namespace gphtap {

class StatementStatsRegistry {
 public:
  explicit StatementStatsRegistry(size_t capacity = 512) : capacity_(capacity) {}

  /// One executed statement, assembled by Session::Execute at teardown.
  struct Sample {
    bool ok = true;
    bool timed_out = false;
    uint64_t retries = 0;
    bool plan_cache_hit = false;
    uint64_t rows = 0;
    int64_t elapsed_us = 0;
    const StatementResources* resources = nullptr;  // optional
    std::vector<QueryWaitProfile::Item> top_waits;
  };

  /// Accumulated state for one fingerprint, copied out by Snapshot().
  struct Entry {
    std::string fingerprint;
    uint64_t calls = 0;
    uint64_t errors = 0;    // statements that returned a non-OK status
    uint64_t timeouts = 0;  // subset of errors: statement deadline expired
    uint64_t retries = 0;   // transparent read-only retries summed over calls
    uint64_t plan_cache_hits = 0;
    uint64_t rows = 0;
    int64_t total_us = 0;
    int64_t min_us = 0;
    int64_t max_us = 0;
    int64_t p95_us = 0;       // from the per-call latency histogram
    int64_t gang_p95_us = 0;  // from per-slice wall times merged across calls
    uint64_t vec_batches = 0;
    uint64_t vec_fallbacks = 0;
    uint64_t exec_cpu_ns = 0;
    uint64_t net_bytes = 0;
    uint64_t buffer_hits = 0;
    uint64_t buffer_misses = 0;
    WaitEvent top_wait = WaitEvent::kNone;  // largest cumulative wait
    int64_t top_wait_us = 0;
  };

  /// Accumulates `sample` under `fingerprint`. Concurrent callers pass
  /// different `stripe` values (the session id) to stay off each other's
  /// slots; any value is correct.
  void Record(const std::string& fingerprint, const Sample& sample, uint64_t stripe = 0);

  /// Copies of every entry, sorted by total_us descending.
  std::vector<Entry> Snapshot() const;

  void Reset();

 private:
  struct Slot {
    uint64_t calls = 0;
    uint64_t errors = 0;
    uint64_t timeouts = 0;
    uint64_t retries = 0;
    uint64_t plan_cache_hits = 0;
    uint64_t rows = 0;
    int64_t total_us = 0;
    int64_t min_us = 0;
    int64_t max_us = 0;
    Histogram latency;     // per-call elapsed_us
    Histogram gang_slices; // per-slice wall us, merged in via Histogram::Merge
    uint64_t vec_batches = 0;
    uint64_t vec_fallbacks = 0;
    uint64_t exec_cpu_ns = 0;
    uint64_t net_bytes = 0;
    uint64_t buffer_hits = 0;
    uint64_t buffer_misses = 0;
    std::map<WaitEvent, int64_t> wait_us;

    void Add(const Sample& sample);
    void Merge(const Slot& other);
  };
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    // Only admitted fingerprints and the overflow key, so a hit needs no
    // registry-wide lock.
    std::unordered_map<std::string, Slot> slots;
  };
  static constexpr size_t kStripes = 16;

  /// The key `fingerprint` accumulates under: itself while fewer than
  /// `capacity_` fingerprints are admitted, else the overflow bucket.
  const std::string& KeyFor(const std::string& fingerprint);
  static Entry ToEntry(const std::string& fingerprint, const Slot& s);

  const size_t capacity_;
  std::array<Stripe, kStripes> stripes_;
  std::mutex admit_mu_;  // taken inside a stripe's mu, never around one
  std::unordered_set<std::string> admitted_;
};

}  // namespace gphtap

#endif  // GPHTAP_STATS_STATEMENT_STATS_H_
