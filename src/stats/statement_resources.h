// Per-statement gang-wide resource accumulator. One instance lives in the
// Session and is reset at statement start; a pointer to it rides the ambient
// WaitContext (copied into every producer slice's context by the executor) and
// the ExecContext, so segment-side code — buffer pool, motion, vec engine,
// slice timers — can attribute work to the statement without new plumbing.
// All fields are relaxed atomics: producers on different threads bump them
// concurrently and the session reads them only after ExecutePlan joins.
#ifndef GPHTAP_STATS_STATEMENT_RESOURCES_H_
#define GPHTAP_STATS_STATEMENT_RESOURCES_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/histogram.h"

namespace gphtap {

struct StatementResources {
  std::atomic<uint64_t> exec_cpu_ns{0};    // summed slice wall time across the gang
  std::atomic<uint64_t> net_bytes{0};      // motion bytes sent (SimNet-charged)
  std::atomic<uint64_t> buffer_hits{0};
  std::atomic<uint64_t> buffer_misses{0};
  std::atomic<uint64_t> vec_batches{0};
  std::atomic<uint64_t> vec_fallbacks{0};

  /// Per-slice wall time distribution for this statement; merged into the
  /// cumulative per-fingerprint gang histogram via Histogram::Merge.
  void RecordSliceUs(int64_t us) {
    std::lock_guard<std::mutex> lock(mu_);
    slices_.Record(us);
  }

  /// Adds this statement's slice distribution into `out` (no copy).
  void MergeSlicesInto(Histogram* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    out->Merge(slices_);
  }

  void Reset() {
    exec_cpu_ns.store(0, std::memory_order_relaxed);
    net_bytes.store(0, std::memory_order_relaxed);
    buffer_hits.store(0, std::memory_order_relaxed);
    buffer_misses.store(0, std::memory_order_relaxed);
    vec_batches.store(0, std::memory_order_relaxed);
    vec_fallbacks.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    slices_.Reset();
  }

 private:
  mutable std::mutex mu_;
  Histogram slices_;
};

}  // namespace gphtap

#endif  // GPHTAP_STATS_STATEMENT_RESOURCES_H_
