// Row-group bookkeeping shared by the append-optimized storage kinds.
// AO tables never update in place, so reclamation works at row-group
// granularity: a group whose every row is dead to every live snapshot can be
// freed wholesale. Freed groups keep their index slot (tids are derived from
// group index * group size and must stay stable across reclamation AND across
// change-log replay, which reproduces tids by replaying appends in order).
#ifndef GPHTAP_STORAGE_AO_GROUP_H_
#define GPHTAP_STORAGE_AO_GROUP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "txn/xid.h"

namespace gphtap {

/// Per-row-group occupancy, the measurable trigger for AO compaction and the
/// source of gp_segment_status bloat reporting.
struct AoGroupInfo {
  size_t index = 0;      // group index (tid base = index * group size)
  uint64_t rows = 0;     // rows physically stored (0 once freed)
  uint64_t live = 0;     // rows whose latest state is visible-committed
  uint64_t dead = 0;     // rows dead per the caller's predicate
  bool sealed = false;   // full group (eligible for reclamation)
  bool freed = false;    // physically reclaimed; slot retained for tid math
};

/// Summed occupancy across a table (and, one level up, across a segment).
struct AoBloatStats {
  uint64_t live_rows = 0;
  uint64_t dead_rows = 0;
  uint64_t reclaimed_groups = 0;

  AoBloatStats& operator+=(const AoBloatStats& o) {
    live_rows += o.live_rows;
    dead_rows += o.dead_rows;
    reclaimed_groups += o.reclaimed_groups;
    return *this;
  }
};

/// Classifies one stored row given its xmin and xmax (the AO-row visimap entry
/// or the AO-column group's xmax slot; kInvalidLocalXid when no delete is
/// recorded). Two callers, two predicates:
///   - bloat reporting passes "xmin aborted, or xmax committed";
///   - physical reclamation passes the stricter "dead to every snapshot"
///     (xmax additionally older than the distributed truncation horizon), the
///     same rule HeapTable::Vacuum applies per slot.
using AoRowDeadFn = std::function<bool(LocalXid xmin, LocalXid xmax)>;

/// What a reclamation pass actually freed.
struct AoReclaimResult {
  uint64_t groups_freed = 0;
  uint64_t rows_freed = 0;
};

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_AO_GROUP_H_
