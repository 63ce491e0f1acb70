#include "plan/planner.h"

#include <algorithm>
#include <numeric>
#include <set>

namespace gphtap {

namespace {

// Rebases an expression that references the combined layout so that column i
// becomes column remap[i]. Returns null if the expr references an unmapped col.
ExprPtr RemapExpr(const ExprPtr& e, const std::vector<int>& remap) {
  if (!e) return nullptr;
  switch (e->kind) {
    case ExprKind::kConst:
    case ExprKind::kParam:  // no column references; survives remapping as-is
      return e;
    case ExprKind::kColumn: {
      if (e->column < 0 || static_cast<size_t>(e->column) >= remap.size() ||
          remap[static_cast<size_t>(e->column)] < 0) {
        return nullptr;
      }
      return Expr::Column(remap[static_cast<size_t>(e->column)]);
    }
    case ExprKind::kNot: {
      ExprPtr l = RemapExpr(e->left, remap);
      return l ? Expr::Not(l) : nullptr;
    }
    case ExprKind::kIsNull: {
      ExprPtr l = RemapExpr(e->left, remap);
      return l ? Expr::IsNull(l) : nullptr;
    }
    case ExprKind::kBinary: {
      ExprPtr l = RemapExpr(e->left, remap);
      ExprPtr r = RemapExpr(e->right, remap);
      return (l && r) ? Expr::Binary(e->op, l, r) : nullptr;
    }
  }
  return nullptr;
}

void CollectColumns(const Expr& e, std::set<int>* out) {
  switch (e.kind) {
    case ExprKind::kColumn:
      out->insert(e.column);
      break;
    case ExprKind::kNot:
    case ExprKind::kIsNull:
      CollectColumns(*e.left, out);
      break;
    case ExprKind::kBinary:
      CollectColumns(*e.left, out);
      CollectColumns(*e.right, out);
      break;
    default:
      break;
  }
}

ExprPtr AndAll(const std::vector<ExprPtr>& quals) {
  ExprPtr acc;
  for (const ExprPtr& q : quals) {
    if (!q) continue;
    acc = acc ? Expr::Binary(BinOp::kAnd, acc, q) : q;
  }
  return acc;
}

// Is `e` an equality between a column of table range [al, ar) and one of
// [bl, br)? Outputs the two combined-layout column indexes.
bool IsJoinQual(const Expr& e, int al, int ar, int bl, int br, int* a_col, int* b_col) {
  if (e.kind != ExprKind::kBinary || e.op != BinOp::kEq) return false;
  if (e.left->kind != ExprKind::kColumn || e.right->kind != ExprKind::kColumn) {
    return false;
  }
  int l = e.left->column, r = e.right->column;
  if (l >= al && l < ar && r >= bl && r < br) {
    *a_col = l;
    *b_col = r;
    return true;
  }
  if (r >= al && r < ar && l >= bl && l < br) {
    *a_col = r;
    *b_col = l;
    return true;
  }
  return false;
}

struct RelState {
  PlanPtr plan;
  // For each combined-layout column index: its position in this plan's output,
  // or -1 if this relation does not produce it.
  std::vector<int> col_map;
  // Distribution: the combined-layout columns this stream is hash-distributed
  // by; empty + replicated=false means "gathered/unknown".
  std::vector<int> hash_dist;
  bool replicated = false;
  uint64_t rows = 1000;
};

// Bottom-up vectorizability marking. A node is marked when the batch engine
// can run its whole input side: SeqScans over AO-column tables, and
// Filter/Project/Motion/HashAgg chains above them (all agg phases — the batch
// engine merges partial state itself). A HashJoin follows its probe child
// (children[0]) alone: an unmarked build side runs on the row engine and is
// packed into the batch build table. Unmarked parents over marked children
// are fine — the executor bridges the boundary by materializing rows out of
// batches.
bool MarkVectorizable(PlanNode* n, const std::set<TableId>& vec_tables) {
  bool children_marked = !n->children.empty();
  for (auto& c : n->children) {
    children_marked &= MarkVectorizable(c.get(), vec_tables);
  }
  switch (n->kind) {
    case PlanKind::kSeqScan:
      n->vectorize = vec_tables.count(n->table) > 0;
      break;
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kMotion:
    case PlanKind::kHashAgg:
      n->vectorize = children_marked;
      break;
    case PlanKind::kHashJoin:
      n->vectorize = n->children[0]->vectorize;
      break;
    default:
      n->vectorize = false;
      break;
  }
  return n->vectorize;
}

// Labels every scan node with the store that will serve it, for EXPLAIN
// transparency: a vectorized heap scan under the delta store is served by the
// delta-merged path, everything else by its table's physical storage.
void LabelScanStores(PlanNode* n, const std::vector<TableDef>& tables,
                     const PlannerOptions& opts) {
  if (n == nullptr) return;
  for (auto& c : n->children) LabelScanStores(c.get(), tables, opts);
  if (n->kind == PlanKind::kVirtualScan) {
    n->scan_store = "virtual";
    return;
  }
  if (n->kind != PlanKind::kSeqScan && n->kind != PlanKind::kIndexScan) return;
  const TableDef* def = nullptr;
  for (const TableDef& t : tables) {
    if (t.id == n->table) {
      def = &t;
      break;
    }
  }
  if (def == nullptr) return;
  if (def->partitions.has_value()) {
    n->scan_store = "partitioned";
    return;
  }
  switch (def->storage) {
    case StorageKind::kHeap:
      n->scan_store =
          (n->vectorize && opts.delta_store) ? "delta-merged" : "heap";
      break;
    case StorageKind::kAoRow:
      n->scan_store = "ao-row";
      break;
    case StorageKind::kAoColumn:
      n->scan_store = "ao-column";
      break;
    case StorageKind::kExternal:
      n->scan_store = "external";
      break;
  }
}

// A grouping over every column of `child` with no aggregates: DISTINCT.
PlanPtr MakeDedup(PlanPtr child, AggPhase phase) {
  auto dedup = std::make_unique<PlanNode>();
  dedup->kind = PlanKind::kHashAgg;
  dedup->agg_phase = phase;
  for (int i = 0; i < child->output_arity; ++i) dedup->group_cols.push_back(i);
  dedup->output_arity = child->output_arity;
  dedup->children.push_back(std::move(child));
  return dedup;
}

}  // namespace

int DirectDispatchSegment(const TableDef& table, const std::vector<ExprPtr>& quals,
                          int first_col_offset, int num_segments) {
  if (table.distribution.kind != DistributionKind::kHash) return -1;
  ExprPtr all = AndAll(quals);
  if (!all) return -1;
  Row key_values;
  for (int key_col : table.distribution.key_cols) {
    Datum v;
    if (!ExtractEqualityConst(*all, first_col_offset + key_col, &v)) return -1;
    key_values.push_back(std::move(v));
  }
  std::vector<int> idx(key_values.size());
  std::iota(idx.begin(), idx.end(), 0);
  uint64_t h = HashRowKey(key_values, idx);
  return static_cast<int>(h % static_cast<uint64_t>(num_segments));
}

StatusOr<PlannedSelect> PlanSelect(const SelectQuery& query, const PlannerOptions& opts) {
  if (query.tables.empty()) return Status::InvalidArgument("SELECT requires FROM");
  const int num_tables = static_cast<int>(query.tables.size());

  // System views execute coordinator-only: one kVirtualScan leaf, no motions,
  // an empty gang. Joining them — with each other or with stored tables —
  // would need virtual rows on segments, which is out of scope.
  bool any_virtual = false;
  for (const TableDef& t : query.tables) any_virtual |= t.is_system_view;
  if (any_virtual && num_tables > 1) {
    return Status::NotSupported("system views cannot be joined with other tables");
  }

  // Combined-layout offsets.
  std::vector<int> offset(static_cast<size_t>(num_tables) + 1, 0);
  for (int t = 0; t < num_tables; ++t) {
    offset[static_cast<size_t>(t) + 1] =
        offset[static_cast<size_t>(t)] +
        static_cast<int>(query.tables[static_cast<size_t>(t)].schema.num_columns());
  }
  const int total_cols = offset[static_cast<size_t>(num_tables)];

  // Partition quals: single-table quals push into scans; two-table equality
  // quals become join keys; the rest are residual filters.
  std::vector<std::vector<ExprPtr>> table_quals(static_cast<size_t>(num_tables));
  struct JoinQual {
    int ta, tb;       // table indexes
    int ca, cb;       // combined-layout columns
    bool used = false;
  };
  std::vector<JoinQual> join_quals;
  std::vector<ExprPtr> residual;

  auto table_of_col = [&](int col) {
    for (int t = 0; t < num_tables; ++t) {
      if (col >= offset[static_cast<size_t>(t)] && col < offset[static_cast<size_t>(t) + 1]) {
        return t;
      }
    }
    return -1;
  };

  for (const ExprPtr& q : query.quals) {
    std::set<int> cols;
    CollectColumns(*q, &cols);
    std::set<int> tables_touched;
    for (int c : cols) tables_touched.insert(table_of_col(c));
    if (tables_touched.size() <= 1) {
      int t = tables_touched.empty() ? 0 : *tables_touched.begin();
      table_quals[static_cast<size_t>(t)].push_back(q);
      continue;
    }
    if (tables_touched.size() == 2) {
      auto it = tables_touched.begin();
      int ta = *it++;
      int tb = *it;
      int ca, cb;
      if (IsJoinQual(*q, offset[static_cast<size_t>(ta)], offset[static_cast<size_t>(ta) + 1],
                     offset[static_cast<size_t>(tb)], offset[static_cast<size_t>(tb) + 1],
                     &ca, &cb)) {
        join_quals.push_back(JoinQual{ta, tb, ca, cb});
        continue;
      }
    }
    residual.push_back(q);
  }

  // Elastic expansion: the span a table's rows actually occupy. Prefers the
  // live-catalog callback (cached TableDefs go stale across a rebalance
  // cutover); falls back to the def's own field, then to "all segments".
  auto dist_of = [&](const TableDef& t) -> std::pair<int, bool> {
    if (opts.table_dist) {
      std::pair<int, bool> d = opts.table_dist(t.id);
      if (d.first > 0 && d.first <= opts.num_segments) return d;
    }
    int ds = t.dist_segments;
    if (ds <= 0 || ds > opts.num_segments) ds = opts.num_segments;
    return {ds, t.rebalancing};
  };

  // Direct dispatch: single hash-distributed table with a fully pinned key.
  // The routing modulus is the table's own span, not the cluster width — and
  // while a rebalance is in flight the row may visibly live at either the old
  // or the new home depending on snapshot, so dispatch goes wide.
  std::vector<int> gang(static_cast<size_t>(opts.num_segments));
  std::iota(gang.begin(), gang.end(), 0);
  if (num_tables == 1 && opts.direct_dispatch) {
    auto [mod, rebalancing] = dist_of(query.tables[0]);
    if (!rebalancing) {
      int seg = DirectDispatchSegment(query.tables[0], table_quals[0], 0, mod);
      if (seg >= 0) gang = {seg};
    }
  }
  // A query over only replicated tables runs on one segment (any copy);
  // segment 0 always holds a copy regardless of expansion state.
  bool all_replicated = true;
  for (const TableDef& t : query.tables) {
    all_replicated &= t.distribution.kind == DistributionKind::kReplicated;
  }
  if (all_replicated) gang = {0};
  // A replicated table only has complete copies on [0, dist_segments). When
  // the gang must span wider (a hash table occupies the new segments too), the
  // join would silently lose rows on segments with no replica — fail
  // retryably; expansion syncs replicated tables before rebalancing hash
  // tables, so a retry lands after the sync.
  if (!all_replicated && !any_virtual) {
    for (const TableDef& t : query.tables) {
      if (t.distribution.kind != DistributionKind::kReplicated) continue;
      // The recorded span is authoritative even mid-rebalance: the sync flips
      // it only after every live snapshot can see the new copies, so until
      // then a wide gang would read missing rows on the added segments.
      if (dist_of(t).first < opts.num_segments) {
        return Status::Unavailable("replicated table " + t.name +
                                   " not yet synced to expanded segments; retry");
      }
    }
  }
  // Virtual scans never dispatch to segments at all.
  if (any_virtual) gang = {};

  // Build per-table scans.
  auto estimate = [&](const TableDef& t) -> uint64_t {
    return opts.row_estimate ? opts.row_estimate(t.id) : 1000;
  };

  std::vector<RelState> rels;
  for (int t = 0; t < num_tables; ++t) {
    const TableDef& def = query.tables[static_cast<size_t>(t)];
    int ncols = static_cast<int>(def.schema.num_columns());
    // Scan-local remap: combined col -> scan output col.
    std::vector<int> remap(static_cast<size_t>(total_cols), -1);
    for (int c = 0; c < ncols; ++c) {
      remap[static_cast<size_t>(offset[static_cast<size_t>(t)] + c)] = c;
    }
    ExprPtr scan_filter = RemapExpr(AndAll(table_quals[static_cast<size_t>(t)]), remap);

    PlanPtr scan;
    // Point lookup through a hash index when available and pinned.
    ExprPtr all_quals = AndAll(table_quals[static_cast<size_t>(t)]);
    bool made_index_scan = false;
    if (def.is_system_view) {
      scan = MakeVirtualScan(def.id, ncols, scan_filter);
      made_index_scan = true;  // suppress the SeqScan fallback below
    } else if (all_quals) {
      for (int icol : def.indexed_cols) {
        Datum key;
        if (ExtractEqualityConst(*all_quals, offset[static_cast<size_t>(t)] + icol, &key)) {
          scan = MakeIndexScan(def.id, ncols, icol, key, scan_filter);
          made_index_scan = true;
          break;
        }
      }
    }
    if (!made_index_scan) scan = MakeSeqScan(def.id, ncols, scan_filter);

    RelState rel;
    rel.plan = std::move(scan);
    rel.col_map.assign(static_cast<size_t>(total_cols), -1);
    for (int c = 0; c < ncols; ++c) {
      rel.col_map[static_cast<size_t>(offset[static_cast<size_t>(t)] + c)] = c;
    }
    if (def.distribution.kind == DistributionKind::kHash) {
      // Collocation only holds when the table's hash modulus matches the
      // cluster width: a table still routed modulo its pre-expansion span (or
      // mid-rebalance, with rows transiently at both homes) does not place a
      // key on the segment a full-width redistribute would, so its
      // distribution is treated as unknown and joins add a motion.
      auto [mod, rebalancing] = dist_of(def);
      if (mod == opts.num_segments && !rebalancing) {
        for (int kc : def.distribution.key_cols) {
          rel.hash_dist.push_back(offset[static_cast<size_t>(t)] + kc);
        }
      }
    } else if (def.distribution.kind == DistributionKind::kReplicated) {
      rel.replicated = true;
    }
    rel.rows = estimate(def);
    rels.push_back(std::move(rel));
  }

  // Join order: FROM order (heuristic), or by descending cardinality with the
  // largest relation first (cost-based "Orca" mode). Replicated relations go
  // last so they end up on the build side.
  std::vector<int> order(static_cast<size_t>(num_tables));
  std::iota(order.begin(), order.end(), 0);
  if (opts.use_orca) {
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return rels[static_cast<size_t>(a)].rows > rels[static_cast<size_t>(b)].rows;
    });
  }
  std::stable_partition(order.begin(), order.end(),
                        [&](int t) { return !rels[static_cast<size_t>(t)].replicated; });

  // Left-deep join chain.
  RelState current = std::move(rels[static_cast<size_t>(order[0])]);
  for (size_t oi = 1; oi < order.size(); ++oi) {
    RelState next = std::move(rels[static_cast<size_t>(order[oi])]);

    // Join keys between `current` and `next`.
    std::vector<int> left_keys_combined, right_keys_combined;
    for (auto& jq : join_quals) {
      if (jq.used) continue;
      bool a_in_cur = current.col_map[static_cast<size_t>(jq.ca)] >= 0;
      bool b_in_cur = current.col_map[static_cast<size_t>(jq.cb)] >= 0;
      bool a_in_next = next.col_map[static_cast<size_t>(jq.ca)] >= 0;
      bool b_in_next = next.col_map[static_cast<size_t>(jq.cb)] >= 0;
      if (a_in_cur && b_in_next) {
        left_keys_combined.push_back(jq.ca);
        right_keys_combined.push_back(jq.cb);
        jq.used = true;
      } else if (b_in_cur && a_in_next) {
        left_keys_combined.push_back(jq.cb);
        right_keys_combined.push_back(jq.ca);
        jq.used = true;
      }
    }

    // Join rows meet on one segment without a motion only when distribution
    // key j of one side is joined to distribution key j of the other, for
    // every j: the hash runs over the keys in distribution order. partners()
    // maps `rel`'s distribution keys through the join-key pairs to the other
    // side's columns, in that order; empty when `rel` is not covered (no hash
    // distribution, or a distribution key that is not a join key).
    auto partners = [](const RelState& rel, const std::vector<int>& own_keys,
                       const std::vector<int>& other_keys) -> std::vector<int> {
      if (rel.replicated || rel.hash_dist.empty()) return {};
      std::vector<int> out;
      for (int d : rel.hash_dist) {
        auto it = std::find(own_keys.begin(), own_keys.end(), d);
        if (it == own_keys.end()) return {};
        out.push_back(other_keys[static_cast<size_t>(it - own_keys.begin())]);
      }
      return out;
    };
    auto paired = [&]() -> bool {
      if (current.hash_dist.empty() || current.hash_dist.size() != next.hash_dist.size()) {
        return false;
      }
      for (size_t j = 0; j < current.hash_dist.size(); ++j) {
        bool found = false;
        for (size_t k = 0; k < left_keys_combined.size() && !found; ++k) {
          found = left_keys_combined[k] == current.hash_dist[j] &&
                  right_keys_combined[k] == next.hash_dist[j];
        }
        if (!found) return false;
      }
      return true;
    };

    if (!left_keys_combined.empty()) {
      // Hash join. Decide motions: the keys each side is redistributed on,
      // empty when it stays put. A replicated side is collocated with
      // anything, so joins against it never move data. A covered side stays
      // and the other side is hashed on its partner columns; the probe side
      // stays when both are covered.
      std::vector<int> left_motion_keys, right_motion_keys;
      if (!current.replicated && !next.replicated && !paired()) {
        std::vector<int> left_partners =
            partners(current, left_keys_combined, right_keys_combined);
        std::vector<int> right_partners =
            partners(next, right_keys_combined, left_keys_combined);
        if (!left_partners.empty()) {
          right_motion_keys = std::move(left_partners);
        } else if (!right_partners.empty()) {
          left_motion_keys = std::move(right_partners);
        } else {
          left_motion_keys = left_keys_combined;
          right_motion_keys = right_keys_combined;
        }
      }
      bool left_motion = !left_motion_keys.empty();
      bool right_motion = !right_motion_keys.empty();
      bool broadcast_right = false;
      if (opts.use_orca && (left_motion || right_motion) &&
          next.rows * 10 < current.rows) {
        // Small build side: replicate it instead of moving either stream.
        broadcast_right = true;
        left_motion = false;
        right_motion = true;
      }

      auto add_motion = [&](RelState& rel, const std::vector<int>& keys_combined,
                            bool broadcast) {
        std::vector<int> local_keys;
        for (int kc : keys_combined) {
          local_keys.push_back(rel.col_map[static_cast<size_t>(kc)]);
        }
        rel.plan = MakeMotion(broadcast ? MotionKind::kBroadcast : MotionKind::kRedistribute,
                              std::move(rel.plan), opts.next_motion_id(), local_keys);
        if (broadcast) {
          rel.replicated = true;
          rel.hash_dist.clear();
        } else {
          rel.hash_dist = keys_combined;
          rel.replicated = false;
        }
      };
      if (left_motion) add_motion(current, left_motion_keys, false);
      if (right_motion) {
        add_motion(next, broadcast_right ? right_keys_combined : right_motion_keys,
                   broadcast_right);
      }

      auto join = std::make_unique<PlanNode>();
      join->kind = PlanKind::kHashJoin;
      for (int kc : left_keys_combined) {
        join->left_keys.push_back(current.col_map[static_cast<size_t>(kc)]);
      }
      for (int kc : right_keys_combined) {
        join->right_keys.push_back(next.col_map[static_cast<size_t>(kc)]);
      }
      int left_arity = current.plan->output_arity;
      join->output_arity = left_arity + next.plan->output_arity;
      join->children.push_back(std::move(current.plan));
      join->children.push_back(std::move(next.plan));
      current.plan = std::move(join);
      // Merge column maps: next's outputs shift by left_arity.
      for (int c = 0; c < total_cols; ++c) {
        if (next.col_map[static_cast<size_t>(c)] >= 0) {
          current.col_map[static_cast<size_t>(c)] =
              left_arity + next.col_map[static_cast<size_t>(c)];
        }
      }
      // Distribution of the join output: the probe side's, unless the probe
      // was replicated — then matches live where the build rows live.
      if (current.replicated && !next.replicated) {
        current.replicated = false;
        current.hash_dist = next.hash_dist;
      }
      current.rows = std::max(current.rows, next.rows);
    } else {
      // No equi-join: cartesian nested loop; broadcast the inner side.
      if (!next.replicated) {
        next.plan = MakeMotion(MotionKind::kBroadcast, std::move(next.plan),
                               opts.next_motion_id());
        next.replicated = true;
      }
      auto join = std::make_unique<PlanNode>();
      join->kind = PlanKind::kNestLoop;
      join->prefetch_inner = true;
      int left_arity = current.plan->output_arity;
      join->output_arity = left_arity + next.plan->output_arity;
      join->children.push_back(std::move(current.plan));
      join->children.push_back(std::move(next.plan));
      current.plan = std::move(join);
      for (int c = 0; c < total_cols; ++c) {
        if (next.col_map[static_cast<size_t>(c)] >= 0) {
          current.col_map[static_cast<size_t>(c)] =
              left_arity + next.col_map[static_cast<size_t>(c)];
        }
      }
      current.rows *= next.rows;
    }
  }

  // Residual filters (multi-table, non-equi).
  if (!residual.empty()) {
    ExprPtr remapped = RemapExpr(AndAll(residual), current.col_map);
    if (!remapped) return Status::Internal("failed to remap residual predicate");
    auto filter = std::make_unique<PlanNode>();
    filter->kind = PlanKind::kFilter;
    filter->filter = remapped;
    filter->output_arity = current.plan->output_arity;
    filter->children.push_back(std::move(current.plan));
    current.plan = std::move(filter);
  }

  PlannedSelect out;
  out.gang = gang;

  if (query.HasAggregates()) {
    // Aggregation with group columns / agg arguments rebased onto the current
    // stream layout. Stored tables aggregate in two phases (partial on the
    // segments, final above a Gather); a system-view scan already runs on the
    // coordinator, so one single-phase HashAgg suffices and no motion exists.
    auto partial = std::make_unique<PlanNode>();
    partial->kind = PlanKind::kHashAgg;
    partial->agg_phase = any_virtual ? AggPhase::kSingle : AggPhase::kPartial;
    for (int gc : query.group_by) {
      int local = current.col_map[static_cast<size_t>(gc)];
      if (local < 0) return Status::Internal("group-by column lost in join");
      partial->group_cols.push_back(local);
    }
    int state_arity = 0;
    for (const SelectItem& item : query.items) {
      if (!item.is_agg) continue;
      AggSpec spec = item.agg;
      if (spec.arg) {
        spec.arg = RemapExpr(spec.arg, current.col_map);
        if (!spec.arg) return Status::Internal("agg argument lost in join");
      }
      state_arity += AggStateArity(spec.fn);
      partial->aggs.push_back(std::move(spec));
    }
    partial->output_arity = static_cast<int>(partial->group_cols.size()) + state_arity;
    std::vector<AggSpec> final_aggs = partial->aggs;
    size_t num_groups = partial->group_cols.size();

    PlanPtr agg_out;
    if (any_virtual) {
      partial->output_arity =
          static_cast<int>(num_groups + partial->aggs.size());
      partial->children.push_back(std::move(current.plan));
      agg_out = std::move(partial);
    } else {
      partial->children.push_back(std::move(current.plan));

      PlanPtr gathered = MakeMotion(MotionKind::kGather, std::move(partial),
                                    opts.next_motion_id());

      auto final_agg = std::make_unique<PlanNode>();
      final_agg->kind = PlanKind::kHashAgg;
      final_agg->agg_phase = AggPhase::kFinal;
      for (size_t i = 0; i < num_groups; ++i) {
        final_agg->group_cols.push_back(static_cast<int>(i));
      }
      final_agg->aggs = std::move(final_aggs);
      final_agg->output_arity =
          static_cast<int>(num_groups + final_agg->aggs.size());
      final_agg->children.push_back(std::move(gathered));
      agg_out = std::move(final_agg);
    }

    // Final projection: every item (visible + HAVING-hidden) in order.
    auto project = std::make_unique<PlanNode>();
    project->kind = PlanKind::kProject;
    int agg_index = 0;
    int num_visible = query.NumVisible();
    for (int item_index = 0; item_index < static_cast<int>(query.items.size());
         ++item_index) {
      const SelectItem& item = query.items[static_cast<size_t>(item_index)];
      if (item.is_agg) {
        project->exprs.push_back(
            Expr::Column(static_cast<int>(num_groups) + agg_index));
        ++agg_index;
      } else {
        // Must be one of the group-by columns.
        if (item.expr->kind != ExprKind::kColumn) {
          return Status::InvalidArgument(
              "non-aggregate select item must be a grouped column");
        }
        int pos = -1;
        for (size_t g = 0; g < query.group_by.size(); ++g) {
          if (query.group_by[g] == item.expr->column) {
            pos = static_cast<int>(g);
            break;
          }
        }
        if (pos < 0) {
          return Status::InvalidArgument("column " + item.name +
                                         " must appear in GROUP BY");
        }
        project->exprs.push_back(Expr::Column(pos));
      }
      if (item_index < num_visible) out.columns.push_back(item.name);
    }
    project->output_arity = static_cast<int>(project->exprs.size());
    project->children.push_back(std::move(agg_out));
    out.root = std::move(project);

    // HAVING filters over the item layout, then hidden items are chopped off.
    if (query.having != nullptr) {
      auto filter = std::make_unique<PlanNode>();
      filter->kind = PlanKind::kFilter;
      filter->filter = query.having;
      filter->output_arity = out.root->output_arity;
      filter->children.push_back(std::move(out.root));
      out.root = std::move(filter);
    }
    if (static_cast<int>(query.items.size()) > num_visible) {
      auto chop = std::make_unique<PlanNode>();
      chop->kind = PlanKind::kProject;
      for (int i = 0; i < num_visible; ++i) chop->exprs.push_back(Expr::Column(i));
      chop->output_arity = num_visible;
      chop->children.push_back(std::move(out.root));
      out.root = std::move(chop);
    }
  } else {
    // Plain select: project on segments, gather to coordinator.
    auto project = std::make_unique<PlanNode>();
    project->kind = PlanKind::kProject;
    for (const SelectItem& item : query.items) {
      ExprPtr remapped = RemapExpr(item.expr, current.col_map);
      if (!remapped) return Status::Internal("select item lost in join");
      project->exprs.push_back(remapped);
      out.columns.push_back(item.name);
    }
    project->output_arity = static_cast<int>(project->exprs.size());
    project->children.push_back(std::move(current.plan));
    if (any_virtual) {
      out.root = std::move(project);  // already on the coordinator; no Gather
    } else {
      PlanPtr segment_out = std::move(project);
      if (query.distinct) {
        // Two-phase DISTINCT: each segment ships only its distinct rows.
        segment_out = MakeDedup(std::move(segment_out), AggPhase::kPartial);
      }
      out.root = MakeMotion(MotionKind::kGather, std::move(segment_out),
                            opts.next_motion_id());
    }
  }

  // DISTINCT: the (final) dedup on the coordinator. Over aggregated output or
  // a system view it is the only phase.
  if (query.distinct) {
    const bool two_phase = !query.HasAggregates() && !any_virtual;
    out.root = MakeDedup(std::move(out.root),
                         two_phase ? AggPhase::kFinal : AggPhase::kSingle);
  }

  // ORDER BY / LIMIT on the coordinator.
  if (!query.order_by.empty()) {
    auto sort = std::make_unique<PlanNode>();
    sort->kind = PlanKind::kSort;
    for (const OrderItem& o : query.order_by) {
      sort->sort_keys.push_back(SortKey{o.select_index, o.ascending});
    }
    sort->output_arity = out.root->output_arity;
    sort->children.push_back(std::move(out.root));
    out.root = std::move(sort);
  }
  if (query.limit >= 0) {
    auto limit = std::make_unique<PlanNode>();
    limit->kind = PlanKind::kLimit;
    limit->limit = query.limit;
    limit->output_arity = out.root->output_arity;
    limit->children.push_back(std::move(out.root));
    out.root = std::move(limit);
  }

  if (opts.vectorize) {
    std::set<TableId> vec_tables;
    for (const TableDef& def : query.tables) {
      // Non-partitioned AO-column tables scan as ColumnBatches. Partitioned
      // roots fan out to heterogeneous leaves, so they stay on the row path.
      if (def.storage == StorageKind::kAoColumn && !def.partitions.has_value()) {
        vec_tables.insert(def.id);
      }
      // With the delta store on, plain heap tables scan as delta-merged
      // batches (sealed delta groups + open columnar tail) — the fresh-data
      // vectorization path. Same partitioned-root exclusion.
      if (opts.delta_store && def.storage == StorageKind::kHeap &&
          !def.partitions.has_value() && !def.is_system_view) {
        vec_tables.insert(def.id);
      }
    }
    if (!vec_tables.empty()) MarkVectorizable(out.root.get(), vec_tables);
  }
  LabelScanStores(out.root.get(), query.tables, opts);
  return out;
}

}  // namespace gphtap
