#include "vec/vec_executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/wait_event.h"
#include "delta/delta_index.h"
#include "exec/agg_ops.h"
#include "exec/executor.h"
#include "stats/statement_resources.h"
#include "storage/column_store.h"
#include "storage/heap_table.h"
#include "vec/hash_table.h"
#include "vec/vec_kernels.h"

namespace gphtap {

bool VecEngineSupports(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSeqScan:
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kHashAgg:
    case PlanKind::kHashJoin:
    case PlanKind::kMotion:
      return true;
    default:
      return false;
  }
}

namespace {

Status ExecuteNodeVecImpl(const PlanNode& node, ExecContext& ctx, const BatchSink& sink);

// Footprint of physical row `r` of a batch, mirroring the row engine's
// RowFootprint without materializing the Row.
int64_t BatchRowFootprint(const ColumnBatch& b, int32_t r) {
  int64_t bytes = 32;
  for (const ColumnVector& col : b.columns) {
    bytes += static_cast<int64_t>(col.FootprintAt(static_cast<size_t>(r)));
  }
  return bytes;
}

// Packs the rows a row-engine producer emits into batches: the vec-over-row
// fallback, counted in vec.fallbacks.
Status PackRowsVec(ExecContext& ctx, const std::function<Status(const RowSink&)>& produce,
                   const BatchSink& sink) {
  if (ctx.cluster != nullptr) ctx.cluster->metrics().counter("vec.fallbacks")->Add(1);
  if (ctx.resources != nullptr) ctx.resources->vec_fallbacks.fetch_add(1, std::memory_order_relaxed);
  ColumnBatch batch;
  bool shaped = false;
  Status s = produce([&](Row&& row) -> Status {
    if (!shaped) {
      batch.Reset(row.size());
      shaped = true;
    }
    batch.AppendRow(std::move(row));
    if (batch.rows >= ColumnBatch::kDefaultCapacity) {
      size_t ncols = batch.NumColumns();
      ColumnBatch full = std::move(batch);
      batch = ColumnBatch();
      batch.Reset(ncols);
      GPHTAP_RETURN_IF_ERROR(sink(std::move(full)));
    }
    return Status::OK();
  });
  GPHTAP_RETURN_IF_ERROR(s);
  if (batch.rows > 0) return sink(std::move(batch));
  return Status::OK();
}

// Runs a child subtree as a batch producer: the vec path when the child is
// marked, otherwise the row engine with rows packed into batches.
Status ExecuteChildVec(const PlanNode& child, ExecContext& ctx, const BatchSink& sink) {
  if (child.vectorize && VecEngineSupports(child.kind)) {
    return ExecuteNodeVec(child, ctx, sink);
  }
  return PackRowsVec(
      ctx, [&](const RowSink& rows) { return ExecuteNode(child, ctx, rows); }, sink);
}

// Drives one store's batch scan: Tick per batch, node.filter, and the sink
// for batches with rows left. Adds the visible (pre-filter) row count to
// `visible_rows` (may be null).
Status DriveBatchScan(const PlanNode& node, ExecContext& ctx,
                      const std::function<Status(const BatchScanCallback&)>& scan,
                      const BatchSink& sink, int64_t* visible_rows) {
  Status inner = Status::OK();
  Status s = scan([&](ColumnBatch&& batch) -> bool {
    // One Tick per batch amortizes cancellation checks and simulated-CPU
    // charging over the whole group.
    inner = ctx.Tick(static_cast<int>(batch.rows));
    if (!inner.ok()) return false;
    if (visible_rows != nullptr) *visible_rows += static_cast<int64_t>(batch.ActiveRows());
    if (node.filter) {
      inner = VecFilterBatch(*node.filter, &batch);
      if (!inner.ok()) return false;
    }
    if (batch.ActiveRows() == 0) return true;
    inner = sink(std::move(batch));
    return inner.ok();
  });
  if (!inner.ok()) return inner;
  return s;
}

// ---------- morsel-parallel row-group scan ----------
//
// Workers claim ascending group indexes from an atomic counter, decode +
// filter them (both pure / latch-protected), and publish results into a
// bounded reorder buffer. The consumer (the slice's own thread) drains the
// buffer strictly in group order, so output is byte-identical to the
// single-threaded scan; it alone runs ctx.Tick and the sink (neither is
// thread-safe).
struct MorselQueue {
  std::mutex mu;
  std::condition_variable cv;
  // gi -> decoded batch; null marks a skipped (reclaimed / fully-invisible /
  // fully-filtered) group. Bounded by `capacity` entries.
  std::map<size_t, std::unique_ptr<ColumnBatch>> ready;
  size_t capacity = 4;
  size_t next_consume = 0;
  std::atomic<size_t> next_claim{0};
  // Pre-filter visible rows decoded across all workers (store accounting).
  std::atomic<int64_t> visible_rows{0};
  int active_workers = 0;
  bool stop = false;  // consumer asks workers to quit (error or early stop)
  Status error;
  bool failed = false;
};

void MorselWorker(MorselQueue* q, AoColumnTable* aoc, const VisibilityContext vis,
                  const std::vector<int>& cols, const Expr* filter,
                  size_t num_groups) {
  for (;;) {
    size_t gi = q->next_claim.fetch_add(1, std::memory_order_relaxed);
    if (gi >= num_groups) break;
    {
      // Backpressure: don't run far ahead of the in-order consumer.
      std::unique_lock<std::mutex> g(q->mu);
      q->cv.wait(g, [&] {
        return q->stop || q->failed || gi < q->next_consume + q->capacity;
      });
      if (q->stop || q->failed) {
        // Publish a skip so the consumer never waits on this index.
        q->ready.emplace(gi, nullptr);
        q->cv.notify_all();
        break;
      }
    }
    auto batch = std::make_unique<ColumnBatch>();
    auto decoded = aoc->DecodeGroup(gi, vis, cols, batch.get());
    Status st = decoded.ok() ? Status::OK() : decoded.status();
    bool skip = st.ok() && !*decoded;
    if (st.ok() && !skip) {
      q->visible_rows.fetch_add(static_cast<int64_t>(batch->ActiveRows()),
                                std::memory_order_relaxed);
    }
    if (st.ok() && !skip && filter != nullptr) {
      st = VecFilterBatch(*filter, batch.get());
      if (st.ok() && batch->ActiveRows() == 0) skip = true;
    }
    std::lock_guard<std::mutex> g(q->mu);
    if (!st.ok() && !q->failed) {
      q->failed = true;
      q->error = st;
    }
    q->ready.emplace(gi, skip || !st.ok() ? nullptr : std::move(batch));
    q->cv.notify_all();
  }
  std::lock_guard<std::mutex> g(q->mu);
  --q->active_workers;
  q->cv.notify_all();
}

Status ExecSeqScanVecMorsel(const PlanNode& node, ExecContext& ctx, AoColumnTable* aoc,
                            const std::vector<int>& cols, const VisibilityContext& vis,
                            size_t num_groups, int workers, const BatchSink& sink) {
  MorselQueue q;
  q.capacity = static_cast<size_t>(workers) * 2;
  q.active_workers = workers;
  // Decode workers run on the cluster runtime under the slice's wait context.
  const WaitContext worker_wait = InheritWaitContext();
  ExecRuntime::TaskGroup pool(&ctx.cluster->runtime());
  const Expr* filter = node.filter.get();
  for (int w = 0; w < workers; ++w) {
    pool.Spawn(worker_wait, [&q, aoc, &vis, &cols, filter, num_groups] {
      MorselWorker(&q, aoc, vis, cols, filter, num_groups);
    });
  }
  MetricsRegistry& m = ctx.cluster->metrics();
  m.counter("vec.morsels")->Add(num_groups);
  m.counter("vec.morsel_workers")->Add(static_cast<uint64_t>(workers));

  Status result = Status::OK();
  for (size_t gi = 0; gi < num_groups; ++gi) {
    std::unique_ptr<ColumnBatch> batch;
    {
      std::unique_lock<std::mutex> g(q.mu);
      q.cv.wait(g, [&] {
        return q.failed || q.ready.count(gi) > 0 ||
               (q.active_workers == 0 && q.ready.count(gi) == 0);
      });
      if (q.failed) {
        result = q.error;
        break;
      }
      auto it = q.ready.find(gi);
      if (it == q.ready.end()) break;  // workers gone without publishing: stop
      batch = std::move(it->second);
      q.ready.erase(it);
      q.next_consume = gi + 1;
      q.cv.notify_all();
    }
    if (batch == nullptr) continue;  // skipped group
    Status t = ctx.Tick(static_cast<int>(batch->rows));
    if (t.ok()) t = sink(std::move(*batch));
    if (!t.ok()) {
      result = t;
      break;
    }
  }
  {
    std::lock_guard<std::mutex> g(q.mu);
    q.stop = true;
    q.cv.notify_all();
  }
  pool.Wait();
  GPHTAP_RETURN_IF_ERROR(result);

  int64_t visible_rows = q.visible_rows.load(std::memory_order_relaxed);
  if (ctx.op_stats != nullptr && visible_rows > 0) {
    ctx.op_stats->RecordStoreRows(node.node_id, "ao-column", visible_rows);
  }
  return Status::OK();
}

// Vectorized delta-merged scan of a heap table: wait for the delta feed to
// reach the log position captured at scan start, then scan the table's
// columnar delta store (sealed groups + open tail) under the statement's own
// visibility context. The wait makes the scan snapshot-exact: every record of
// every transaction the snapshot can see was appended before `target`.
// Sets `served=false` (without consuming the sink) when the delta path cannot
// run — no delta index here, or the feed missed the freshness deadline — so
// the caller falls back to the row engine.
Status ExecSeqScanDeltaMerged(const PlanNode& node, ExecContext& ctx,
                              const std::vector<int>& cols, const BatchSink& sink,
                              bool* served) {
  *served = false;
  if (ctx.cluster == nullptr || ctx.segment == nullptr) return Status::OK();
  DeltaIndex* di = ctx.cluster->delta_index(ctx.segment->index());
  ChangeLog* log = ctx.segment->change_log();
  if (di == nullptr || log == nullptr) return Status::OK();
  MetricsRegistry& m = ctx.cluster->metrics();

  const uint64_t target = log->size();
  const int64_t t0 = MonotonicMicros();
  Status fresh;
  {
    WaitEventScope scope(WaitEvent::kDeltaFreshness, ctx.segment->index());
    fresh = di->WaitForApplied(target,
                               ctx.cluster->options().delta_freshness_timeout_us);
  }
  m.counter("delta.freshness_wait_us")->Add(
      static_cast<uint64_t>(MonotonicMicros() - t0));
  if (!fresh.ok()) {
    m.counter("delta.freshness_timeouts")->Add(1);
    return Status::OK();  // the row engine serves this scan instead
  }

  *served = true;
  m.counter("delta.merged_scans")->Add(1);
  DeltaStore* ds = di->store(node.table);
  // No store after a successful freshness wait means no record ever touched
  // the table on this segment: it is empty here.
  if (ds == nullptr) return Status::OK();

  VisibilityContext vis = ctx.Vis();
  uint64_t sealed_rows = 0;
  uint64_t open_rows = 0;
  Status scan = DriveBatchScan(
      node, ctx,
      [&](const BatchScanCallback& fn) {
        return ds->ScanBatches(vis, cols, fn, &sealed_rows, &open_rows);
      },
      sink, nullptr);
  if (ctx.op_stats != nullptr) {
    ctx.op_stats->RecordStoreRows(node.node_id, "delta-merged",
                                  static_cast<int64_t>(sealed_rows + open_rows));
    if (sealed_rows > 0) {
      ctx.op_stats->RecordStoreRows(node.node_id, "delta-sealed",
                                    static_cast<int64_t>(sealed_rows));
    }
    if (open_rows > 0) {
      ctx.op_stats->RecordStoreRows(node.node_id, "delta-open",
                                    static_cast<int64_t>(open_rows));
    }
  }
  return scan;
}

Status ExecSeqScanVec(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  Table* table = nullptr;
  GPHTAP_RETURN_IF_ERROR(TableForNode(ctx, node.table, &table));
  GPHTAP_RETURN_IF_ERROR(AcquireScanLock(ctx, node.table));
  std::vector<int> cols = node.scan_cols;
  if (cols.empty()) {
    cols.resize(table->schema().num_columns());
    for (size_t i = 0; i < cols.size(); ++i) cols[i] = static_cast<int>(i);
  }
  auto* aoc = dynamic_cast<AoColumnTable*>(table);
  if (aoc == nullptr) {
    if (dynamic_cast<HeapTable*>(table) != nullptr) {
      bool served = false;
      Status s = ExecSeqScanDeltaMerged(node, ctx, cols, sink, &served);
      if (served) return s;
      if (ctx.cluster != nullptr) {
        ctx.cluster->metrics().counter("delta.fallback_scans")->Add(1);
      }
    }
    // Tables without a column-wise reader scan on the row engine.
    return PackRowsVec(
        ctx, [&](const RowSink& rows) { return ExecScanCommon(node, ctx, table, rows); },
        sink);
  }

  VisibilityContext vis = ctx.Vis();

  if (ctx.cluster != nullptr) {
    const ClusterOptions& opts = ctx.cluster->options();
    size_t num_groups = aoc->NumGroups();
    if (opts.vec_morsel_workers > 1 && num_groups >= opts.vec_morsel_min_groups) {
      int workers = opts.vec_morsel_workers;
      if (static_cast<size_t>(workers) > num_groups) {
        workers = static_cast<int>(num_groups);
      }
      return ExecSeqScanVecMorsel(node, ctx, aoc, cols, vis, num_groups, workers, sink);
    }
  }

  int64_t visible_rows = 0;
  Status scan = DriveBatchScan(
      node, ctx,
      [&](const BatchScanCallback& fn) { return aoc->ScanBatches(vis, cols, fn); }, sink,
      &visible_rows);
  if (ctx.op_stats != nullptr && visible_rows > 0) {
    ctx.op_stats->RecordStoreRows(node.node_id, "ao-column", visible_rows);
  }
  return scan;
}

// ---------- vectorized hash join ----------
//
// Mirrors the row engine's ExecHashJoin (null keys never match, keys compare
// under Datum::Compare, combined layout = probe columns then build columns,
// node.filter applied to the combined row, same memory accounting), but the
// build side is one dense ColumnBatch indexed by a VecHashTable, and each
// probe batch resolves to (probe row, build row) pairs whose output is
// gathered column by column.
Status ExecHashJoinVec(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  // Build side = children[1] (inner), fully materialized first — this is also
  // the Appendix-B network-deadlock prophylactic.
  ColumnBatch build;
  Status st = ExecuteChildVec(*node.children[1], ctx, [&](ColumnBatch&& b) -> Status {
    if (build.columns.empty()) build.Reset(b.NumColumns());
    for (int32_t r : b.sel) {
      bool null_key = false;
      for (int k : node.right_keys) {
        if (b.columns[static_cast<size_t>(k)].IsNull(static_cast<size_t>(r))) {
          null_key = true;
          break;
        }
      }
      if (null_key) continue;
      GPHTAP_RETURN_IF_ERROR(ctx.ReserveMem(BatchRowFootprint(b, r)));
      build.AppendSelectedFrom(b, r);
    }
    return Status::OK();
  });
  GPHTAP_RETURN_IF_ERROR(st);
  const VecHashTable table(std::move(build), node.right_keys);
  const ColumnBatch& inner = table.entries();

  // Matches accumulate into full output batches.
  ColumnBatch out;
  auto flush = [&]() -> Status {
    out.SelectAll();
    if (node.filter) {
      GPHTAP_RETURN_IF_ERROR(VecFilterBatch(*node.filter, &out));
    }
    const size_t ncols = out.NumColumns();
    ColumnBatch full = std::move(out);
    out = ColumnBatch();
    out.columns.resize(ncols);
    if (full.ActiveRows() == 0) return Status::OK();
    return sink(std::move(full));
  };
  std::vector<int32_t> probe_rows, build_rows;
  Status ps = ExecuteChildVec(*node.children[0], ctx, [&](ColumnBatch&& p) -> Status {
    GPHTAP_RETURN_IF_ERROR(ctx.Tick(static_cast<int>(p.ActiveRows())));
    const size_t probe_cols = p.NumColumns();
    if (out.columns.empty()) out.columns.resize(probe_cols + inner.NumColumns());
    table.Probe(p, node.left_keys, &probe_rows, &build_rows);
    for (size_t done = 0; done < probe_rows.size();) {
      const size_t n = std::min(probe_rows.size() - done,
                                ColumnBatch::kDefaultCapacity - out.rows);
      for (size_t c = 0; c < probe_cols; ++c) {
        out.columns[c].AppendGather(p.columns[c], probe_rows.data() + done, n);
      }
      for (size_t c = 0; c < inner.NumColumns(); ++c) {
        out.columns[probe_cols + c].AppendGather(inner.columns[c],
                                                 build_rows.data() + done, n);
      }
      out.rows += n;
      done += n;
      if (out.rows >= ColumnBatch::kDefaultCapacity) {
        GPHTAP_RETURN_IF_ERROR(flush());
      }
    }
    return Status::OK();
  });
  GPHTAP_RETURN_IF_ERROR(ps);
  if (out.rows > 0) return flush();
  return Status::OK();
}

// Sends the first `num_groups` groups of a hash agg to `sink` in batches of
// kDefaultCapacity: output row g is key entry g of `groups` followed by the
// values emit(g, ...) appends.
Status EmitGroups(const VecHashTable& groups, size_t num_groups,
                  const std::function<void(size_t, Row*)>& emit, const BatchSink& sink) {
  const ColumnBatch& keys = groups.entries();
  std::vector<int32_t> ids;
  Row agg_values;
  for (size_t begin = 0; begin < num_groups; begin += ColumnBatch::kDefaultCapacity) {
    const size_t n = std::min(num_groups - begin, ColumnBatch::kDefaultCapacity);
    ids.resize(n);
    std::iota(ids.begin(), ids.end(), static_cast<int32_t>(begin));
    ColumnBatch out;
    for (size_t g = 0; g < n; ++g) {
      agg_values.clear();
      emit(begin + g, &agg_values);
      if (out.columns.empty()) out.columns.resize(keys.NumColumns() + agg_values.size());
      for (size_t a = 0; a < agg_values.size(); ++a) {
        out.columns[keys.NumColumns() + a].Append(std::move(agg_values[a]));
      }
    }
    for (size_t k = 0; k < keys.NumColumns(); ++k) {
      out.columns[k].AppendGather(keys.columns[k], ids.data(), n);
    }
    out.rows = n;
    out.SelectAll();
    Status s = sink(std::move(out));
    if (s.code() == StatusCode::kStopIteration) return s;
    GPHTAP_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

// Grouped, DISTINCT and global aggregation over batches. Each input batch
// resolves to a group-id vector through one VecHashTable; aggregate states
// are stored per aggregate, indexed by group id.
Status ExecHashAggVec(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  const size_t num_aggs = node.aggs.size();
  const size_t num_keys = node.group_cols.size();
  VecHashTable groups(num_keys);
  std::vector<std::vector<AggState>> states(num_aggs);
  std::vector<int32_t> gids;

  // Resolves `b`'s live rows to group ids (keys at `key_cols`) and reserves
  // memory for each new group: it grows with the number of groups, not the
  // number of input rows (same accounting as the row engine's hash agg).
  auto resolve = [&](const ColumnBatch& b, const std::vector<int>& key_cols) -> Status {
    const size_t before = groups.size();
    groups.FindOrInsert(b, key_cols, &gids);
    for (auto& s : states) s.resize(groups.size());
    for (size_t g = before; g < groups.size(); ++g) {
      GPHTAP_RETURN_IF_ERROR(
          ctx.ReserveMem(BatchRowFootprint(groups.entries(), static_cast<int32_t>(g)) +
                         64 * static_cast<int64_t>(num_aggs)));
    }
    return Status::OK();
  };

  Status s;
  if (node.agg_phase == AggPhase::kFinal) {
    // Final phase: merge partial states. Input layout: group cols first, then
    // each agg's partial state columns (AggStateArity wide). Input volume is
    // one row per (group, sender), so the merge materializes each row.
    std::vector<int> gcols(num_keys);
    std::iota(gcols.begin(), gcols.end(), 0);
    s = ExecuteChildVec(*node.children[0], ctx, [&](ColumnBatch&& b) -> Status {
      GPHTAP_RETURN_IF_ERROR(ctx.Tick(static_cast<int>(b.ActiveRows())));
      GPHTAP_RETURN_IF_ERROR(resolve(b, gcols));
      if (num_aggs == 0) return Status::OK();
      for (int32_t r : b.sel) {
        const Row row = b.MaterializeRow(r);
        const auto g = static_cast<size_t>(gids[static_cast<size_t>(r)]);
        int col = static_cast<int>(num_keys);
        for (size_t a = 0; a < num_aggs; ++a) {
          GPHTAP_RETURN_IF_ERROR(AggMergePartial(node.aggs[a], &states[a][g], row, col));
          col += AggStateArity(node.aggs[a].fn);
        }
      }
      return Status::OK();
    });
  } else {
    std::vector<ColumnVector> argvals(num_aggs);
    s = ExecuteChildVec(*node.children[0], ctx, [&](ColumnBatch&& b) -> Status {
      GPHTAP_RETURN_IF_ERROR(ctx.Tick(static_cast<int>(b.ActiveRows())));
      // Evaluate each aggregate's argument once over the whole batch.
      for (size_t a = 0; a < num_aggs; ++a) {
        if (node.aggs[a].arg != nullptr) {
          GPHTAP_RETURN_IF_ERROR(VecEval(*node.aggs[a].arg, b, b.sel, &argvals[a]));
        }
      }
      if (num_keys == 0) {
        // Global aggregation: one group, column-at-a-time accumulation.
        if (b.sel.empty()) return Status::OK();
        if (groups.size() == 0) GPHTAP_RETURN_IF_ERROR(resolve(b, node.group_cols));
        for (size_t a = 0; a < num_aggs; ++a) {
          VecAggUpdate(node.aggs[a].fn, argvals[a], b.sel, &states[a][0]);
        }
        return Status::OK();
      }
      GPHTAP_RETURN_IF_ERROR(resolve(b, node.group_cols));
      for (size_t a = 0; a < num_aggs; ++a) {
        VecAggUpdateGrouped(node.aggs[a].fn, argvals[a], b.sel, gids.data(),
                            states[a].data());
      }
      return Status::OK();
    });
  }
  GPHTAP_RETURN_IF_ERROR(s);

  // Global aggregates with zero input rows still produce one output group.
  size_t num_groups = groups.size();
  if (num_groups == 0 && num_keys == 0) {
    num_groups = 1;
    for (auto& st : states) st.resize(1);
  }
  return EmitGroups(
      groups, num_groups,
      [&](size_t g, Row* values) {
        for (size_t a = 0; a < num_aggs; ++a) {
          if (node.agg_phase == AggPhase::kPartial) {
            AggEmitPartial(node.aggs[a], states[a][g], values);
          } else {
            AggEmitFinal(node.aggs[a], states[a][g], values);
          }
        }
      },
      sink);
}

Status ExecMotionRecvVec(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  auto it = ctx.exchanges->find(node.motion_id);
  if (it == ctx.exchanges->end()) {
    return Status::Internal("no exchange for motion " + std::to_string(node.motion_id));
  }
  MotionExchange& ex = *it->second;
  while (auto batch = ex.RecvBatch(ctx.receiver_index)) {
    GPHTAP_RETURN_IF_ERROR(ctx.Tick(static_cast<int>(batch->ActiveRows())));
    Status s = sink(std::move(*batch));
    if (s.code() == StatusCode::kStopIteration) return s;
    GPHTAP_RETURN_IF_ERROR(s);
  }
  if (ex.aborted() && !(ctx.owner && ctx.owner->cancelled())) {
    return Status::Aborted("motion exchange aborted");
  }
  if (ctx.owner && ctx.owner->cancelled()) return ctx.owner->cancel_reason();
  return Status::OK();
}

Status ExecuteNodeVecImpl(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  switch (node.kind) {
    case PlanKind::kSeqScan:
      return ExecSeqScanVec(node, ctx, sink);
    case PlanKind::kFilter:
      return ExecuteChildVec(*node.children[0], ctx, [&](ColumnBatch&& b) -> Status {
        GPHTAP_RETURN_IF_ERROR(VecFilterBatch(*node.filter, &b));
        if (b.ActiveRows() == 0) return Status::OK();
        return sink(std::move(b));
      });
    case PlanKind::kProject:
      return ExecuteChildVec(*node.children[0], ctx, [&](ColumnBatch&& b) -> Status {
        ColumnBatch out;
        GPHTAP_RETURN_IF_ERROR(VecProjectBatch(node.exprs, b, &out));
        if (out.ActiveRows() == 0) return Status::OK();
        return sink(std::move(out));
      });
    case PlanKind::kHashAgg:
      return ExecHashAggVec(node, ctx, sink);
    case PlanKind::kHashJoin:
      return ExecHashJoinVec(node, ctx, sink);
    case PlanKind::kMotion:
      return ExecMotionRecvVec(node, ctx, sink);
    default:
      return Status::Internal("plan node kind not vectorized");
  }
}

}  // namespace

Status ExecuteNodeVec(const PlanNode& node, ExecContext& ctx, const BatchSink& sink) {
  int64_t rows = 0, batches = 0;
  auto counting = [&](ColumnBatch&& b) -> Status {
    ++batches;
    rows += static_cast<int64_t>(b.ActiveRows());
    return sink(std::move(b));
  };
  Stopwatch sw;
  Status s = ExecuteNodeVecImpl(node, ctx, counting);
  if (ctx.op_stats != nullptr && node.node_id >= 0) {
    ctx.op_stats->Record(node.node_id, rows, sw.ElapsedMicros(), batches);
  }
  if (ctx.cluster != nullptr) {
    MetricsRegistry& m = ctx.cluster->metrics();
    m.counter("vec.batches")->Add(static_cast<uint64_t>(batches));
    m.counter("vec.rows")->Add(static_cast<uint64_t>(rows));
  }
  if (ctx.resources != nullptr && batches > 0) {
    // Same per-node semantics as the vec.batches counter (nested marked nodes
    // each count their output), so the view column joins against the metric.
    ctx.resources->vec_batches.fetch_add(static_cast<uint64_t>(batches),
                                         std::memory_order_relaxed);
  }
  return s;
}

}  // namespace gphtap
