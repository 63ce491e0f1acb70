// Probes run once per traced run, on the loaded cluster, before the timed
// window: fixed-cost statements, storage scan/decode, and SQL plan time.
// Each one times the program's public entry points from outside.
#include <algorithm>
#include <functional>

#include "bench.h"
#include "plan/planner.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "storage/column_store.h"
#include "storage/compression.h"

namespace htapbench {

namespace {

constexpr int kStatementReps = 300;
constexpr int kPlanReps = 30;
constexpr int kScanReps = 15;
constexpr int kDecodeReps = 7;
constexpr size_t kBlockValues = 1024;  // one AO-column row group

// Median of `reps` timings of `fn`, in ns, after `reps / 10` untimed calls.
StatusOr<double> MedianNs(int reps, const std::function<Status(int)>& fn) {
  for (int i = 0; i < reps / 10; ++i) GPHTAP_RETURN_IF_ERROR(fn(i));
  std::vector<int64_t> ns;
  for (int i = 0; i < reps; ++i) {
    int64_t start = NowNs();
    GPHTAP_RETURN_IF_ERROR(fn(i));
    ns.push_back(NowNs() - start);
  }
  return Median(std::move(ns));
}

}  // namespace

Status RunClusterProbes(Cluster* cluster, RunResult* out) {
  auto s = cluster->Connect();
  GPHTAP_RETURN_IF_ERROR(
      s->Execute("CREATE TABLE bench_probe (k int, v int) DISTRIBUTED BY (k)").status());
  GPHTAP_RETURN_IF_ERROR(
      s->Execute("CREATE TABLE bench_empty (k int, v int) DISTRIBUTED BY (k)").status());
  constexpr int64_t kRows = 1000;
  std::vector<gphtap::Row> rows;
  for (int64_t k = 1; k <= kRows; ++k) rows.push_back({gphtap::Datum(k), gphtap::Datum(k)});
  GPHTAP_ASSIGN_OR_RETURN(gphtap::TableDef def, cluster->LookupTable("bench_probe"));
  GPHTAP_RETURN_IF_ERROR(s->ExecuteInsert(def, rows).status());
  GPHTAP_RETURN_IF_ERROR(cluster->CreateIndex("bench_probe", "k"));

  const struct {
    const char* metric;
    std::function<std::string(int)> sql;
  } probes[] = {
      {"cluster.select1_us", [](int) { return std::string("SELECT 1"); }},
      {"cluster.point_select_us",
       [](int i) {
         return "SELECT v FROM bench_probe WHERE k = " + std::to_string(i % kRows + 1);
       }},
      {"cluster.point_update_us",
       [](int i) {
         return "UPDATE bench_probe SET v = v + 1 WHERE k = " + std::to_string(i % kRows + 1);
       }},
      {"cluster.gang_floor_us",
       [](int) { return std::string("SELECT count(*) FROM bench_empty"); }},
  };
  for (const auto& p : probes) {
    GPHTAP_ASSIGN_OR_RETURN(
        double ns,
        MedianNs(kStatementReps, [&](int i) { return s->Execute(p.sql(i)).status(); }));
    out->probes[p.metric] = ns / 1e3;
  }
  return Status::OK();
}

Status RunStorageProbes(Cluster* cluster, const std::string& fact_table,
                        const std::vector<gphtap::Row>& fact_rows, bool fact_is_ao,
                        RunResult* out) {
  GPHTAP_ASSIGN_OR_RETURN(gphtap::TableDef def, cluster->LookupTable(fact_table));
  if (!fact_is_ao) {
    // An AO-column copy of the fact rows, so every workload measures the
    // column scan path on its own data.
    def.name = "bench_scan_probe";
    def.storage = gphtap::StorageKind::kAoColumn;
    def.indexed_cols.clear();
    GPHTAP_RETURN_IF_ERROR(cluster->CreateTable(def));
    GPHTAP_ASSIGN_OR_RETURN(def, cluster->LookupTable("bench_scan_probe"));
    auto s = cluster->Connect();
    GPHTAP_RETURN_IF_ERROR(s->ExecuteInsert(def, fact_rows).status());
  }
  gphtap::Segment* seg = cluster->segment(0);
  auto* table = dynamic_cast<gphtap::AoColumnTable*>(seg->GetTable(def.id));
  if (table == nullptr) return Status::Internal(def.name + " is not AO-column on segment 0");

  // Read-only visibility: no distributed snapshot, so the segment's commit
  // log decides (everything loaded has committed).
  gphtap::VisibilityContext ctx;
  ctx.clog = &seg->clog();
  ctx.dlog = &seg->dlog();
  const size_t ncols = def.schema.num_columns();
  std::vector<int> cols;
  for (size_t c = 0; c < ncols; ++c) cols.push_back(static_cast<int>(c));
  uint64_t rows = 0;
  GPHTAP_ASSIGN_OR_RETURN(double scan_ns, MedianNs(kScanReps, [&](int) {
                            rows = 0;
                            return table->ScanBatches(ctx, cols, [&](gphtap::ColumnBatch&& b) {
                              rows += b.ActiveRows();
                              return true;
                            });
                          }));
  if (rows == 0) return Status::Internal("storage probe scanned no rows");
  out->probes["storage.scan_ns_per_row"] = scan_ns / static_cast<double>(rows);
  uint64_t bytes = 0;
  for (size_t c = 0; c < ncols; ++c) bytes += table->ColumnCompressedBytes(static_cast<int>(c));
  out->probes["storage.bytes_per_row"] =
      static_cast<double>(bytes) / static_cast<double>(table->StoredVersionCount());

  // Decode cost per codec over the fact rows' column values, in row-group
  // sized blocks.
  const struct {
    const char* metric;
    gphtap::CompressionKind kind;
  } codecs[] = {
      {"storage.decode_ns_per_value.none", gphtap::CompressionKind::kNone},
      {"storage.decode_ns_per_value.rle", gphtap::CompressionKind::kRle},
      {"storage.decode_ns_per_value.delta", gphtap::CompressionKind::kDelta},
      {"storage.decode_ns_per_value.dict", gphtap::CompressionKind::kDict},
      {"storage.decode_ns_per_value.lz", gphtap::CompressionKind::kLz},
  };
  for (const auto& codec : codecs) {
    std::vector<gphtap::CompressedBlock> blocks;
    uint64_t values = 0;
    for (size_t c = 0; c < ncols; ++c) {
      const gphtap::TypeId type = def.schema.columns()[c].type;
      for (size_t start = 0; start < fact_rows.size(); start += kBlockValues) {
        std::vector<gphtap::Datum> column;
        for (size_t r = start; r < std::min(fact_rows.size(), start + kBlockValues); ++r) {
          column.push_back(fact_rows[r][c]);
        }
        values += column.size();
        blocks.emplace_back();
        GPHTAP_RETURN_IF_ERROR(gphtap::CompressColumn(codec.kind, type, column, &blocks.back()));
      }
    }
    GPHTAP_ASSIGN_OR_RETURN(double ns, MedianNs(kDecodeReps, [&](int) -> Status {
                              for (const auto& block : blocks) {
                                GPHTAP_RETURN_IF_ERROR(gphtap::DecompressColumn(block).status());
                              }
                              return Status::OK();
                            }));
    out->probes[codec.metric] = ns / static_cast<double>(values);
  }
  return Status::OK();
}

Status TimePlans(Cluster* cluster, RunResult* out) {
  gphtap::PlannerOptions popts;
  popts.num_segments = cluster->num_segments();
  popts.use_orca = cluster->options().use_orca;
  popts.direct_dispatch = cluster->options().direct_dispatch_enabled;
  popts.vectorize = cluster->options().vectorized_execution_enabled;
  popts.delta_store = cluster->options().delta_store_enabled && popts.vectorize;
  popts.next_motion_id = [cluster] { return cluster->NextMotionId(); };
  popts.table_dist = [cluster](gphtap::TableId id) {
    Cluster::TableDistInfo d = cluster->TableDist(id);
    return std::make_pair(d.dist_segments, d.rebalancing);
  };
  popts.row_estimate = [cluster](gphtap::TableId id) -> uint64_t {
    gphtap::Table* t = cluster->segment(0)->GetTable(id);
    if (t == nullptr) return 1000;
    return t->StoredVersionCount() * static_cast<uint64_t>(cluster->num_segments()) + 1;
  };

  gphtap::Analyzer analyzer(cluster);
  double total_ns = 0;
  for (const std::string& sql : out->select_shapes) {
    GPHTAP_ASSIGN_OR_RETURN(gphtap::sql_ast::Statement stmt, gphtap::ParseStatement(sql));
    if (stmt.select == nullptr) return Status::Internal("not a SELECT: " + sql);
    GPHTAP_ASSIGN_OR_RETURN(double ns, MedianNs(kPlanReps, [&](int) -> Status {
                              GPHTAP_ASSIGN_OR_RETURN(gphtap::SelectQuery q,
                                                      analyzer.BindSelect(*stmt.select));
                              return gphtap::PlanSelect(q, popts).status();
                            }));
    total_ns += ns;
  }
  out->probes["plan.plan_us"] = total_ns / static_cast<double>(out->select_shapes.size()) / 1e3;
  return Status::OK();
}

StatusOr<double> ParseReplayUs(const std::vector<std::string>& texts) {
  if (texts.empty()) return Status::Internal("no statement texts recorded");
  std::vector<int64_t> per_pass;
  for (int rep = 0; rep < 3; ++rep) {
    int64_t start = NowNs();
    for (const std::string& sql : texts) {
      GPHTAP_RETURN_IF_ERROR(gphtap::ParseStatement(sql).status());
    }
    per_pass.push_back(NowNs() - start);
  }
  return Median(std::move(per_pass)) / static_cast<double>(texts.size()) / 1e3;
}

}  // namespace htapbench
