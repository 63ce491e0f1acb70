// Regression tests for the ScanColumns / ScanBatches / MarkDeleted visibility
// interaction on AO-column tables: partially-filled open groups, fully-deleted
// sealed groups, aborted deleters, and row-vs-batch scan equivalence (the row
// scan explodes the batches of the one ColumnGroup::Decode path), and the
// per-(xmin, xmax)-run visibility of that decode against a per-row loop.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "delta/delta_store.h"
#include "storage/column_group.h"
#include "storage/column_store.h"
#include "txn/local_txn_manager.h"

namespace gphtap {
namespace {

class AoVisibilityTest : public ::testing::Test {
 protected:
  AoVisibilityTest() : mgr_(&clog_, &dlog_, &wal_) {}

  LocalXid BeginCommitted() {
    Gxid g = next_gxid_++;
    LocalXid x = *mgr_.AssignXid(g);
    mgr_.Commit(g);
    return x;
  }

  VisibilityContext Ctx() {
    VisibilityContext c;
    c.clog = &clog_;
    c.dlog = &dlog_;
    c.dsnap = nullptr;  // utility mode: local rules only
    c.lsnap = nullptr;
    return c;
  }

  TableDef Def() {
    TableDef def;
    def.id = 1;
    def.name = "t";
    def.schema = Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
    def.storage = StorageKind::kAoColumn;
    return def;
  }

  // Collects (tid, k) over a row scan of both columns.
  std::vector<std::pair<TupleId, int64_t>> RowScan(AoColumnTable* t) {
    std::vector<std::pair<TupleId, int64_t>> out;
    EXPECT_TRUE(t->ScanColumns(Ctx(), {0, 1}, [&](TupleId tid, const Row& r) {
                   out.emplace_back(tid, r[0].int_val());
                   return true;
                 }).ok());
    return out;
  }

  // Collects k over the live rows of a batch scan.
  std::vector<int64_t> BatchScan(AoColumnTable* t, int* batches = nullptr) {
    std::vector<int64_t> out;
    EXPECT_TRUE(t->ScanBatches(Ctx(), {0, 1}, [&](ColumnBatch&& b) {
                   if (batches != nullptr) ++(*batches);
                   for (int32_t r : b.sel) {
                     out.push_back(b.columns[0].GetDatum(static_cast<size_t>(r)).int_val());
                   }
                   return true;
                 }).ok());
    return out;
  }

  CommitLog clog_;
  DistributedLog dlog_;
  WalStub wal_{0};
  LocalTxnManager mgr_;
  Gxid next_gxid_ = 1;
};

constexpr size_t kGroup = AoColumnTable::kRowGroupSize;

TEST_F(AoVisibilityTest, BatchScanMatchesRowScan) {
  AoColumnTable t(Def());
  LocalXid x = BeginCommitted();
  // 2.5 row groups: two sealed groups plus a partially-filled open tail.
  const int64_t n = static_cast<int64_t>(kGroup * 2 + kGroup / 2);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i * 3)}).ok());
  }
  // Delete a scattering: group 0 head, a mid-group run, and open-tail rows.
  LocalXid deleter = BeginCommitted();
  std::set<int64_t> deleted = {0, 1, 700, 701, 702, static_cast<int64_t>(kGroup) + 5,
                               static_cast<int64_t>(2 * kGroup) + 1};
  for (int64_t d : deleted) {
    ASSERT_TRUE(t.MarkDeleted(static_cast<TupleId>(d), deleter).ok());
  }

  auto rows = RowScan(&t);
  int batches = 0;
  auto batch_keys = BatchScan(&t, &batches);
  ASSERT_EQ(rows.size(), batch_keys.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].second, batch_keys[i]) << "row " << i;
    EXPECT_FALSE(deleted.count(rows[i].second)) << "deleted row leaked";
  }
  EXPECT_EQ(rows.size(), static_cast<size_t>(n) - deleted.size());
  EXPECT_EQ(batches, 3);  // two sealed groups + the open tail
}

TEST_F(AoVisibilityTest, PartiallyFilledOpenGroupEdges) {
  AoColumnTable t(Def());
  LocalXid x = BeginCommitted();
  // Open group only — no sealed groups at all.
  for (int64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i)}).ok());
  }
  LocalXid deleter = BeginCommitted();
  ASSERT_TRUE(t.MarkDeleted(0, deleter).ok());
  ASSERT_TRUE(t.MarkDeleted(6, deleter).ok());  // last row of the tail
  auto keys = BatchScan(&t);
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(RowScan(&t).size(), 5u);
  // Deleting past the end is NotFound, not silent corruption.
  EXPECT_FALSE(t.MarkDeleted(7, deleter).ok());
}

TEST_F(AoVisibilityTest, FullyDeletedSealedGroupNeverEmitsABatch) {
  AoColumnTable t(Def());
  LocalXid x = BeginCommitted();
  const int64_t n = static_cast<int64_t>(kGroup * 2);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i)}).ok());
  }
  LocalXid deleter = BeginCommitted();
  for (size_t r = 0; r < kGroup; ++r) {
    ASSERT_TRUE(t.MarkDeleted(static_cast<TupleId>(r), deleter).ok());
  }
  int batches = 0;
  auto keys = BatchScan(&t, &batches);
  EXPECT_EQ(batches, 1) << "fully-deleted group must be skipped, not emitted empty";
  EXPECT_EQ(keys.size(), kGroup);
  EXPECT_EQ(keys.front(), static_cast<int64_t>(kGroup));
  EXPECT_EQ(RowScan(&t).size(), kGroup);
}

TEST_F(AoVisibilityTest, AbortedDeleterLeavesTuplesVisible) {
  AoColumnTable t(Def());
  LocalXid x = BeginCommitted();
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i)}).ok());
  }
  Gxid g = next_gxid_++;
  LocalXid aborted = *mgr_.AssignXid(g);
  ASSERT_TRUE(t.MarkDeleted(3, aborted).ok());
  mgr_.Abort(g);
  EXPECT_EQ(BatchScan(&t).size(), 10u);
  EXPECT_EQ(RowScan(&t).size(), 10u);
}

TEST_F(AoVisibilityTest, AbortedInsertInvisibleOnBothPaths) {
  AoColumnTable t(Def());
  LocalXid committed = BeginCommitted();
  ASSERT_TRUE(t.Insert(committed, Row{Datum(int64_t{1}), Datum(int64_t{1})}).ok());
  Gxid g = next_gxid_++;
  LocalXid aborted = *mgr_.AssignXid(g);
  ASSERT_TRUE(t.Insert(aborted, Row{Datum(int64_t{2}), Datum(int64_t{2})}).ok());
  mgr_.Abort(g);
  auto keys = BatchScan(&t);
  EXPECT_EQ(keys, (std::vector<int64_t>{1}));
  EXPECT_EQ(RowScan(&t).size(), 1u);
}

TEST_F(AoVisibilityTest, ProjectedBatchScanReadsOnlyRequestedColumns) {
  AoColumnTable t(Def());
  LocalXid x = BeginCommitted();
  const int64_t n = static_cast<int64_t>(kGroup + 3);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i * 2)}).ok());
  }
  int64_t sum = 0;
  ASSERT_TRUE(t.ScanBatches(Ctx(), {1}, [&](ColumnBatch&& b) {
                 EXPECT_EQ(b.NumColumns(), 1u);
                 for (int32_t r : b.sel) sum += b.columns[0].GetDatum(static_cast<size_t>(r)).int_val();
                 return true;
               }).ok());
  EXPECT_EQ(sum, n * (n - 1));  // sum of 2*i for i in [0, n)
}

// ---------- visibility per (xmin, xmax) run ----------
//
// ColumnGroup::Decode decides visibility once per run of equal (xmin, xmax).
// These tests build groups whose rows mix every xid kind — committed, aborted,
// in progress and the scanner's own — as xmin and as xmax, in runs that break
// mid-group, plus dropped slots, and check that the selection vector matches
// a per-row TupleVisible loop over the same rows.

struct MvccRow {
  LocalXid xmin = kInvalidLocalXid;
  LocalXid xmax = kInvalidLocalXid;
  bool dropped = false;
};

class RunVisibilityTest : public AoVisibilityTest {
 protected:
  RunVisibilityTest() {
    committed_ = {BeginCommitted(), BeginCommitted()};
    Gxid g = next_gxid_++;
    aborted_ = *mgr_.AssignXid(g);
    mgr_.Abort(g);
    in_progress_ = *mgr_.AssignXid(next_gxid_++);
    mine_ = *mgr_.AssignXid(next_gxid_++);
  }

  VisibilityContext MyCtx() {
    VisibilityContext c = Ctx();
    c.my_xid = mine_;
    return c;
  }

  // `n` rows: xmin and xmax each change in runs of 1..300 rows (independently,
  // so the (xmin, xmax) runs break at arbitrary slots), ~3% dropped when
  // `with_drops`.
  std::vector<MvccRow> Pattern(size_t n, bool with_drops, uint64_t seed) {
    const LocalXid xmins[] = {committed_[0], committed_[1], aborted_, in_progress_, mine_};
    const LocalXid xmaxs[] = {kInvalidLocalXid, kInvalidLocalXid, mine_, committed_[1],
                              aborted_, in_progress_};
    Rng rng(seed);
    std::vector<MvccRow> rows(n);
    size_t xmin_left = 0, xmax_left = 0;
    LocalXid xmin = kInvalidLocalXid, xmax = kInvalidLocalXid;
    for (MvccRow& row : rows) {
      if (xmin_left == 0) {
        xmin_left = 1 + rng.Uniform(300);
        xmin = xmins[rng.Uniform(5)];
      }
      if (xmax_left == 0) {
        xmax_left = 1 + rng.Uniform(300);
        xmax = xmaxs[rng.Uniform(6)];
      }
      --xmin_left;
      --xmax_left;
      row.xmin = xmin;
      row.xmax = xmax;
      row.dropped = with_drops && rng.Chance(0.03);
    }
    return rows;
  }

  // Positions (row numbers) visible under MyCtx() by a per-row loop.
  std::vector<int64_t> PerRowVisible(const std::vector<MvccRow>& rows) {
    std::vector<int64_t> out;
    const VisibilityContext ctx = MyCtx();
    for (size_t r = 0; r < rows.size(); ++r) {
      if (!rows[r].dropped && TupleVisible(rows[r].xmin, rows[r].xmax, ctx)) {
        out.push_back(static_cast<int64_t>(r));
      }
    }
    return out;
  }

  // Row numbers selected by one decoded batch whose column 0 holds them.
  static void AppendSelected(const ColumnBatch& b, std::vector<int64_t>* out) {
    for (int32_t r : b.sel) {
      out->push_back(b.columns[0].GetDatum(static_cast<size_t>(r)).int_val());
    }
  }

  std::vector<LocalXid> committed_;
  LocalXid aborted_ = kInvalidLocalXid;
  LocalXid in_progress_ = kInvalidLocalXid;
  LocalXid mine_ = kInvalidLocalXid;
};

TEST_F(RunVisibilityTest, ColumnGroupSelectionMatchesPerRowLoop) {
  const Schema schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    const std::vector<MvccRow> rows = Pattern(kGroup, /*with_drops=*/true, seed);
    ColumnGroup group(2);
    for (size_t r = 0; r < rows.size(); ++r) {
      group.Append(Row{Datum(static_cast<int64_t>(r)), Datum(int64_t{7})}, rows[r].xmin);
      if (rows[r].xmax != kInvalidLocalXid) group.SetXmax(r, rows[r].xmax);
      if (rows[r].dropped) group.Drop(r);
    }
    const std::vector<int64_t> want = PerRowVisible(rows);
    for (bool sealed : {false, true}) {
      if (sealed) {
        ASSERT_TRUE(group.Seal(schema, CompressionKind::kRle).ok());
      }
      ColumnBatch batch;
      auto decoded = group.Decode(MyCtx(), {0, 1}, &batch, nullptr);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      std::vector<int64_t> got;
      if (*decoded) AppendSelected(batch, &got);
      EXPECT_EQ(got, want) << "seed " << seed << (sealed ? " sealed" : " open");
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(batch.sel[i], got[i]) << "selection vector is not the slot index";
      }
    }
  }
}

TEST_F(RunVisibilityTest, AoColumnGroupsMatchPerRowLoop) {
  // Two sealed groups and an open tail, deletes written through MarkDeleted.
  const std::vector<MvccRow> rows = Pattern(2 * kGroup + 300, /*with_drops=*/false, 11);
  AoColumnTable t(Def());
  for (size_t r = 0; r < rows.size(); ++r) {
    auto tid = t.Insert(rows[r].xmin, Row{Datum(static_cast<int64_t>(r)), Datum(int64_t{1})});
    ASSERT_TRUE(tid.ok());
    ASSERT_EQ(*tid, static_cast<TupleId>(r));
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].xmax != kInvalidLocalXid) {
      ASSERT_TRUE(t.MarkDeleted(static_cast<TupleId>(r), rows[r].xmax).ok());
    }
  }
  ASSERT_EQ(t.NumGroups(), 3u);
  const std::vector<int64_t> want = PerRowVisible(rows);
  std::vector<int64_t> got;
  for (size_t gi = 0; gi < t.NumGroups(); ++gi) {
    ColumnBatch batch;
    auto decoded = t.DecodeGroup(gi, MyCtx(), {0, 1}, &batch);
    ASSERT_TRUE(decoded.ok());
    if (*decoded) AppendSelected(batch, &got);
  }
  EXPECT_EQ(got, want);
}

TEST_F(RunVisibilityTest, DeltaStoreGroupsMatchPerRowLoop) {
  // Heap tids applied in order, vacuumed slots dropped, two groups sealed and
  // an open tail left.
  const std::vector<MvccRow> rows = Pattern(2 * kGroup + 300, /*with_drops=*/true, 23);
  TableDef def = Def();
  def.storage = StorageKind::kHeap;
  DeltaStore ds(def);
  for (size_t r = 0; r < rows.size(); ++r) {
    ds.ApplyInsert(static_cast<TupleId>(r), rows[r].xmin,
                   Row{Datum(static_cast<int64_t>(r)), Datum(int64_t{1})});
    if (rows[r].xmax != kInvalidLocalXid) ds.ApplyDelete(static_cast<TupleId>(r), rows[r].xmax);
    if (rows[r].dropped) ds.ApplyFreeSlot(static_cast<TupleId>(r));
  }
  auto sealed = ds.SealCold(nullptr);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->groups_sealed, 2u);
  const std::vector<int64_t> want = PerRowVisible(rows);
  std::vector<int64_t> got;
  ASSERT_TRUE(ds.ScanBatches(MyCtx(), {0, 1},
                             [&](ColumnBatch&& b) {
                               AppendSelected(b, &got);
                               return true;
                             },
                             nullptr, nullptr)
                  .ok());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace gphtap
