// ColumnBatch mechanics and kernel-vs-row-engine scalar parity: every kernel
// must agree with EvalExpr/EvalPredicate/AggUpdateValue on the same inputs,
// including NULL propagation, three-valued AND/OR, short-circuit error
// suppression, and redistribution hash routing.
#include "vec/column_batch.h"

#include <gtest/gtest.h>

#include "exec/agg_ops.h"
#include "vec/hash_table.h"
#include "vec/vec_kernels.h"

namespace gphtap {
namespace {

ColumnBatch TestBatch() {
  // col0: ints with a NULL; col1: ints incl. zero (division hazard);
  // col2: doubles; col3: strings with a NULL.
  std::vector<Row> rows = {
      {Datum(int64_t{10}), Datum(int64_t{2}), Datum(1.5), Datum("a")},
      {Datum(int64_t{-3}), Datum(int64_t{0}), Datum(-0.5), Datum("b")},
      {Datum::Null(), Datum(int64_t{7}), Datum(2.25), Datum("c")},
      {Datum(int64_t{42}), Datum(int64_t{6}), Datum(0.0), Datum::Null()},
      {Datum(int64_t{5}), Datum(int64_t{5}), Datum(9.75), Datum("ee")},
  };
  return ColumnBatch::FromRows(rows);
}

TEST(ColumnBatchTest, AppendMaterializeRoundTrip) {
  ColumnBatch b = TestBatch();
  EXPECT_EQ(b.rows, 5u);
  EXPECT_EQ(b.ActiveRows(), 5u);
  EXPECT_EQ(b.NumColumns(), 4u);
  Row r2 = b.MaterializeRow(2);
  EXPECT_TRUE(r2[0].is_null());
  EXPECT_EQ(r2[1].int_val(), 7);
  EXPECT_EQ(r2[3].string_val(), "c");
}

TEST(ColumnBatchTest, CompactDropsUnselectedRows) {
  ColumnBatch b = TestBatch();
  b.sel = {0, 3};
  b.Compact();
  EXPECT_EQ(b.rows, 2u);
  EXPECT_EQ(b.ActiveRows(), 2u);
  EXPECT_EQ(b.columns[0].GetDatum(0).int_val(), 10);
  EXPECT_EQ(b.columns[0].GetDatum(1).int_val(), 42);
  EXPECT_EQ(b.sel, (std::vector<int32_t>{0, 1}));
}

TEST(ColumnBatchTest, FootprintCountsLiveRowsOnly) {
  ColumnBatch b = TestBatch();
  int64_t full = b.FootprintBytes();
  b.sel = {1};
  int64_t one = b.FootprintBytes();
  EXPECT_GT(full, one);
  EXPECT_GT(one, 0);
}

// Every expression here is evaluated by both engines over every row; results
// (value, NULL-ness, or error) must match exactly.
void ExpectParity(const ExprPtr& e, const ColumnBatch& b) {
  ColumnVector out;
  Status vs = VecEval(*e, b, b.sel, &out);
  // The batch kernel fails the whole batch if ANY live row errors; the row
  // engine errors per row. At the query level both abort, so parity means:
  // vec errors iff at least one row errors.
  bool any_row_error = false;
  for (int32_t r : b.sel) {
    if (!EvalExpr(*e, b.MaterializeRow(r)).ok()) any_row_error = true;
  }
  EXPECT_EQ(!vs.ok(), any_row_error)
      << e->ToString() << ": engines disagree on whether evaluation errors ("
      << vs.ToString() << ")";
  if (!vs.ok() || any_row_error) return;
  for (int32_t r : b.sel) {
    auto rowv = EvalExpr(*e, b.MaterializeRow(r));
    ASSERT_TRUE(rowv.ok());
    Datum vecd = out.GetDatum(static_cast<size_t>(r));
    EXPECT_EQ(rowv->is_null(), vecd.is_null()) << e->ToString() << " row " << r;
    if (!rowv->is_null()) {
      EXPECT_EQ(rowv->Compare(vecd), 0)
          << e->ToString() << " row " << r << ": " << rowv->ToString() << " vs "
          << vecd.ToString();
    }
  }
}

TEST(VecKernelsTest, EvalParityWithRowEngine) {
  ColumnBatch b = TestBatch();
  auto c = [](int i) { return Expr::Column(i); };
  auto k = [](int64_t v) { return Expr::Const(Datum(v)); };
  std::vector<ExprPtr> exprs = {
      Expr::Binary(BinOp::kAdd, c(0), c(1)),
      Expr::Binary(BinOp::kSub, c(0), k(1)),
      Expr::Binary(BinOp::kMul, c(2), c(2)),
      Expr::Binary(BinOp::kAdd, c(0), c(2)),  // int + double promotion
      Expr::Binary(BinOp::kAdd, c(3), c(3)),  // string concat with NULL row
      Expr::Binary(BinOp::kLt, c(0), c(1)),
      Expr::Binary(BinOp::kGe, c(2), Expr::Const(Datum(1.0))),
      Expr::Binary(BinOp::kEq, c(3), Expr::Const(Datum("b"))),
      Expr::Binary(BinOp::kNe, c(0), k(42)),
      Expr::Not(Expr::Binary(BinOp::kGt, c(0), k(0))),
      Expr::IsNull(c(0)),
      Expr::IsNull(c(3)),
      Expr::Binary(BinOp::kAnd, Expr::Binary(BinOp::kGt, c(0), k(0)),
                   Expr::Binary(BinOp::kLt, c(1), k(6))),
      Expr::Binary(BinOp::kOr, Expr::IsNull(c(0)),
                   Expr::Binary(BinOp::kEq, c(1), k(5))),
      Expr::Binary(BinOp::kMod, c(0), k(3)),
  };
  for (const ExprPtr& e : exprs) ExpectParity(e, b);
}

TEST(VecKernelsTest, ShortCircuitSuppressesDivisionByZero) {
  ColumnBatch b = TestBatch();
  // Row 1 has col1 == 0. "col1 != 0 AND 10 / col1 > 1": the row engine
  // short-circuits the division away; the vec kernel must too.
  ExprPtr guarded = Expr::Binary(
      BinOp::kAnd,
      Expr::Binary(BinOp::kNe, Expr::Column(1), Expr::Const(Datum(int64_t{0}))),
      Expr::Binary(BinOp::kGt,
                   Expr::Binary(BinOp::kDiv, Expr::Const(Datum(int64_t{10})),
                                Expr::Column(1)),
                   Expr::Const(Datum(int64_t{1}))));
  ColumnVector out;
  ASSERT_TRUE(VecEval(*guarded, b, b.sel, &out).ok());
  ExpectParity(guarded, b);

  // OR with a true left arm likewise skips the poisoned right arm.
  ExprPtr or_guard = Expr::Binary(
      BinOp::kOr,
      Expr::Binary(BinOp::kEq, Expr::Column(1), Expr::Const(Datum(int64_t{0}))),
      Expr::Binary(BinOp::kGt,
                   Expr::Binary(BinOp::kDiv, Expr::Const(Datum(int64_t{10})),
                                Expr::Column(1)),
                   Expr::Const(Datum(int64_t{0}))));
  ExpectParity(or_guard, b);

  // Unguarded division must error on both engines.
  ExprPtr unguarded = Expr::Binary(BinOp::kDiv, Expr::Const(Datum(int64_t{1})),
                                   Expr::Column(1));
  ExpectParity(unguarded, b);
}

TEST(VecKernelsTest, FilterMatchesEvalPredicate) {
  ColumnBatch b = TestBatch();
  ExprPtr pred = Expr::Binary(
      BinOp::kOr,
      Expr::Binary(BinOp::kGt, Expr::Column(0), Expr::Const(Datum(int64_t{4}))),
      Expr::IsNull(Expr::Column(3)));
  std::vector<int32_t> expect;
  for (int32_t r = 0; r < static_cast<int32_t>(b.rows); ++r) {
    auto keep = EvalPredicate(*pred, b.MaterializeRow(r));
    ASSERT_TRUE(keep.ok());
    if (*keep) expect.push_back(r);
  }
  ASSERT_TRUE(VecFilterBatch(*pred, &b).ok());
  EXPECT_EQ(b.sel, expect);
  // NULL predicate results reject the row (row 2: NULL > 4 is unknown), so
  // row 2 must be gone unless col3 was NULL there (it wasn't).
  for (int32_t r : b.sel) EXPECT_NE(r, 2);
}

TEST(VecKernelsTest, FilterOnAlreadyFilteredBatchComposes) {
  ColumnBatch b = TestBatch();
  ExprPtr p1 = Expr::Binary(BinOp::kGt, Expr::Column(0),
                            Expr::Const(Datum(int64_t{0})));  // rows 0,3,4
  ExprPtr p2 = Expr::Binary(BinOp::kLt, Expr::Column(0),
                            Expr::Const(Datum(int64_t{42})));  // then rows 0,4
  ASSERT_TRUE(VecFilterBatch(*p1, &b).ok());
  EXPECT_EQ(b.sel, (std::vector<int32_t>{0, 3, 4}));
  ASSERT_TRUE(VecFilterBatch(*p2, &b).ok());
  EXPECT_EQ(b.sel, (std::vector<int32_t>{0, 4}));
}

TEST(VecKernelsTest, ProjectionMatchesRowEngine) {
  ColumnBatch b = TestBatch();
  b.sel = {0, 2, 4};  // project a filtered batch
  std::vector<ExprPtr> exprs = {
      Expr::Binary(BinOp::kMul, Expr::Column(1), Expr::Const(Datum(int64_t{2}))),
      Expr::Column(3),
  };
  ColumnBatch out;
  ASSERT_TRUE(VecProjectBatch(exprs, b, &out).ok());
  ASSERT_EQ(out.ActiveRows(), 3u);
  EXPECT_EQ(out.rows, 3u);  // dense output
  size_t i = 0;
  for (int32_t r : std::vector<int32_t>{0, 2, 4}) {
    Row row = b.MaterializeRow(r);
    for (size_t e = 0; e < exprs.size(); ++e) {
      auto want = EvalExpr(*exprs[e], row);
      ASSERT_TRUE(want.ok());
      Datum got = out.columns[e].GetDatum(i);
      EXPECT_EQ(want->is_null(), got.is_null());
      if (!want->is_null()) EXPECT_EQ(want->Compare(got), 0);
    }
    ++i;
  }
}

TEST(VecKernelsTest, PartitionRoutesLikeHashRowKey) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back(Row{Datum(i), Datum(i % 7), Datum("s" + std::to_string(i))});
  }
  ColumnBatch b = ColumnBatch::FromRows(rows);
  const std::vector<int> hash_cols = {1, 2};
  const int targets = 4;
  std::vector<ColumnBatch> parts;
  ASSERT_TRUE(VecPartitionBatch(b, hash_cols, targets, &parts).ok());
  ASSERT_EQ(parts.size(), 4u);
  size_t total = 0;
  for (int t = 0; t < targets; ++t) {
    for (int32_t r : parts[static_cast<size_t>(t)].sel) {
      Row row = parts[static_cast<size_t>(t)].MaterializeRow(r);
      EXPECT_EQ(static_cast<int>(HashRowKey(row, hash_cols) %
                                 static_cast<uint64_t>(targets)),
                t);
      ++total;
    }
  }
  EXPECT_EQ(total, rows.size());
}

TEST(VecKernelsTest, AggUpdateMatchesRowAccumulation) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 50; ++i) {
    rows.push_back(Row{i % 9 == 0 ? Datum::Null() : Datum(i),
                       Datum(static_cast<double>(i) * 0.25)});
  }
  ColumnBatch b = ColumnBatch::FromRows(rows);
  for (AggFunc fn : {AggFunc::kCountStar, AggFunc::kCount, AggFunc::kSum,
                     AggFunc::kAvg, AggFunc::kMin, AggFunc::kMax}) {
    for (size_t col : {size_t{0}, size_t{1}}) {
      AggState vec_state, row_state;
      VecAggUpdate(fn, b.columns[col], b.sel, &vec_state);
      for (int32_t r : b.sel) {
        AggUpdateValue(fn, &row_state,
                       b.columns[col].GetDatum(static_cast<size_t>(r)));
      }
      Row vec_emit, row_emit;
      AggEmitFinal(AggSpec{fn, nullptr}, vec_state, &vec_emit);
      AggEmitFinal(AggSpec{fn, nullptr}, row_state, &row_emit);
      ASSERT_EQ(vec_emit.size(), row_emit.size());
      for (size_t i = 0; i < vec_emit.size(); ++i) {
        EXPECT_EQ(vec_emit[i].is_null(), row_emit[i].is_null())
            << AggFuncName(fn) << " col " << col;
        if (!vec_emit[i].is_null()) {
          EXPECT_EQ(vec_emit[i].Compare(row_emit[i]), 0)
              << AggFuncName(fn) << " col " << col;
        }
      }
    }
  }
}

// Regression: VecEval's output vector used to be grow-only — evaluating a big
// batch then a smaller one left stale tail entries visible to consumers that
// sized their loops off the output. The contract is now size == batch.rows,
// exactly, on every call.
TEST(VecKernelsTest, EvalOutputSizedToEachBatchNotGrowOnly) {
  ExprPtr e = Expr::Binary(BinOp::kAdd, Expr::Column(0),
                           Expr::Const(Datum(int64_t{1})));
  ColumnBatch big = TestBatch();  // 5 rows
  ColumnVector out;
  ASSERT_TRUE(VecEval(*e, big, big.sel, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.GetDatum(4).int_val(), 6);

  std::vector<Row> small_rows = {{Datum(int64_t{100})}, {Datum(int64_t{200})}};
  ColumnBatch small = ColumnBatch::FromRows(small_rows);
  ASSERT_TRUE(VecEval(*e, small, small.sel, &out).ok());
  EXPECT_EQ(out.size(), 2u);  // shrank with the batch; no stale row 2..4
  EXPECT_EQ(out.GetDatum(0).int_val(), 101);
  EXPECT_EQ(out.GetDatum(1).int_val(), 201);
}

// Typed columns must keep exact row-engine semantics when every row is
// filtered out: kernels see an empty position list and must not touch state.
TEST(VecKernelsTest, AllFilteredBatchLeavesAggUntouched) {
  ColumnBatch b = TestBatch();
  ExprPtr none = Expr::Binary(BinOp::kGt, Expr::Column(0),
                              Expr::Const(Datum(int64_t{1000})));
  ASSERT_TRUE(VecFilterBatch(*none, &b).ok());
  EXPECT_TRUE(b.sel.empty());
  AggState st;
  VecAggUpdate(AggFunc::kSum, b.columns[0], b.sel, &st);
  VecAggUpdate(AggFunc::kCountStar, b.columns[0], b.sel, &st);
  Row emit;
  AggEmitFinal(AggSpec{AggFunc::kSum, nullptr}, st, &emit);
  EXPECT_TRUE(emit[0].is_null());  // sum over zero rows is NULL, not 0
}

// Int sum overflowing into mixed int/double accumulation: the tight int loop
// must bail to the generic path at the first non-int datum.
TEST(VecKernelsTest, SumSwitchesToDoubleMidColumn) {
  std::vector<Row> rows = {{Datum(int64_t{1})}, {Datum(int64_t{2})},
                           {Datum(2.5)},        {Datum(int64_t{4})}};
  ColumnBatch b = ColumnBatch::FromRows(rows);
  AggState vec_state, row_state;
  VecAggUpdate(AggFunc::kSum, b.columns[0], b.sel, &vec_state);
  for (int32_t r : b.sel) {
    AggUpdateValue(AggFunc::kSum, &row_state,
                   b.columns[0].GetDatum(static_cast<size_t>(r)));
  }
  Row ve, re;
  AggEmitFinal(AggSpec{AggFunc::kSum, nullptr}, vec_state, &ve);
  AggEmitFinal(AggSpec{AggFunc::kSum, nullptr}, row_state, &re);
  ASSERT_EQ(ve.size(), 1u);
  EXPECT_EQ(ve[0].Compare(re[0]), 0);
  EXPECT_DOUBLE_EQ(ve[0].AsDouble(), 9.5);
}

TEST(ColumnBatchTest, AppendGatherMatchesAppendFrom) {
  ColumnBatch b = TestBatch();
  const std::vector<int32_t> idx = {4, 2, 2, 0, 3};
  for (const ColumnVector& src : b.columns) {
    // Into an empty column, and into one already holding a value of another
    // type (the typed payload demotes, exactly as AppendFrom does).
    for (const Datum& seed : {Datum::Null(), Datum("x")}) {
      ColumnVector gathered, reference;
      if (!seed.is_null()) {
        gathered.Append(seed);
        reference.Append(seed);
      }
      gathered.AppendGather(src, idx.data(), idx.size());
      for (int32_t r : idx) reference.AppendFrom(src, static_cast<size_t>(r));
      ASSERT_EQ(gathered.size(), reference.size());
      EXPECT_EQ(gathered.tag, reference.tag);
      for (size_t i = 0; i < gathered.size(); ++i) {
        EXPECT_EQ(gathered.IsNull(i), reference.IsNull(i)) << i;
        EXPECT_EQ(gathered.GetDatum(i).Compare(reference.GetDatum(i)), 0) << i;
      }
    }
  }
}

TEST(ColumnBatchTest, EqualAtFollowsDatumCompare) {
  const std::vector<Datum> values = {
      Datum::Null(),      Datum(int64_t{1}), Datum(1.0),        Datum(int64_t{2}),
      Datum(1234567.0),   Datum(1234568.0),  Datum(0.1234561),  Datum(0.1234562),
      Datum("1"),         Datum("a"),        Datum(-0.0),       Datum(int64_t{0})};
  // Each value alone in a typed column where possible, and boxed.
  std::vector<ColumnVector> cols;
  for (const Datum& d : values) {
    ColumnVector typed;
    typed.Append(d);
    ColumnVector boxed = typed;
    boxed.Demote();
    cols.push_back(std::move(typed));
    cols.push_back(std::move(boxed));
  }
  for (const ColumnVector& a : cols) {
    for (const ColumnVector& b : cols) {
      EXPECT_EQ(a.EqualAt(0, b, 0), a.GetDatum(0).Compare(b.GetDatum(0)) == 0)
          << a.GetDatum(0).ToString() << " vs " << b.GetDatum(0).ToString();
    }
  }
}

TEST(VecHashTableTest, GroupsUnderDatumEquality) {
  VecHashTable table(1);
  std::vector<int32_t> ids;
  ColumnBatch ints = ColumnBatch::FromRows(
      {{Datum(int64_t{1})}, {Datum::Null()}, {Datum(int64_t{2})}, {Datum::Null()},
       {Datum(int64_t{1})}});
  table.FindOrInsert(ints, {0}, &ids);
  EXPECT_EQ(table.size(), 3u);  // 1, NULL, 2
  EXPECT_EQ(ids, (std::vector<int32_t>{0, 1, 2, 1, 0}));
  // A double column: 1.0 joins the int 1 group, NULL the NULL group, and
  // doubles equal in six significant digits stay apart.
  ColumnBatch dbls = ColumnBatch::FromRows(
      {{Datum(1.0)}, {Datum(1234567.0)}, {Datum(1234568.0)}, {Datum::Null()},
       {Datum(1234567.0)}});
  table.FindOrInsert(dbls, {0}, &ids);
  EXPECT_EQ(table.size(), 5u);
  EXPECT_EQ(ids, (std::vector<int32_t>{0, 3, 4, 1, 3}));
  // The row-engine form resolves through the same entries.
  EXPECT_EQ(table.FindOrInsert(Row{Datum(2.0)}, {0}), 2);
  EXPECT_EQ(table.FindOrInsert(Row{Datum::Null()}, {0}), 1);
  EXPECT_EQ(table.FindOrInsert(Row{Datum("2")}, {0}), 5);
  EXPECT_EQ(table.size(), 6u);
  // Only live rows are resolved.
  ColumnBatch sparse = ColumnBatch::FromRows({{Datum(int64_t{9})}, {Datum(int64_t{2})}});
  sparse.sel = {1};
  table.FindOrInsert(sparse, {0}, &ids);
  EXPECT_EQ(ids[1], 2);
  EXPECT_EQ(table.size(), 6u);
}

TEST(VecHashTableTest, ManyGroupsKeepTheirIdsAcrossGrowth) {
  VecHashTable row_table(2);
  VecHashTable batch_table(2);
  std::vector<int32_t> ids;
  for (int64_t start = 0; start < 20000; start += 1000) {
    std::vector<Row> rows;
    for (int64_t i = start; i < start + 1000; ++i) {
      rows.push_back({Datum(i % 5000), Datum(static_cast<double>(i / 5000) + 0.5)});
    }
    ColumnBatch b = ColumnBatch::FromRows(rows);
    batch_table.FindOrInsert(b, {0, 1}, &ids);
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(ids[r], start + static_cast<int64_t>(r));
      EXPECT_EQ(row_table.FindOrInsert(rows[r], {0, 1}), ids[r]);
    }
  }
  EXPECT_EQ(batch_table.size(), 20000u);
  // A second pass finds every key without inserting.
  std::vector<Row> again = {{Datum(int64_t{4999}), Datum(3.5)}, {Datum(int64_t{7}), Datum(0.5)}};
  batch_table.FindOrInsert(ColumnBatch::FromRows(again), {0, 1}, &ids);
  EXPECT_EQ(ids, (std::vector<int32_t>{19999, 7}));
  EXPECT_EQ(batch_table.size(), 20000u);
}

TEST(VecHashTableTest, JoinProbeChainsDuplicatesAndSkipsNullKeys) {
  // Build rows (key, payload): key 1 twice, a NULL key, key 3.
  ColumnBatch build = ColumnBatch::FromRows(
      {{Datum(int64_t{1}), Datum("a")}, {Datum(int64_t{3}), Datum("b")},
       {Datum(int64_t{1}), Datum("c")}, {Datum::Null(), Datum("d")}});
  const VecHashTable table(std::move(build), {0});
  ASSERT_EQ(table.size(), 4u);
  // Probe with doubles: 1.0 matches both key-1 rows in build order, NULL
  // matches nothing (not even the NULL build key), 3.0 matches, 4.5 misses.
  ColumnBatch probe = ColumnBatch::FromRows(
      {{Datum(4.5)}, {Datum(1.0)}, {Datum::Null()}, {Datum(3.0)}});
  std::vector<int32_t> probe_rows, entry_ids;
  table.Probe(probe, {0}, &probe_rows, &entry_ids);
  EXPECT_EQ(probe_rows, (std::vector<int32_t>{1, 1, 3}));
  EXPECT_EQ(entry_ids, (std::vector<int32_t>{0, 2, 1}));
  EXPECT_EQ(table.entries().columns[1].GetDatum(2).string_val(), "c");
}

TEST(VecKernelsTest, GroupedAggUpdateMatchesRowAccumulation) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 60; ++i) {
    rows.push_back(Row{i % 9 == 0 ? Datum::Null() : Datum(i),
                       i % 7 == 0 ? Datum::Null() : Datum(static_cast<double>(i) * 0.1),
                       Datum("s" + std::to_string(i % 4))});
  }
  ColumnBatch b = ColumnBatch::FromRows(rows);
  std::vector<int32_t> gids(b.rows);
  for (size_t r = 0; r < b.rows; ++r) gids[r] = static_cast<int32_t>((r * 7) % 3);
  b.sel.erase(b.sel.begin() + 10, b.sel.begin() + 15);  // a sparse selection
  for (AggFunc fn : {AggFunc::kCountStar, AggFunc::kCount, AggFunc::kSum,
                     AggFunc::kAvg, AggFunc::kMin, AggFunc::kMax}) {
    for (size_t col = 0; col < b.NumColumns(); ++col) {
      if ((fn == AggFunc::kSum || fn == AggFunc::kAvg) && col == 2) continue;
      std::vector<AggState> vec_states(3), row_states(3);
      // The double column first, so int sums also meet an already-widened
      // accumulator.
      VecAggUpdateGrouped(fn, b.columns[1], b.sel, gids.data(), vec_states.data());
      VecAggUpdateGrouped(fn, b.columns[col], b.sel, gids.data(), vec_states.data());
      for (size_t c : {size_t{1}, col}) {
        for (int32_t r : b.sel) {
          AggUpdateValue(fn, &row_states[static_cast<size_t>(gids[static_cast<size_t>(r)])],
                         b.columns[c].GetDatum(static_cast<size_t>(r)));
        }
      }
      for (size_t g = 0; g < 3; ++g) {
        Row vec_emit, row_emit;
        AggEmitFinal(AggSpec{fn, nullptr}, vec_states[g], &vec_emit);
        AggEmitFinal(AggSpec{fn, nullptr}, row_states[g], &row_emit);
        ASSERT_EQ(vec_emit.size(), 1u);
        // Bit-identical, doubles included: same values folded in the same order.
        EXPECT_EQ(vec_emit[0].is_double(), row_emit[0].is_double());
        if (vec_emit[0].is_double()) {
          EXPECT_EQ(vec_emit[0].double_val(), row_emit[0].double_val())
              << AggFuncName(fn) << " col " << col << " group " << g;
        } else {
          EXPECT_EQ(vec_emit[0].Compare(row_emit[0]), 0)
              << AggFuncName(fn) << " col " << col << " group " << g;
        }
      }
    }
  }
}

}  // namespace
}  // namespace gphtap
