#include "plan/planner.h"

#include <gtest/gtest.h>

#include <optional>

namespace gphtap {
namespace {

TableDef MakeTable(TableId id, const std::string& name,
                   DistributionPolicy dist = DistributionPolicy::Hash({0})) {
  TableDef def;
  def.id = id;
  def.name = name;
  def.schema = Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
  def.distribution = std::move(dist);
  return def;
}

PlannerOptions Opts(int segments, bool orca = false) {
  PlannerOptions o;
  o.num_segments = segments;
  o.use_orca = orca;
  static int counter = 0;
  o.next_motion_id = [] { return counter++; };
  return o;
}

SelectItem ColItem(int col, const std::string& name) {
  SelectItem i;
  i.expr = Expr::Column(col);
  i.name = name;
  return i;
}

const PlanNode* FindNode(const PlanNode& root, PlanKind kind) {
  if (root.kind == kind) return &root;
  for (const auto& c : root.children) {
    const PlanNode* f = FindNode(*c, kind);
    if (f != nullptr) return f;
  }
  return nullptr;
}

int CountNodes(const PlanNode& root, PlanKind kind) {
  int n = root.kind == kind ? 1 : 0;
  for (const auto& c : root.children) n += CountNodes(*c, kind);
  return n;
}

TEST(PlannerTest, SimpleScanGathers) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned->gang.size(), 4u);
  const PlanNode* motion = FindNode(*planned->root, PlanKind::kMotion);
  ASSERT_NE(motion, nullptr);
  EXPECT_EQ(motion->motion, MotionKind::kGather);
  EXPECT_NE(FindNode(*planned->root, PlanKind::kSeqScan), nullptr);
  EXPECT_EQ(planned->columns[0], "k");
}

TEST(PlannerTest, DirectDispatchOnPinnedKey) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(Datum(int64_t{7})))};
  q.items = {ColItem(1, "v")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->gang.size(), 1u);  // routed to exactly one segment
  int expected = static_cast<int>(Datum(int64_t{7}).Hash() % 4);
  // DirectDispatchSegment hashes the key row, which for a single int key equals
  // HashRowKey of that one datum.
  Row key = {Datum(int64_t{7})};
  EXPECT_EQ(planned->gang[0], static_cast<int>(HashRowKey(key, {0}) % 4));
  (void)expected;
}

TEST(PlannerTest, NoDirectDispatchOnNonKeyPredicate) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(1), Expr::Const(Datum(int64_t{7})))};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->gang.size(), 4u);
}

TEST(PlannerTest, DirectDispatchDisabled) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(Datum(int64_t{7})))};
  q.items = {ColItem(0, "k")};
  PlannerOptions opts = Opts(4);
  opts.direct_dispatch = false;
  auto planned = PlanSelect(q, opts);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->gang.size(), 4u);
}

TEST(PlannerTest, CollocatedJoinHasSingleMotion) {
  // Both distributed by the join key: only the final gather moves data.
  SelectQuery q;
  q.tables = {MakeTable(1, "a"), MakeTable(2, "b")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Column(2))};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kMotion), 1);  // gather only
  EXPECT_NE(FindNode(*planned->root, PlanKind::kHashJoin), nullptr);
}

TEST(PlannerTest, MismatchedJoinKeyRedistributes) {
  // Join a.v = b.k: a is distributed by a.k, so a must move.
  SelectQuery q;
  q.tables = {MakeTable(1, "a"), MakeTable(2, "b")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(1), Expr::Column(2))};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  int motions = CountNodes(*planned->root, PlanKind::kMotion);
  EXPECT_EQ(motions, 2);  // one redistribute + final gather
  // Find the redistribute.
  bool found_redistribute = false;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    if (n.kind == PlanKind::kMotion && n.motion == MotionKind::kRedistribute) {
      found_redistribute = true;
    }
    for (const auto& c : n.children) walk(*c);
  };
  walk(*planned->root);
  EXPECT_TRUE(found_redistribute);
}

// Two-table join query over (k, v) tables a and b: combined columns are
// a.k=0, a.v=1, b.k=2, b.v=3; `pairs` are the equi-join column pairs.
SelectQuery JoinQuery(DistributionPolicy a_dist, DistributionPolicy b_dist,
                      const std::vector<std::pair<int, int>>& pairs) {
  SelectQuery q;
  q.tables = {MakeTable(1, "a", std::move(a_dist)), MakeTable(2, "b", std::move(b_dist))};
  for (auto [l, r] : pairs) {
    q.quals.push_back(Expr::Binary(BinOp::kEq, Expr::Column(l), Expr::Column(r)));
  }
  q.items = {ColItem(0, "k")};
  return q;
}

// Hash columns of the redistribute directly under join child `side`
// (0 = probe, 1 = build); nullopt when that child is not a redistribute.
std::optional<std::vector<int>> RedistributeCols(const PlanNode& join, size_t side) {
  const PlanNode& child = *join.children[side];
  if (child.kind != PlanKind::kMotion || child.motion != MotionKind::kRedistribute) {
    return std::nullopt;
  }
  return child.hash_cols;
}

TEST(PlannerTest, CompositeKeysJoinedInOrderAreCollocated) {
  // a.k = b.k AND a.v = b.v with both sides DISTRIBUTED BY (k, v).
  auto planned = PlanSelect(JoinQuery(DistributionPolicy::Hash({0, 1}),
                                      DistributionPolicy::Hash({0, 1}), {{0, 2}, {1, 3}}),
                            Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kMotion), 1);  // gather only
}

TEST(PlannerTest, DistributionKeysSubsetOfJoinKeysAreCollocated) {
  // a.k = b.k AND a.v = b.v with both sides DISTRIBUTED BY (k): matching rows
  // agree on k, so they already share a segment (CH q5's ol_w_id = s_w_id).
  auto planned = PlanSelect(JoinQuery(DistributionPolicy::Hash({0}),
                                      DistributionPolicy::Hash({0}), {{0, 2}, {1, 3}}),
                            Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kMotion), 1);
}

TEST(PlannerTest, CrossPairedCompositeKeysRedistributeOnPartnerOrder) {
  // a DISTRIBUTED BY (k, v), b DISTRIBUTED BY (k, v), joined a.k = b.v AND
  // a.v = b.k: the key sets match but the pairing is crossed, so b must be
  // hashed on (b.v, b.k) — a's distribution order — to meet a's rows.
  auto planned = PlanSelect(JoinQuery(DistributionPolicy::Hash({0, 1}),
                                      DistributionPolicy::Hash({0, 1}), {{0, 3}, {1, 2}}),
                            Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kMotion), 2);
  const PlanNode* join = FindNode(*planned->root, PlanKind::kHashJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(RedistributeCols(*join, 0), std::nullopt);
  EXPECT_EQ(RedistributeCols(*join, 1), (std::vector<int>{1, 0}));
}

TEST(PlannerTest, CoveredSideStaysAndOtherSideTakesItsOrder) {
  // a DISTRIBUTED BY (k, v), b DISTRIBUTED BY (v), joined a.v = b.k AND
  // a.k = b.v: a is covered, so b moves, hashed on a's partners (b.v, b.k).
  auto planned = PlanSelect(JoinQuery(DistributionPolicy::Hash({0, 1}),
                                      DistributionPolicy::Hash({1}), {{1, 2}, {0, 3}}),
                            Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kMotion), 2);
  const PlanNode* join = FindNode(*planned->root, PlanKind::kHashJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(RedistributeCols(*join, 0), std::nullopt);
  EXPECT_EQ(RedistributeCols(*join, 1), (std::vector<int>{1, 0}));
}

TEST(PlannerTest, OnlyBuildSideCoveredMovesProbeSide) {
  // a DISTRIBUTED BY (v), b DISTRIBUTED BY (k), joined a.k = b.k: only b is
  // covered, so a is hashed on b's partner a.k.
  auto planned = PlanSelect(JoinQuery(DistributionPolicy::Hash({1}),
                                      DistributionPolicy::Hash({0}), {{0, 2}}),
                            Opts(4));
  ASSERT_TRUE(planned.ok());
  const PlanNode* join = FindNode(*planned->root, PlanKind::kHashJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(RedistributeCols(*join, 0), (std::vector<int>{0}));
  EXPECT_EQ(RedistributeCols(*join, 1), std::nullopt);
}

TEST(PlannerTest, ReplicatedTableNeedsNoMotion) {
  SelectQuery q;
  q.tables = {MakeTable(1, "facts"),
              MakeTable(2, "dims", DistributionPolicy::Replicated())};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(1), Expr::Column(2))};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kMotion), 1);  // gather only
}

TEST(PlannerTest, OrcaBroadcastsSmallBuildSide) {
  SelectQuery q;
  q.tables = {MakeTable(1, "big"), MakeTable(2, "small")};
  // Join on big.v = small.v: neither side collocated.
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(1), Expr::Column(3))};
  q.items = {ColItem(0, "k")};
  PlannerOptions opts = Opts(4, /*orca=*/true);
  opts.row_estimate = [](TableId id) -> uint64_t { return id == 1 ? 1'000'000 : 10; };
  auto planned = PlanSelect(q, opts);
  ASSERT_TRUE(planned.ok());
  bool found_broadcast = false;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    if (n.kind == PlanKind::kMotion && n.motion == MotionKind::kBroadcast) {
      found_broadcast = true;
    }
    for (const auto& c : n.children) walk(*c);
  };
  walk(*planned->root);
  EXPECT_TRUE(found_broadcast) << planned->root->ToString();
}

TEST(PlannerTest, HeuristicNeverBroadcasts) {
  SelectQuery q;
  q.tables = {MakeTable(1, "big"), MakeTable(2, "small")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(1), Expr::Column(3))};
  q.items = {ColItem(0, "k")};
  PlannerOptions opts = Opts(4, /*orca=*/false);
  opts.row_estimate = [](TableId id) -> uint64_t { return id == 1 ? 1'000'000 : 10; };
  auto planned = PlanSelect(q, opts);
  ASSERT_TRUE(planned.ok());
  std::function<int(const PlanNode&)> count_bc = [&](const PlanNode& n) -> int {
    int c = n.kind == PlanKind::kMotion && n.motion == MotionKind::kBroadcast ? 1 : 0;
    for (const auto& ch : n.children) c += count_bc(*ch);
    return c;
  };
  EXPECT_EQ(count_bc(*planned->root), 0);
}

TEST(PlannerTest, AggregationIsTwoPhase) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  SelectItem agg;
  agg.is_agg = true;
  agg.agg.fn = AggFunc::kSum;
  agg.agg.arg = Expr::Column(1);
  agg.name = "sum";
  q.items = {ColItem(0, "k"), agg};
  q.group_by = {0};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kHashAgg), 2);  // partial + final
  // The partial agg must sit BELOW the gather motion.
  const PlanNode* motion = FindNode(*planned->root, PlanKind::kMotion);
  ASSERT_NE(motion, nullptr);
  EXPECT_NE(FindNode(*motion->children[0], PlanKind::kHashAgg), nullptr);
}

TEST(PlannerTest, UngroupedColumnWithAggregateRejected) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  SelectItem agg;
  agg.is_agg = true;
  agg.agg.fn = AggFunc::kCountStar;
  agg.name = "n";
  q.items = {ColItem(1, "v"), agg};  // v not grouped
  q.group_by = {0};
  auto planned = PlanSelect(q, Opts(4));
  EXPECT_FALSE(planned.ok());
}

TEST(PlannerTest, IndexScanChosenForPinnedIndexedColumn) {
  TableDef t = MakeTable(1, "t");
  t.indexed_cols = {0};
  SelectQuery q;
  q.tables = {t};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(Datum(int64_t{5})))};
  q.items = {ColItem(1, "v")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_NE(FindNode(*planned->root, PlanKind::kIndexScan), nullptr);
  EXPECT_EQ(FindNode(*planned->root, PlanKind::kSeqScan), nullptr);
}

TEST(PlannerTest, SortAndLimitOnTop) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  q.items = {ColItem(0, "k")};
  q.order_by = {{0, false}};
  q.limit = 10;
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->root->kind, PlanKind::kLimit);
  EXPECT_EQ(planned->root->children[0]->kind, PlanKind::kSort);
  EXPECT_FALSE(planned->root->children[0]->sort_keys[0].ascending);
}

TEST(PlannerTest, AllReplicatedRunsOnOneSegment) {
  SelectQuery q;
  q.tables = {MakeTable(1, "dims", DistributionPolicy::Replicated())};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->gang.size(), 1u);
}

// Walks to the first HashAgg at or below `n`.
const PlanNode* FirstHashAgg(const PlanNode& n) {
  return FindNode(n, PlanKind::kHashAgg);
}

TEST(PlannerTest, DistinctOnStoredTableDedupsBelowGather) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  q.items = {ColItem(0, "k"), ColItem(1, "v")};
  q.distinct = true;
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kHashAgg), 2);
  // Final dedup on the coordinator, over the gather...
  const PlanNode& root = *planned->root;
  ASSERT_EQ(root.kind, PlanKind::kHashAgg);
  EXPECT_EQ(root.agg_phase, AggPhase::kFinal);
  EXPECT_EQ(root.group_cols.size(), 2u);
  ASSERT_EQ(root.children[0]->kind, PlanKind::kMotion);
  EXPECT_EQ(root.children[0]->motion, MotionKind::kGather);
  // ...and a partial dedup on every segment below it.
  const PlanNode* partial = FirstHashAgg(*root.children[0]);
  ASSERT_NE(partial, nullptr);
  EXPECT_EQ(partial->agg_phase, AggPhase::kPartial);
  EXPECT_EQ(partial->group_cols.size(), 2u);
  EXPECT_TRUE(partial->aggs.empty());
}

TEST(PlannerTest, DistinctOverGroupByStaysSinglePhase) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  SelectItem agg;
  agg.is_agg = true;
  agg.agg.fn = AggFunc::kCountStar;
  agg.name = "n";
  q.items = {ColItem(0, "k"), agg};
  q.group_by = {0};
  q.distinct = true;
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  // Partial + final aggregation, then one single-phase dedup on top.
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kHashAgg), 3);
  ASSERT_EQ(planned->root->kind, PlanKind::kHashAgg);
  EXPECT_EQ(planned->root->agg_phase, AggPhase::kSingle);
  EXPECT_NE(planned->root->children[0]->kind, PlanKind::kMotion);
}

TEST(PlannerTest, DistinctOnSystemViewStaysSinglePhase) {
  SelectQuery q;
  TableDef view = MakeTable(1, "gp_view");
  view.is_system_view = true;
  q.tables = {view};
  q.items = {ColItem(0, "k")};
  q.distinct = true;
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kMotion), 0);
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kHashAgg), 1);
  ASSERT_EQ(planned->root->kind, PlanKind::kHashAgg);
  EXPECT_EQ(planned->root->agg_phase, AggPhase::kSingle);
}

TEST(PlannerTest, JoinFollowsItsProbeSideIntoTheBatchEngine) {
  // AO-column probe (FROM order puts it first) joined to a heap build side:
  // the join is vectorized and its heap build scan stays on the row engine.
  SelectQuery q;
  TableDef fact = MakeTable(1, "fact");
  fact.storage = StorageKind::kAoColumn;
  q.tables = {fact, MakeTable(2, "dim")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Column(2))};
  q.items = {ColItem(0, "k"), ColItem(3, "v")};
  PlannerOptions opts = Opts(4);
  opts.vectorize = true;
  auto planned = PlanSelect(q, opts);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const PlanNode* join = FindNode(*planned->root, PlanKind::kHashJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_TRUE(join->vectorize);
  EXPECT_TRUE(join->children[0]->vectorize);
  const PlanNode* build_scan = FindNode(*join->children[1], PlanKind::kSeqScan);
  ASSERT_NE(build_scan, nullptr);
  EXPECT_EQ(build_scan->table, 2u);
  EXPECT_FALSE(build_scan->vectorize);

  // With the heap table as the probe side, the join stays on the row engine.
  q.tables = {MakeTable(2, "dim"), fact};
  auto flipped = PlanSelect(q, opts);
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  const PlanNode* row_join = FindNode(*flipped->root, PlanKind::kHashJoin);
  ASSERT_NE(row_join, nullptr);
  EXPECT_FALSE(row_join->vectorize);
}

TEST(PlannerTest, EmptyFromRejected) {
  SelectQuery q;
  q.items = {ColItem(0, "k")};
  EXPECT_FALSE(PlanSelect(q, Opts(4)).ok());
}

}  // namespace
}  // namespace gphtap
