// Property tests for the relational operators: on random relations, each
// operator must agree with a brute-force reference implementation, and
// set-semantics invariants (no duplicate rows in any output) must hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "common/check.h"
#include "relational/ops.h"
#include "relational/spill.h"

namespace qf {
namespace {

Relation RandomRelation(Rng& rng, std::vector<std::string> columns,
                        std::size_t rows, int domain) {
  Relation rel{Schema(std::move(columns))};
  for (std::size_t i = 0; i < rows; ++i) {
    Tuple t;
    for (std::size_t c = 0; c < rel.arity(); ++c) {
      t.push_back(Value(static_cast<std::int64_t>(
          rng.NextBelow(static_cast<std::uint32_t>(domain)))));
    }
    rel.Add(std::move(t));
  }
  rel.Dedup();
  return rel;
}

bool IsSet(const Relation& rel) {
  Relation copy = rel;
  copy.Dedup();
  return copy.size() == rel.size();
}

std::vector<Tuple> Sorted(const Relation& rel) {
  std::vector<Tuple> rows = rel.rows();
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Column layout of a natural join: the shared columns of `a` and `b`, the
// columns only `b` has, and the joined schema.
struct JoinLayout {
  std::vector<std::size_t> a_key, b_key, b_rest;
  Schema schema;
};

JoinLayout LayoutOf(const Relation& a, const Relation& b) {
  JoinLayout l;
  for (std::size_t j = 0; j < b.arity(); ++j) {
    auto i = a.schema().IndexOf(b.schema().column(j));
    if (i.has_value()) {
      l.a_key.push_back(*i);
      l.b_key.push_back(j);
    } else {
      l.b_rest.push_back(j);
    }
  }
  std::vector<std::string> columns = a.schema().columns();
  for (std::size_t j : l.b_rest) columns.push_back(b.schema().column(j));
  l.schema = Schema(columns);
  return l;
}

Tuple KeyOf(const Tuple& t, const std::vector<std::size_t>& key) {
  Tuple k;
  for (std::size_t i : key) k.push_back(t[i]);
  return k;
}

Tuple Combined(const Tuple& ta, const Tuple& tb, const JoinLayout& l) {
  Tuple combined = ta;
  for (std::size_t j : l.b_rest) combined.push_back(tb[j]);
  return combined;
}

// Reference natural join: nested loops over all row pairs.
Relation ReferenceNaturalJoin(const Relation& a, const Relation& b) {
  JoinLayout l = LayoutOf(a, b);
  Relation out{l.schema};
  for (const Tuple& ta : a.rows()) {
    for (const Tuple& tb : b.rows()) {
      if (KeyOf(ta, l.a_key) == KeyOf(tb, l.b_key)) {
        out.Add(Combined(ta, tb, l));
      }
    }
  }
  return out;
}

// Reference sort-merge join: `b` sorted by its shared columns, each row
// of `a` crossed with its equal-key run. Row order differs from the hash
// join; the row set must not.
Relation ReferenceSortMergeJoin(const Relation& a, const Relation& b) {
  JoinLayout l = LayoutOf(a, b);
  auto less = [&](const Tuple& x, const Tuple& y) {
    return KeyOf(x, l.b_key) < KeyOf(y, l.b_key);
  };
  std::vector<Tuple> sb = b.rows();
  std::stable_sort(sb.begin(), sb.end(), less);
  Relation out{l.schema};
  for (const Tuple& ta : a.rows()) {
    // A probe row shaped like a b row, so `less` reads its key.
    Tuple probe(b.arity());
    for (std::size_t k = 0; k < l.a_key.size(); ++k) {
      probe[l.b_key[k]] = ta[l.a_key[k]];
    }
    auto [lo, hi] = std::equal_range(sb.begin(), sb.end(), probe, less);
    for (auto it = lo; it != hi; ++it) out.Add(Combined(ta, *it, l));
  }
  return out;
}

class OpsProperty : public ::testing::TestWithParam<int> {
 protected:
  OpsProperty() : rng_(static_cast<std::uint64_t>(GetParam())) {}
  Rng rng_;
};

TEST_P(OpsProperty, NaturalJoinMatchesReference) {
  Relation a = RandomRelation(rng_, {"X", "Y"}, 40, 6);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 40, 6);
  Relation fast = NaturalJoin(a, b);
  Relation reference = ReferenceNaturalJoin(a, b);
  EXPECT_EQ(fast.schema(), reference.schema());
  EXPECT_EQ(Sorted(fast), Sorted(reference));
  EXPECT_TRUE(IsSet(fast));

  // Multi-key overlap.
  Relation c = RandomRelation(rng_, {"X", "Y", "W"}, 40, 4);
  Relation d = RandomRelation(rng_, {"X", "Y", "V"}, 40, 4);
  EXPECT_EQ(Sorted(NaturalJoin(c, d)), Sorted(ReferenceNaturalJoin(c, d)));

  // Empty sides and cross products.
  Relation empty{Schema({"Y", "Q"})};
  EXPECT_TRUE(NaturalJoin(a, empty).empty());
  EXPECT_TRUE(NaturalJoin(empty, b).empty());
  Relation no_shared = RandomRelation(rng_, {"Q"}, 5, 3);
  EXPECT_EQ(Sorted(NaturalJoin(a, no_shared)),
            Sorted(ReferenceNaturalJoin(a, no_shared)));
}

TEST_P(OpsProperty, SortMergeJoinMatchesHashJoin) {
  // A second, independently shaped oracle for the hash join.
  Relation a = RandomRelation(rng_, {"X", "Y"}, 45, 7);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 45, 7);
  Relation hash = NaturalJoin(a, b);
  Relation merge = ReferenceSortMergeJoin(a, b);
  EXPECT_EQ(hash.schema(), merge.schema());
  EXPECT_EQ(Sorted(hash), Sorted(merge));
}

TEST_P(OpsProperty, ParallelJoinMatchesSerial) {
  // Large enough to cross the parallel threshold with 2 workers.
  Relation a = RandomRelation(rng_, {"X", "Y"}, 10000, 400);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 3000, 400);
  Relation serial = NaturalJoin(a, b);
  Relation parallel2 = ParallelNaturalJoin(a, b, 2);
  Relation parallel4 = ParallelNaturalJoin(a, b, 4);
  EXPECT_EQ(Sorted(serial), Sorted(parallel2));
  EXPECT_EQ(Sorted(serial), Sorted(parallel4));
  // Small inputs and single-thread fall back to the serial join.
  Relation small = RandomRelation(rng_, {"X", "Y"}, 20, 5);
  EXPECT_EQ(Sorted(NaturalJoin(small, b)),
            Sorted(ParallelNaturalJoin(small, b, 4)));
  EXPECT_EQ(Sorted(serial), Sorted(ParallelNaturalJoin(a, b, 1)));
}

TEST_P(OpsProperty, JoinIsCommutativeUpToColumnOrder) {
  Relation a = RandomRelation(rng_, {"X", "Y"}, 30, 5);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 30, 5);
  Relation ab = NaturalJoin(a, b);
  Relation ba = NaturalJoin(b, a);
  EXPECT_EQ(ab.size(), ba.size());
  Relation ba_reordered = Project(ba, ab.schema().columns());
  EXPECT_EQ(Sorted(ab), Sorted(ba_reordered));
}

TEST_P(OpsProperty, SemiAntiJoinPartitionInput) {
  Relation a = RandomRelation(rng_, {"X", "Y"}, 50, 6);
  Relation b = RandomRelation(rng_, {"Y", "W"}, 25, 6);
  Relation semi = SemiJoin(a, b);
  Relation anti = AntiJoin(a, b);
  // semi + anti = a, disjointly.
  EXPECT_EQ(semi.size() + anti.size(), a.size());
  EXPECT_EQ(Sorted(Union(semi, anti)), Sorted(a));
  for (const Tuple& t : semi.rows()) EXPECT_FALSE(anti.Contains(t));
}

TEST_P(OpsProperty, SemiJoinEqualsJoinProjection) {
  Relation a = RandomRelation(rng_, {"X", "Y"}, 40, 5);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 40, 5);
  Relation semi = SemiJoin(a, b);
  Relation via_join = Project(NaturalJoin(a, b), a.schema().columns());
  EXPECT_EQ(Sorted(semi), Sorted(via_join));
}

TEST_P(OpsProperty, UnionDifferenceRoundTrip) {
  Relation a = RandomRelation(rng_, {"X"}, 30, 12);
  Relation b = RandomRelation(rng_, {"X"}, 30, 12);
  // (a ∪ b) - b = a - b; and a ⊆ a ∪ b.
  Relation u = Union(a, b);
  EXPECT_EQ(Sorted(Difference(u, b)), Sorted(Difference(a, b)));
  for (const Tuple& t : a.rows()) EXPECT_TRUE(u.Contains(t));
  EXPECT_TRUE(IsSet(u));
}

TEST_P(OpsProperty, GroupCountMatchesReference) {
  Relation a = RandomRelation(rng_, {"K", "V"}, 60, 6);
  Relation grouped = GroupAggregate(a, {"K"}, AggKind::kCount, "", "n");
  std::map<Value, std::int64_t> reference;
  for (const Tuple& t : a.rows()) ++reference[t[0]];
  EXPECT_EQ(grouped.size(), reference.size());
  for (const Tuple& t : grouped.rows()) {
    EXPECT_EQ(t[1].AsInt(), reference[t[0]]);
  }
}

TEST_P(OpsProperty, GroupSumMatchesReference) {
  Relation a = RandomRelation(rng_, {"K", "V"}, 60, 6);
  Relation grouped = GroupAggregate(a, {"K"}, AggKind::kSum, "V", "s");
  std::map<Value, double> reference;
  for (const Tuple& t : a.rows()) reference[t[0]] += t[1].AsNumber();
  for (const Tuple& t : grouped.rows()) {
    EXPECT_DOUBLE_EQ(t[1].AsNumber(), reference[t[0]]);
  }
}

// The parallel flock evaluator aggregates in its grouping sink, fed in
// the serial push order at every thread count; these tests pin that sink
// to the serial kernel. `rel`'s first column is the group key.
Relation SinkGroup(const Relation& rel, AggKind kind,
                   const std::string& agg_col, const std::string& out_col) {
  SpillGroupSink sink(rel.schema(), /*key_columns=*/1, kind, agg_col,
                      out_col, nullptr, nullptr, nullptr, nullptr);
  for (const Tuple& row : rel.rows()) QF_CHECK(sink.Push(row).ok());
  Result<Relation> out = sink.Finish();
  QF_CHECK(out.ok());
  return std::move(*out);
}

TEST_P(OpsProperty, ParallelGroupAggregateMatchesSerial) {
  Relation a = RandomRelation(rng_, {"K", "V"}, 6000, 40);
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                       AggKind::kMax}) {
    std::string agg_col = kind == AggKind::kCount ? "" : "V";
    Relation serial = GroupAggregate(a, {"K"}, kind, agg_col, "agg");
    // Exact rows and order, float SUM association included.
    EXPECT_EQ(serial.rows(), SinkGroup(a, kind, agg_col, "agg").rows());
    EXPECT_TRUE(IsSet(serial));
  }
}

TEST_P(OpsProperty, ParallelGroupAggregateEmptyInput) {
  Relation empty{Schema({"K", "V"})};
  for (const Relation& g :
       {GroupAggregate(empty, {"K"}, AggKind::kCount, "", "n"),
        SinkGroup(empty, AggKind::kCount, "", "n")}) {
    EXPECT_TRUE(g.empty());
    EXPECT_EQ(g.schema(), Schema({"K", "n"}));
  }
}

TEST_P(OpsProperty, ParallelGroupAggregateAllOneGroup) {
  // A constant key: every row folds into the same accumulator.
  Relation a{Schema({"K", "V"})};
  std::int64_t expected_sum = 0;
  for (int i = 0; i < 5000; ++i) {
    std::int64_t v = static_cast<std::int64_t>(rng_.NextBelow(100));
    // Keep V distinct per row so set semantics don't collapse rows.
    a.Add({Value(std::int64_t{1}), Value(v * 8192 + i)});
    expected_sum += v * 8192 + i;
  }
  for (const Relation& count :
       {GroupAggregate(a, {"K"}, AggKind::kCount, "", "n"),
        SinkGroup(a, AggKind::kCount, "", "n")}) {
    ASSERT_EQ(count.size(), 1u);
    EXPECT_EQ(count.rows()[0][1].AsInt(), 5000);
  }
  for (const Relation& sum :
       {GroupAggregate(a, {"K"}, AggKind::kSum, "V", "s"),
        SinkGroup(a, AggKind::kSum, "V", "s")}) {
    ASSERT_EQ(sum.size(), 1u);
    EXPECT_DOUBLE_EQ(sum.rows()[0][1].AsNumber(),
                     static_cast<double>(expected_sum));
  }
}

TEST_P(OpsProperty, ParallelGroupSumWithNegativeValuesMatchesSerial) {
  // GroupAggregate itself has no sign restriction (the flock evaluator
  // enforces that); sums over mixed-sign integers are exact.
  Relation a{Schema({"K", "V"})};
  std::map<Value, std::int64_t> reference;
  for (int i = 0; i < 6000; ++i) {
    std::int64_t v = static_cast<std::int64_t>(rng_.NextBelow(50)) - 25;
    Value k(static_cast<std::int64_t>(rng_.NextBelow(10)));
    a.Add({k, Value(v * 8192 + i)});
    reference[k] += v * 8192 + i;
  }
  Relation serial = GroupAggregate(a, {"K"}, AggKind::kSum, "V", "s");
  ASSERT_EQ(serial.size(), reference.size());
  for (const Tuple& t : serial.rows()) {
    EXPECT_EQ(t[1].AsNumber(), static_cast<double>(reference[t[0]]));
  }
  EXPECT_EQ(serial.rows(), SinkGroup(a, AggKind::kSum, "V", "s").rows());
}

TEST_P(OpsProperty, MetricsRowsOutEqualsCardinality) {
  // Metrics invariant: for every operator, rows_out equals the actual
  // result cardinality and rows_in the actual input sizes — on random
  // relations, for the serial and parallel variants alike.
  Relation a = RandomRelation(rng_, {"X", "Y"}, 60, 6);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 45, 6);

  OpMetrics join_m;
  Relation joined = NaturalJoin(a, b, &join_m);
  EXPECT_EQ(join_m.rows_in, a.size());
  EXPECT_EQ(join_m.rows_in_right, b.size());
  EXPECT_EQ(join_m.rows_out, joined.size());
  // tuples_probed counts hash-table slot probes across the build and
  // probe phases: every build row and every probe row inspects at least
  // one slot, so the count is bounded below by a.size() + b.size().
  EXPECT_GE(join_m.tuples_probed, a.size() + b.size());

  OpMetrics semi_m, anti_m;
  Relation semi = SemiJoin(a, b, &semi_m);
  Relation anti = AntiJoin(a, b, &anti_m);
  EXPECT_EQ(semi_m.rows_out, semi.size());
  EXPECT_EQ(anti_m.rows_out, anti.size());
  EXPECT_EQ(semi_m.rows_out + anti_m.rows_out, a.size());

  OpMetrics union_m;
  Relation u = Union(semi, anti, &union_m);
  EXPECT_EQ(union_m.rows_in, semi.size());
  EXPECT_EQ(union_m.rows_in_right, anti.size());
  EXPECT_EQ(union_m.rows_out, u.size());

  OpMetrics group_m;
  Relation grouped = GroupAggregate(a, {"X"}, AggKind::kCount, "", "n",
                                    &group_m);
  EXPECT_EQ(group_m.rows_in, a.size());
  EXPECT_EQ(group_m.rows_out, grouped.size());

  OpMetrics project_m, select_m;
  Relation projected = Project(joined, {"X", "Z"}, &project_m);
  EXPECT_EQ(project_m.rows_in, joined.size());
  EXPECT_EQ(project_m.rows_out, projected.size());
  Relation selected = Select(
      joined, [](const Tuple& t) { return t[0].AsInt() % 2 == 0; },
      &select_m);
  EXPECT_EQ(select_m.rows_in, joined.size());
  EXPECT_EQ(select_m.rows_out, selected.size());
}

TEST_P(OpsProperty, MetricsRowCountersThreadInvariant) {
  // The determinism contract extends to metrics: row counters (rows_in,
  // rows_out, tuples_probed) are identical for every thread count.
  // `morsels` reflects the actual decomposition (0 on the serial path,
  // input-size-determined when parallel) and is checked separately.
  Relation a = RandomRelation(rng_, {"X", "Y"}, 10000, 400);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 3000, 400);
  OpMetrics serial_m;
  Relation serial = NaturalJoin(a, b, &serial_m);
  EXPECT_EQ(serial_m.morsels, 0u);
  std::uint64_t parallel_morsels = 0;
  for (unsigned threads : {2u, 8u}) {
    OpMetrics m;
    Relation parallel = ParallelNaturalJoin(a, b, threads, &m);
    EXPECT_EQ(Sorted(serial), Sorted(parallel));
    EXPECT_EQ(m.rows_in, serial_m.rows_in) << "threads=" << threads;
    EXPECT_EQ(m.rows_in_right, serial_m.rows_in_right);
    EXPECT_EQ(m.rows_out, serial_m.rows_out) << "threads=" << threads;
    EXPECT_EQ(m.tuples_probed, serial_m.tuples_probed);
    EXPECT_GT(m.morsels, 0u) << "threads=" << threads;
    if (parallel_morsels == 0) parallel_morsels = m.morsels;
    // Morsel count depends only on the input size, never on threads.
    EXPECT_EQ(m.morsels, parallel_morsels) << "threads=" << threads;
  }

}

TEST_P(OpsProperty, MetricsChainLinksRowsAcrossOperators) {
  // Plan-edge invariant: feeding one operator's output into the next, the
  // downstream node's rows_in must equal the upstream node's rows_out.
  Relation a = RandomRelation(rng_, {"X", "Y"}, 50, 5);
  Relation b = RandomRelation(rng_, {"Y", "Z"}, 50, 5);
  OpMetrics root("chain");
  OpMetrics* join_m = root.AddChild("join");
  OpMetrics* group_m = root.AddChild("group_by");
  OpMetrics* project_m = root.AddChild("project");
  Relation joined = NaturalJoin(a, b, join_m);
  Relation grouped =
      GroupAggregate(joined, {"X"}, AggKind::kCount, "", "n", group_m);
  Relation projected = Project(grouped, {"X"}, project_m);
  EXPECT_EQ(group_m->rows_in, join_m->rows_out);
  EXPECT_EQ(project_m->rows_in, group_m->rows_out);
  EXPECT_EQ(project_m->rows_out, projected.size());
  EXPECT_EQ(root.NodeCount(), 4u);
}

TEST_P(OpsProperty, MetricsAccumulateAcrossCalls) {
  // Reusing one node across calls accumulates (+=) — the contract that
  // lets a loop of unions or repeated scans share a node.
  Relation a = RandomRelation(rng_, {"X"}, 30, 10);
  OpMetrics m;
  Relation p1 = Project(a, {"X"}, &m);
  Relation p2 = Project(a, {"X"}, &m);
  EXPECT_EQ(m.rows_in, 2 * a.size());
  EXPECT_EQ(m.rows_out, p1.size() + p2.size());
}

TEST_P(OpsProperty, ProjectIdempotent) {
  Relation a = RandomRelation(rng_, {"X", "Y", "Z"}, 50, 4);
  Relation once = Project(a, {"X", "Z"});
  Relation twice = Project(once, {"X", "Z"});
  EXPECT_EQ(Sorted(once), Sorted(twice));
  EXPECT_TRUE(IsSet(once));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpsProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace qf
