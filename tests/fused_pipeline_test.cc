// The fused final-join pipeline (flocks/cq_eval.h, flocks/eval.h) against
// a reference composed from the public kernels, on generated flocks.
//
// EvaluateFlock streams its final join through compare -> project -> one
// GROUP BY + FILTER sink (relational/spill.h) that dedups, groups, and
// spills by itself. The reference materializes every step the old way:
// SubgoalBindings scans, NaturalJoin folded in text order with Select /
// AntiJoin applied as soon as bound, Project, Union over disjuncts,
// serial GroupAggregate, and the filter. Both must give the same rows,
// the same peak_rows (the largest join output, streamed or not) and the
// same answer_rows, at threads {0,1,4}, unbudgeted and spilled — and the
// naive generate-and-test evaluator must agree on the rows. Single-disjunct
// support flocks also run DynamicEvaluate (§4.4 filters on the same fold)
// at three knob presets, with the same rows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/resource.h"
#include "common/vfs.h"
#include "flocks/cq_eval.h"
#include "flocks/eval.h"
#include "flocks/flock.h"
#include "flocks/naive_eval.h"
#include "generated_flocks.h"
#include "optimizer/dynamic.h"
#include "relational/ops.h"
#include "relational/spill.h"

namespace qf {
namespace {

constexpr unsigned kThreadCounts[] = {0, 1, 4};

// ------------------------------------------------------------ reference

struct Reference {
  Relation rows;
  std::size_t peak_rows = 0;
  std::size_t answer_rows = 0;
};

bool Bound(const Subgoal& s, const Schema& schema) {
  for (const Term& t : s.terms()) {
    if (!t.is_constant() && !schema.Contains(TermColumn(t))) return false;
  }
  return true;
}

// One disjunct, materialized step by step; `peak` gets the largest scan or
// join output, as FlockEvalInfo::peak_rows counts it.
Relation ReferenceDisjunct(const ConjunctiveQuery& cq, const Database& db,
                           const std::vector<std::string>& wanted,
                           std::size_t* peak) {
  std::vector<const Subgoal*> pending;
  Relation current;
  bool first = true;
  auto apply_ready = [&] {
    for (auto it = pending.begin(); it != pending.end();) {
      const Subgoal& s = **it;
      if (!Bound(s, current.schema())) {
        ++it;
        continue;
      }
      if (s.is_comparison()) {
        const Schema& schema = current.schema();
        auto value = [&schema](const Term& t, const Tuple& row) {
          return t.is_constant() ? t.constant()
                                 : row[schema.IndexOfOrDie(TermColumn(t))];
        };
        current = Select(current, [&](const Tuple& row) {
          return EvalCompare(s.op(), value(s.lhs(), row), value(s.rhs(), row));
        });
      } else {
        current = AntiJoin(current,
                           SubgoalBindings(s, db.Get(s.predicate())));
      }
      it = pending.erase(it);
    }
  };
  for (const Subgoal& s : cq.subgoals) {
    if (!s.is_positive()) pending.push_back(&s);
  }
  for (const Subgoal& s : cq.subgoals) {
    if (!s.is_positive()) continue;
    Relation bindings = SubgoalBindings(s, db.Get(s.predicate()));
    current = first ? std::move(bindings) : NaturalJoin(current, bindings);
    first = false;
    *peak = std::max(*peak, current.size());
    apply_ready();
  }
  EXPECT_TRUE(pending.empty()) << "generated an unsafe disjunct";
  return Project(current, wanted);
}

Reference ReferenceFlock(const QueryFlock& flock, const Database& db) {
  std::vector<std::string> params = FlockParameterColumns(flock);
  std::vector<std::string> answer_columns = params;
  for (std::size_t i = 0; i < flock.query.head_arity(); ++i) {
    answer_columns.push_back("_h" + std::to_string(i));
  }
  Reference ref;
  Relation answers{Schema(answer_columns)};
  for (const ConjunctiveQuery& cq : flock.query.disjuncts) {
    std::vector<std::string> wanted = params;
    wanted.insert(wanted.end(), cq.head_vars.begin(), cq.head_vars.end());
    Relation d = ReferenceDisjunct(cq, db, wanted, &ref.peak_rows);
    answers = Union(answers, Rename(std::move(d), answer_columns));
  }
  ref.answer_rows = answers.size();
  const FilterCondition& f = flock.filter;
  AggKind kind = f.agg == FilterAgg::kCount ? AggKind::kCount
                 : f.agg == FilterAgg::kSum ? AggKind::kSum
                 : f.agg == FilterAgg::kMin ? AggKind::kMin
                                            : AggKind::kMax;
  std::string agg_column =
      kind == AggKind::kCount ? "" : "_h" + std::to_string(f.agg_head_index);
  Relation grouped =
      GroupAggregate(answers, params, kind, agg_column, "_agg");
  std::size_t agg = grouped.schema().IndexOfOrDie("_agg");
  Relation passing = Select(
      grouped, [&](const Tuple& row) { return f.Accepts(row[agg]); });
  ref.rows = Project(passing, params);
  ref.rows.SortRows();
  return ref;
}

// ---------------------------------------------------------------- runs

struct EvalRun {
  Result<Relation> rows = Relation();
  FlockEvalInfo info;
  std::uint64_t activations = 0;
};

// Runs `eval(ctx, info)` under a fresh context. `spill` grants a spill
// environment whose activation threshold is zero: every sink spills at its
// first charge point, so every non-empty answer goes through the partition
// files. The budget itself is ample.
template <typename Eval>
EvalRun Governed(bool spill, const Eval& eval) {
  MemVfs vfs;
  SpillEnv env;
  env.vfs = &vfs;
  env.dir = "spill";
  env.fanout = 4;
  env.block_bytes = 4096;
  env.activation = 0;
  QueryContext ctx;
  if (spill) {
    ctx.set_memory_budget(1ull << 30);
    ctx.set_spill_env(&env);
  }
  EvalRun run;
  run.rows = eval(&ctx, &run.info);
  run.activations = env.stats.activations.load();
  Result<std::vector<std::string>> left = vfs.ListDir("spill");
  EXPECT_TRUE(!left.ok() || left->empty())
      << "spill files outlived the statement";
  return run;
}

EvalRun Evaluate(const QueryFlock& flock, const Database& db, unsigned threads,
                 bool spill) {
  return Governed(spill, [&](QueryContext* ctx, FlockEvalInfo* info) {
    FlockEvalOptions options;
    options.threads = threads;
    options.ctx = ctx;
    return EvaluateFlock(flock, db, options, nullptr, info);
  });
}

// §4.4 knob presets: never filter, the default gate, and one that filters
// at every point it is offered (any ratio passes the gate, no removed
// mass is required, and a seen set is always re-considered).
std::vector<DynamicOptions> DynamicPresets() {
  DynamicOptions never, standard, always;
  never.aggressiveness = 0;
  always.aggressiveness = 100;
  always.improvement_factor = 100;
  always.min_removed_fraction = 0;
  return {never, standard, always};
}

TEST(FusedPipelineTest, GeneratedFlocksMatchTheKernelReference) {
  std::size_t checked = 0, spilled = 0, multi = 0, negated = 0;
  std::size_t dynamic_filtered = 0;
  for (unsigned seed = 1; checked < 150 && seed < 5000; ++seed) {
    FlockGenerator gen(seed);
    Database db = RandomDatabase(gen.rng());
    Result<QueryFlock> flock = gen.Next();
    if (!flock.ok()) continue;
    ++checked;
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + flock->ToString());
    Reference ref = ReferenceFlock(*flock, db);
    Result<Relation> naive = NaiveEvaluateFlock(*flock, db);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    naive->SortRows();
    EXPECT_EQ(naive->rows(), ref.rows.rows()) << "naive disagrees";
    if (flock->query.disjuncts.size() > 1) ++multi;
    if (flock->ToString().find("NOT") != std::string::npos) ++negated;
    for (unsigned threads : kThreadCounts) {
      for (bool spill : {false, true}) {
        EvalRun run = Evaluate(*flock, db, threads, spill);
        SCOPED_TRACE("threads " + std::to_string(threads) +
                     (spill ? " spilled" : ""));
        ASSERT_TRUE(run.rows.ok()) << run.rows.status().ToString();
        EXPECT_EQ(run.rows->rows(), ref.rows.rows());
        EXPECT_EQ(run.info.peak_rows, ref.peak_rows);
        EXPECT_EQ(run.info.answer_rows, ref.answer_rows);
        if (spill && ref.answer_rows > 0) {
          EXPECT_GT(run.activations, 0u);
          ++spilled;
        }
      }
    }
    // The DYNAMIC leg: §4.4 filtering on the same fold, one disjunct and a
    // support filter being its preconditions.
    if (flock->query.disjuncts.size() != 1 ||
        !flock->filter.IsSupportStyle()) {
      continue;
    }
    for (const DynamicOptions& preset : DynamicPresets()) {
      for (unsigned threads : kThreadCounts) {
        for (bool spill : {false, true}) {
          SCOPED_TRACE("DYNAMIC aggressiveness " +
                       std::to_string(preset.aggressiveness) + " threads " +
                       std::to_string(threads) + (spill ? " spilled" : ""));
          DynamicLog log;
          EvalRun run = Governed(spill, [&](QueryContext* ctx, FlockEvalInfo*) {
            DynamicOptions options = preset;
            options.threads = threads;
            options.ctx = ctx;
            return DynamicEvaluate(*flock, db, options, &log);
          });
          ASSERT_TRUE(run.rows.ok()) << run.rows.status().ToString();
          EXPECT_EQ(run.rows->rows(), ref.rows.rows());
          if (log.filters_applied > 0) ++dynamic_filtered;
        }
      }
    }
  }
  // The generator must actually reach the shapes this suite is about.
  EXPECT_EQ(checked, 150u);
  EXPECT_GT(spilled, 0u);
  EXPECT_GT(multi, 10u);
  EXPECT_GT(negated, 10u);
  EXPECT_GT(dynamic_filtered, 0u);
}

// -------------------------------------------------- float SUM, bit for bit

// A group's answer rows arrive in head order H = 0, 1, ...; its SUM must
// be the left-to-right double sum in that order — the serial kernel's —
// at every thread count and when spilled. The probe side is big enough
// for the morsel-parallel fused join to run several waves at threads 4.
class FloatSumTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 70000;
  static constexpr const char* kQuery = "answer(H,W) :- g(H,$p) AND w(H,W)";

  static double Weight(int h) {
    return static_cast<double>((h * 7919) % 1000) / 7.0 + 1e-3 * (h % 13);
  }

  void SetUp() override {
    Relation g("g", Schema({"H", "P"}));
    Relation w("w", Schema({"H", "W"}));
    for (int h = 0; h < kRows; ++h) {
      g.AddRow({Value(h), Value(h % 3)});
      w.AddRow({Value(h), Value(Weight(h))});
      sums_[h % 3] += Weight(h);
    }
    db_.PutRelation(std::move(g));
    db_.PutRelation(std::move(w));
    for (int p = 1; p < 3; ++p) {
      if (sums_[p] < sums_[low_]) low_ = p;
    }
  }

  Relation RunAt(double threshold, unsigned threads, bool spill) {
    Result<QueryFlock> flock = MakeFlock(
        kQuery, FilterCondition{FilterAgg::kSum, CompareOp::kGe, threshold, 1});
    EXPECT_TRUE(flock.ok()) << flock.status().ToString();
    EvalRun run = Evaluate(*flock, db_, threads, spill);
    EXPECT_TRUE(run.rows.ok()) << run.rows.status().ToString();
    if (spill) {
      EXPECT_GT(run.activations, 0u);
    }
    return run.rows.ok() ? *run.rows : Relation();
  }

  Database db_;
  double sums_[3] = {0, 0, 0};  // per group $p, summed in H order
  int low_ = 0;                 // the group with the smallest sum
};

TEST_F(FloatSumTest, GroupSumIsTheSerialLeftToRightSum) {
  // With the threshold at exactly the smallest group sum every group
  // passes; one ulp above it that group drops out. Both directions pin
  // the association bit for bit.
  const double above = std::nextafter(sums_[low_], INFINITY);
  for (int p = 0; p < 3; ++p) {
    if (p != low_) {
      ASSERT_GT(sums_[p], above);
    }
  }
  for (unsigned threads : kThreadCounts) {
    for (bool spill : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (spill ? " spilled" : ""));
      EXPECT_EQ(RunAt(sums_[low_], threads, spill).size(), 3u);
      Relation strict = RunAt(above, threads, spill);
      ASSERT_EQ(strict.size(), 2u);
      for (const Tuple& row : strict.rows()) EXPECT_NE(row[0], Value(low_));
    }
  }
}

TEST_F(FloatSumTest, SinkAggregatesEqualTheSerialKernel) {
  // The sink's SUM values themselves, in memory and spilled, against the
  // serial GroupAggregate over the same answer rows.
  Result<QueryFlock> flock = MakeFlock(kQuery, FilterCondition::MinSupport(1));
  ASSERT_TRUE(flock.ok());
  Result<Relation> bindings = EvaluateConjunctiveBindings(
      flock->query.disjuncts[0], PredicateResolver(db_), {"$p", "H", "W"});
  ASSERT_TRUE(bindings.ok()) << bindings.status().ToString();
  Relation oracle =
      GroupAggregate(*bindings, {"$p"}, AggKind::kSum, "W", "_agg");
  ASSERT_EQ(oracle.size(), 3u);
  for (int p = 0; p < 3; ++p) EXPECT_EQ(oracle.rows()[p][1], Value(sums_[p]));
  for (bool spill : {false, true}) {
    MemVfs vfs;
    SpillEnv env;
    env.vfs = &vfs;
    env.dir = "spill";
    env.activation = 0;
    QueryContext ctx;
    ctx.set_memory_budget(1ull << 30);
    ctx.set_spill_env(&env);
    SpillGroupSink sink(bindings->schema(), 1, AggKind::kSum, "W", "_agg",
                        nullptr, spill ? &env : nullptr, &ctx, nullptr);
    for (const Tuple& row : bindings->rows()) ASSERT_TRUE(sink.Push(row).ok());
    Result<Relation> grouped = sink.Finish();
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    EXPECT_EQ(sink.spilled(), spill);
    EXPECT_EQ(grouped->rows(), oracle.rows());
  }
}

}  // namespace
}  // namespace qf
