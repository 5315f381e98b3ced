// Grace-hash spilling (relational/spill.h): checksummed spill-file I/O
// (round trip, corruption, fault injection, orphan cleanup), the
// SpillGroupSink — in memory and spilled, under injected faults and
// crashes — against GroupAggregate∘Distinct, and an
// end-to-end flock evaluation where a budget that used to mean
// RESOURCE_EXHAUSTED now spills to the same answer at several thread
// counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "common/vfs.h"
#include "flocks/eval.h"
#include "flocks/flock.h"
#include "relational/ops.h"
#include "relational/relation.h"
#include "relational/spill.h"

namespace qf {
namespace {

// A small-fanout, small-block env so tiny test inputs still exercise the
// partition/merge machinery.
struct TestEnv {
  MemVfs vfs;
  SpillEnv env;
  TestEnv() {
    env.vfs = &vfs;
    env.dir = "spill";
    env.fanout = 4;
    env.block_bytes = 512;
  }
};

// ------------------------------------------------------------- file I/O

TEST(SpillFileTest, WriterReaderRoundTripInOrder) {
  TestEnv t;
  SpillWriter writer(t.env);
  std::vector<std::string> records;
  std::mt19937 rng(42);
  for (int i = 0; i < 500; ++i) {
    // Varying sizes, some empty, some spanning several blocks.
    std::size_t len = static_cast<std::size_t>(rng() % 900);
    std::string rec(len, static_cast<char>('a' + (i % 26)));
    rec += std::to_string(i);
    records.push_back(rec);
    ASSERT_TRUE(writer.Add(rec).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.records(), 500u);

  SpillReader reader(t.vfs, writer.path(), &t.env);
  std::string_view rec;
  std::size_t i = 0;
  while (reader.Next(&rec)) {
    ASSERT_LT(i, records.size());
    EXPECT_EQ(rec, records[i]);
    ++i;
  }
  ASSERT_TRUE(reader.status().ok()) << reader.status().ToString();
  EXPECT_EQ(i, records.size());
  EXPECT_GT(t.env.stats.bytes_written.load(), 0u);
  EXPECT_GT(t.env.stats.bytes_read.load(), 0u);
}

TEST(SpillFileTest, WriterDestructorRemovesFile) {
  TestEnv t;
  std::string path;
  {
    SpillWriter writer(t.env);
    ASSERT_TRUE(writer.Add("payload").ok());
    ASSERT_TRUE(writer.Finish().ok());
    path = writer.path();
    EXPECT_TRUE(t.vfs.Exists(path));
  }
  EXPECT_FALSE(t.vfs.Exists(path));
}

TEST(SpillFileTest, CorruptBlockIsTypedIoErrorNeverWrongData) {
  TestEnv t;
  SpillWriter writer(t.env);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer.Add("record-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  Result<std::string> bytes = t.vfs.ReadFile(writer.path());
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt[corrupt.size() / 2] ^= 0x01;
  Result<std::unique_ptr<WritableFile>> f = t.vfs.OpenTrunc(writer.path());
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(corrupt).ok());
  ASSERT_TRUE((*f)->Close().ok());

  SpillReader reader(t.vfs, writer.path(), &t.env);
  std::string_view rec;
  std::size_t good = 0;
  while (reader.Next(&rec)) {
    // Records before the damaged block must still be exact.
    EXPECT_EQ(rec, "record-" + std::to_string(good));
    ++good;
  }
  EXPECT_FALSE(reader.status().ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError)
      << reader.status().ToString();
  EXPECT_LT(good, 100u);
}

TEST(SpillFileTest, InjectedWriteFaultLatches) {
  MemVfs base;
  FaultVfs fault(base);
  SpillEnv env;
  env.vfs = &fault;
  env.dir = "spill";
  FaultPlan plan;
  plan.fail_at_op = 2;  // survives CreateDirs, dies soon after
  plan.fail_enospc = true;
  fault.set_plan(plan);
  SpillWriter writer(env);
  Status first;
  for (int i = 0; i < 10000 && first.ok(); ++i) {
    first = writer.Add(std::string(100, 'x'));
  }
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kIoError) << first.ToString();
  // Latched: later calls return the same failure, Finish included.
  EXPECT_FALSE(writer.Add("more").ok());
  EXPECT_FALSE(writer.Finish().ok());
}

TEST(SpillFileTest, RemoveSpillFilesSweepsOnlySpillFiles) {
  MemVfs vfs;
  ASSERT_TRUE(vfs.CreateDirs("dir").ok());
  for (const char* name : {"qfspill-1", "qfspill-2", "keep.dat"}) {
    Result<std::unique_ptr<WritableFile>> f =
        vfs.OpenTrunc(std::string("dir/") + name);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("x").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  Result<std::size_t> removed = RemoveSpillFiles(vfs, "dir");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2u);
  EXPECT_FALSE(vfs.Exists("dir/qfspill-1"));
  EXPECT_TRUE(vfs.Exists("dir/keep.dat"));
  // Missing directory reads as zero orphans.
  Result<std::size_t> none = RemoveSpillFiles(vfs, "no-such-dir");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
}

// ---------------------------------------------------- spilling sink

// Random answer rows (group key K, head H, weight V) with duplicates.
Relation MakeAnswerRows(int rows, unsigned seed) {
  Relation r("pushed", Schema({"K", "H", "V"}));
  std::mt19937 rng(seed);
  for (int i = 0; i < rows; ++i) {
    r.AddRow({Value("g" + std::to_string(rng() % 13)),
              Value(static_cast<int>(rng() % 40)),
              Value(static_cast<double>(rng() % 25) / 4.0)});
  }
  return r;
}

// A budget the sink's first charge point (kPollStride distinct rows)
// overshoots, so it spills there; each of the four partitions still fits.
constexpr std::uint64_t kSpillBudget = 64 * 1024;

// Pushes `rows` through a sink that must spill, then drains it.
Result<Relation> SpilledGroup(const Relation& rows, AggKind kind,
                              SpillEnv& env, std::uint64_t* answer_rows) {
  QueryContext ctx;
  ctx.set_memory_budget(kSpillBudget);
  ctx.set_spill_env(&env);
  SpillGroupSink sink(rows.schema(), /*key_columns=*/1, kind, "V", "_agg",
                      nullptr, &env, &ctx, nullptr);
  for (const Tuple& row : rows.rows()) {
    if (Status s = sink.Push(row); !s.ok()) return s;
  }
  Result<Relation> out = sink.Finish();
  if (answer_rows != nullptr) *answer_rows = sink.answer_rows();
  return out;
}

TEST(SpillKernelTest, GroupAggregateMatchesSerialForEveryAggKind) {
  // A spilled sink groups each partition on its own; every group is whole
  // in one partition and sees its rows in push order, so even the float
  // SUM matches the serial kernel over the distinct rows bit for bit.
  Relation pushed = MakeAnswerRows(3000, 4);
  Relation distinct = Distinct(pushed);
  ASSERT_GT(distinct.size(), QueryContext::kPollStride);
  for (AggKind kind :
       {AggKind::kCount, AggKind::kSum, AggKind::kMin, AggKind::kMax}) {
    TestEnv t;
    std::uint64_t answer_rows = 0;
    Result<Relation> spilled = SpilledGroup(pushed, kind, t.env, &answer_rows);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_GT(t.env.stats.activations.load(), 0u);
    Relation oracle = GroupAggregate(distinct, {"K"}, kind, "V", "_agg");
    EXPECT_EQ(spilled->schema().columns(), oracle.schema().columns());
    EXPECT_EQ(spilled->rows(), oracle.rows())
        << "kind " << static_cast<int>(kind);
    EXPECT_EQ(answer_rows, distinct.size());
  }
}

TEST(SpillKernelTest, FaultSweepNeverYieldsWrongRows) {
  // A one-shot injected I/O failure at every mutating operation in turn:
  // the spilling sink either fails with the typed error or — when the
  // fault landed on an op it never reached — produces the exact oracle.
  Relation pushed = MakeAnswerRows(3000, 5);
  Relation oracle =
      GroupAggregate(Distinct(pushed), {"K"}, AggKind::kSum, "V", "_agg");
  auto fault_env = [](FaultVfs& fault) {
    auto env = std::make_unique<SpillEnv>();
    env->vfs = &fault;
    env->dir = "spill";
    env->fanout = 4;
    env->block_bytes = 512;
    return env;
  };
  std::uint64_t total_ops = 0;
  {
    MemVfs base;
    FaultVfs fault(base);
    auto env = fault_env(fault);
    ASSERT_TRUE(SpilledGroup(pushed, AggKind::kSum, *env, nullptr).ok());
    total_ops = fault.op_count();
  }
  ASSERT_GT(total_ops, 0u);
  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    MemVfs base;
    FaultVfs fault(base);
    auto env = fault_env(fault);
    FaultPlan plan;
    plan.fail_at_op = k;
    fault.set_plan(plan);
    Result<Relation> r = SpilledGroup(pushed, AggKind::kSum, *env, nullptr);
    if (r.ok()) {
      EXPECT_EQ(r->rows(), oracle.rows()) << "fault op " << k;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kIoError)
          << "fault op " << k << ": " << r.status().ToString();
    }
  }
}

TEST(SpillKernelTest, CrashMidSpillIsTypedErrorAndLeavesOnlyOrphans) {
  Relation pushed = MakeAnswerRows(3000, 7);
  for (std::uint64_t crash_at : {3u, 9u, 20u}) {
    MemVfs base;
    FaultVfs fault(base);
    SpillEnv env;
    env.vfs = &fault;
    env.dir = "spill";
    env.fanout = 4;
    env.block_bytes = 512;
    FaultPlan plan;
    plan.crash_at_op = crash_at;
    plan.torn_write_bytes = 7;
    fault.set_plan(plan);
    Result<Relation> r = SpilledGroup(pushed, AggKind::kCount, env, nullptr);
    EXPECT_FALSE(r.ok()) << "crash op " << crash_at;
    // Whatever the crash stranded is exactly what the orphan sweep
    // matches — the next OPEN would clean it.
    base.Crash();
    Result<std::vector<std::string>> left = base.ListDir("spill");
    ASSERT_TRUE(left.ok());
    for (const std::string& name : *left) {
      EXPECT_EQ(name.rfind(kSpillFilePrefix, 0), 0u) << name;
    }
    ASSERT_TRUE(RemoveSpillFiles(base, "spill").ok());
    Result<std::vector<std::string>> after = base.ListDir("spill");
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after->empty());
  }
}

// ------------------------------------------------------- group sink

TEST(SpillGroupSinkTest, MatchesGroupAggregateOverDistinctRows) {
  for (AggKind kind :
       {AggKind::kCount, AggKind::kSum, AggKind::kMin, AggKind::kMax}) {
    TestEnv t;
    Schema schema({"K", "H", "V"});
    SpillGroupSink sink(schema, /*key_columns=*/1, kind, "V", "_agg",
                        nullptr, &t.env, nullptr, nullptr);
    Relation pushed("pushed", schema);
    std::mt19937 rng(9);
    for (int i = 0; i < 800; ++i) {
      Tuple row{Value("g" + std::to_string(rng() % 13)),
                Value(static_cast<int>(rng() % 40)),
                Value(static_cast<int>(rng() % 25))};
      pushed.Add(row);
      ASSERT_TRUE(sink.Push(row).ok());
    }
    Result<Relation> grouped = sink.Finish();
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    Relation distinct = Distinct(pushed);
    Relation oracle = GroupAggregate(distinct, {"K"}, kind, "V", "_agg");
    EXPECT_EQ(grouped->schema().columns(), oracle.schema().columns());
    EXPECT_EQ(grouped->rows(), oracle.rows())
        << "kind " << static_cast<int>(kind);
    EXPECT_EQ(sink.answer_rows(), distinct.size());
  }
}

TEST(SpillGroupSinkTest, RowCheckErrorAbortsFinish) {
  TestEnv t;
  Schema schema({"K", "V"});
  auto check = [](std::span<const Value> row) {
    if (row[1] == Value(-1)) {
      return InvalidArgumentError("negative weight");
    }
    return Status::Ok();
  };
  SpillGroupSink sink(schema, 1, AggKind::kSum, "V", "_agg", check, &t.env,
                      nullptr, nullptr);
  ASSERT_TRUE(sink.Push({Value("a"), Value(3)}).ok());
  ASSERT_TRUE(sink.Push({Value("b"), Value(-1)}).ok());
  Result<Relation> grouped = sink.Finish();
  ASSERT_FALSE(grouped.ok());
  EXPECT_NE(grouped.status().ToString().find("negative weight"),
            std::string::npos);
}

TEST(SpillGroupSinkTest, RowCheckErrorAbortsSpilledFinish) {
  // The failing row arrives after the sink spilled: it is only checked
  // when Finish drains its partition, and that error is Finish's result.
  TestEnv t;
  QueryContext ctx;
  ctx.set_memory_budget(kSpillBudget);
  ctx.set_spill_env(&t.env);
  Relation pushed = MakeAnswerRows(3000, 11);
  auto check = [](std::span<const Value> row) {
    if (row[2].AsNumber() < 0) return InvalidArgumentError("negative weight");
    return Status::Ok();
  };
  SpillGroupSink sink(pushed.schema(), /*key_columns=*/1, AggKind::kSum, "V",
                      "_agg", check, &t.env, &ctx, nullptr);
  for (const Tuple& row : pushed.rows()) ASSERT_TRUE(sink.Push(row).ok());
  ASSERT_TRUE(sink.spilled());
  EXPECT_GT(t.env.stats.activations.load(), 0u);
  ASSERT_TRUE(sink.Push({Value("g1"), Value(7), Value(-1.0)}).ok());
  Result<Relation> grouped = sink.Finish();
  ASSERT_FALSE(grouped.ok());
  EXPECT_EQ(grouped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(grouped.status().ToString().find("negative weight"),
            std::string::npos);
}

// ------------------------------------- end-to-end flock differential

Relation MakeBaskets(int n_baskets, int n_items, unsigned seed) {
  Relation r("baskets", Schema({"BID", "Item"}));
  std::mt19937 rng(seed);
  for (int b = 0; b < n_baskets; ++b) {
    int size = 3 + static_cast<int>(rng() % 5);
    for (int i = 0; i < size; ++i) {
      r.AddRow({Value(b),
                Value("i" + std::to_string(rng() %
                                           static_cast<unsigned>(n_items)))});
    }
  }
  return Distinct(r);
}

// The tentpole's acceptance shape in miniature: a budget under the
// statement's in-memory peak that used to be a hard RESOURCE_EXHAUSTED
// either spills to the bit-identical answer or still fails typed — and at
// least one budget level must actually take the spill path and succeed,
// at every thread count.
TEST(SpillFlockTest, BudgetedEvaluationSpillsToIdenticalAnswer) {
  Database db;
  db.PutRelation(MakeBaskets(500, 25, 11));
  Result<QueryFlock> flock = MakeFlock(
      "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
      FilterCondition::MinSupport(10));
  ASSERT_TRUE(flock.ok()) << flock.status().ToString();

  // Unbudgeted baseline + its accounted peak.
  QueryContext base_ctx;
  FlockEvalOptions base_opts;
  base_opts.threads = 1;
  base_opts.ctx = &base_ctx;
  Result<Relation> baseline = EvaluateFlock(*flock, db, base_opts);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::uint64_t peak = base_ctx.peak_bytes();
  ASSERT_GT(peak, 0u);

  bool spilled_and_served = false;
  for (unsigned threads : {0u, 1u, 4u}) {
    for (std::uint64_t budget :
         {peak, peak - peak / 8, peak / 2, peak / 8}) {
      MemVfs vfs;
      SpillEnv env;
      env.vfs = &vfs;
      env.dir = "spill";
      env.fanout = 8;
      env.block_bytes = 4096;
      QueryContext ctx;
      ctx.set_memory_budget(budget);
      ctx.set_spill_env(&env);
      FlockEvalOptions opts;
      opts.threads = threads;
      opts.ctx = &ctx;
      Result<Relation> r = EvaluateFlock(*flock, db, opts);
      if (r.ok()) {
        EXPECT_EQ(r->rows(), baseline->rows())
            << "threads " << threads << " budget " << budget;
        if (env.stats.activations.load() > 0) spilled_and_served = true;
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
            << r.status().ToString();
      }
      // Spill files never outlive the statement.
      Result<std::vector<std::string>> left = vfs.ListDir("spill");
      ASSERT_TRUE(left.ok());
      EXPECT_TRUE(left->empty());
    }
  }
  EXPECT_TRUE(spilled_and_served);
}

}  // namespace
}  // namespace qf
