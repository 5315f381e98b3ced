// The one execution context (common/exec_context.h), checked at every
// entry point that takes it: a context cancelled before the call yields
// CANCELLED, a trace sink without metrics receives nothing, and with both
// set the spans are balanced per thread at every thread count. The two
// entry points that keep a bare governor (the naive oracle and maximal
// mining) get the cancellation check through their `ctx`.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "apriori/apriori.h"
#include "common/check.h"
#include "common/exec_context.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "flocks/eval.h"
#include "flocks/incremental_eval.h"
#include "flocks/naive_eval.h"
#include "mining/maximal.h"
#include "optimizer/bandit.h"
#include "optimizer/cost_model.h"
#include "optimizer/dynamic.h"
#include "optimizer/executor_support.h"
#include "optimizer/plan_search.h"
#include "plan/executor.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

// Shared read-only inputs, built once.
struct Inputs {
  Database db;
  QueryFlock flock;
  QueryPlan plan;
  std::optional<CostModel> model;
  BasketData baskets;
};

const Inputs& Data() {
  static const Inputs* inputs = [] {
    auto* in = new Inputs;
    BasketConfig config;
    config.n_baskets = 300;
    config.n_items = 30;
    config.avg_basket_size = 5;
    config.seed = 7;
    in->db.PutRelation(GenerateBaskets(config));
    Result<QueryFlock> flock = MakeFlock(
        "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
        FilterCondition::MinSupport(5));
    QF_CHECK(flock.ok());
    in->flock = *flock;
    in->model.emplace(in->db);
    Result<QueryPlan> plan = SearchPlanParameterSets(in->flock, *in->model);
    QF_CHECK(plan.ok());
    in->plan = *plan;
    Result<BasketData> baskets =
        BasketsFromRelation(in->db.Get("baskets"), "BID", "Item");
    QF_CHECK(baskets.ok());
    in->baskets = *baskets;
    return in;
  }();
  return *inputs;
}

// One entry point of the evaluation stack, run under a context.
struct EntryPoint {
  std::string name;
  std::function<Status(const ExecContext&)> run;
  // The innermost traced operator: its spans show the context reached
  // the bottom of the stack.
  std::string innermost = "scan";
};

Status RunArm(const char* mode, const ExecContext& exec) {
  Result<BanditArm> arm = ArmForMode(mode, DynamicKnobs{});
  if (!arm.ok()) return arm.status();
  ArmExecOptions options;
  static_cast<ExecContext&>(options) = exec;
  const Inputs& in = Data();
  return ExecuteArm(*arm, in.flock, in.db, [&in] { return &*in.model; },
                    options)
      .status();
}

std::vector<EntryPoint> EntryPoints() {
  std::vector<EntryPoint> out;
  out.push_back({"EvaluateFlock", [](const ExecContext& exec) {
                   FlockEvalOptions options;
                   static_cast<ExecContext&>(options) = exec;
                   return EvaluateFlock(Data().flock, Data().db, options)
                       .status();
                 }});
  out.push_back({"ExecutePlan", [](const ExecContext& exec) {
                   PlanExecOptions options;
                   static_cast<ExecContext&>(options) = exec;
                   return ExecutePlan(Data().plan, Data().flock, Data().db,
                                      options)
                       .status();
                 }});
  out.push_back({"DynamicEvaluate", [](const ExecContext& exec) {
                   DynamicOptions options;
                   static_cast<ExecContext&>(options) = exec;
                   return DynamicEvaluate(Data().flock, Data().db, options)
                       .status();
                 }});
  for (const char* mode : {"DIRECT", "REDUCED", "PLAN", "DYNAMIC"}) {
    out.push_back({std::string("ExecuteArm_") + mode,
                   [mode](const ExecContext& exec) {
                     return RunArm(mode, exec);
                   }});
  }
  out.push_back({"IncrementalBuild", [](const ExecContext& exec) -> Status {
                   IncrementalEvaluator evaluator;  // no state: builds
                   IncrementalEvalOptions options;
                   static_cast<ExecContext&>(options) = exec;
                   Relation result;
                   IncrementalRunInfo info;
                   if (Status s = evaluator.Run("f", Data().flock, Data().db,
                                                {}, options, &result, &info);
                       !s.ok()) {
                     return s;
                   }
                   if (!info.served || info.decision != "build") {
                     return InternalError("not built: " + info.decision);
                   }
                   return Status::Ok();
                 }});
  out.push_back({"AprioriFrequentItemsets", [](const ExecContext& exec) {
                   AprioriOptions options;
                   static_cast<ExecContext&>(options) = exec;
                   options.min_support = 5;
                   AprioriFrequentItemsets(Data().baskets, options);
                   // The miner returns a plain vector: a governed caller
                   // checks the context afterwards.
                   return options.Check();
                 },
                 "count_level"});
  return out;
}

const std::vector<EntryPoint>& Table() {
  static const std::vector<EntryPoint>* table =
      new std::vector<EntryPoint>(EntryPoints());
  return *table;
}

// Every begin span is closed by an end span of the same op and detail,
// innermost first, on the thread that opened it; `innermost` spans are
// among them.
void ExpectBalancedSpans(const std::vector<std::string>& lines,
                         const std::string& innermost) {
  static const std::regex kEvent(
      R"re(^\{"ev":"([BE])","op":"((?:[^"\\]|\\.)*)","detail":"((?:[^"\\]|\\.)*)".*"tid":"([0-9a-f]+)")re");
  std::map<std::string, std::vector<std::string>> open;  // tid -> stack
  std::size_t begins = 0;
  std::size_t innermost_begins = 0;
  for (const std::string& line : lines) {
    std::smatch m;
    ASSERT_TRUE(std::regex_search(line, m, kEvent)) << line;
    std::string span = m[2].str() + " " + m[3].str();
    std::vector<std::string>& stack = open[m[4].str()];
    if (m[1] == "B") {
      stack.push_back(span);
      ++begins;
      if (m[2] == innermost) ++innermost_begins;
    } else {
      ASSERT_FALSE(stack.empty()) << "end without begin: " << line;
      EXPECT_EQ(stack.back(), span) << line;
      stack.pop_back();
    }
  }
  EXPECT_GT(begins, 0u);
  EXPECT_GT(innermost_begins, 0u) << "no " << innermost << " span";
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << stack.size() << " spans left open on "
                               << tid;
  }
}

class ExecContextTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  const EntryPoint& entry() const { return Table()[GetParam()]; }
};

TEST_P(ExecContextTest, CancelledBeforeTheCallReturnsCancelled) {
  for (unsigned threads : {1u, 4u}) {
    QueryContext ctx;
    ctx.RequestCancel();
    Status s = entry().run({.threads = threads, .ctx = &ctx});
    EXPECT_EQ(s.code(), StatusCode::kCancelled)
        << "threads=" << threads << ": " << s.ToString();
  }
}

TEST_P(ExecContextTest, TraceWithoutMetricsEmitsNothing) {
  for (unsigned threads : {1u, 4u}) {
    MemoryTraceSink sink;
    Status s = entry().run({.threads = threads, .trace = &sink});
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(sink.event_count(), 0u) << "threads=" << threads;
  }
}

TEST_P(ExecContextTest, TraceWithMetricsIsBalanced) {
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    OpMetrics root;
    MemoryTraceSink sink;
    Status s =
        entry().run({.threads = threads, .metrics = &root, .trace = &sink});
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_FALSE(root.children.empty());
    ExpectBalancedSpans(sink.Lines(), entry().innermost);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, ExecContextTest,
    ::testing::Range<std::size_t>(0, Table().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return Table()[info.param].name;
    });

TEST(ExecContextHelpersTest, DeriveFromOneContext) {
  OpMetrics root;
  OpMetrics child;
  MemoryTraceSink sink;
  QueryContext ctx;
  ExecContext exec{.threads = 4, .metrics = &root, .trace = &sink,
                   .ctx = &ctx};
  ExecContext at = exec.At(&child);
  EXPECT_EQ(at.threads, 4u);
  EXPECT_EQ(at.metrics, &child);
  EXPECT_EQ(at.tracer(), &sink);
  EXPECT_EQ(at.ctx, &ctx);
  EXPECT_EQ(exec.At(nullptr).tracer(), nullptr);
  EXPECT_TRUE(exec.Check().ok());
  EXPECT_TRUE(ExecContext{}.Check().ok());
  ctx.RequestCancel();
  EXPECT_EQ(exec.Check().code(), StatusCode::kCancelled);
}

TEST(BareGovernorTest, NaiveEvaluateFlockHonoursCancellation) {
  QueryContext ctx;
  ctx.RequestCancel();
  NaiveEvalOptions options;
  options.ctx = &ctx;
  Result<Relation> r = NaiveEvaluateFlock(Data().flock, Data().db, options);
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();
}

TEST(BareGovernorTest, MaximalFrequentItemsetsHonoursCancellation) {
  QueryContext ctx;
  ctx.RequestCancel();
  MaximalItemsetsOptions options;
  options.min_support = 5;
  options.ctx = &ctx;
  Result<MaximalItemsetsResult> r =
      MaximalFrequentItemsets(Data().db, "baskets", options);
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();
}

}  // namespace
}  // namespace qf
