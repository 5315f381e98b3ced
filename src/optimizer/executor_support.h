// Glue between the plan executor and the cost-based optimizer: a
// StepOrderChooser that orders each step's joins with the Selinger DP of
// join_order.h, using exact statistics for the relations earlier steps
// materialized (the executor hands them over at run time, so the ordering
// of later steps benefits from the true prefilter selectivities — the
// cheap half of the paper's §4.4 observation that sizes are best known
// once seen).
#ifndef QF_OPTIMIZER_EXECUTOR_SUPPORT_H_
#define QF_OPTIMIZER_EXECUTOR_SUPPORT_H_

#include <functional>
#include <map>
#include <string>

#include "optimizer/bandit.h"
#include "optimizer/cost_model.h"
#include "optimizer/dynamic.h"
#include "plan/executor.h"

namespace qf {

// Returns a chooser for ExecutePlan's options.order_chooser. Base-relation
// statistics are computed once, lazily, on first use; statistics for
// materialized step relations are computed per call (they are small).
StepOrderChooser CostBasedOrderChooser(CostModelConfig config = {});

// Convenience wrapper: ExecutePlan with cost-based join ordering, under
// `exec` (any thread count yields the same result).
Result<Relation> ExecutePlanOptimized(const QueryPlan& plan,
                                      const QueryFlock& flock,
                                      const Database& db,
                                      PlanExecInfo* info = nullptr,
                                      const ExecContext& exec = {});

// Yields the cost model on demand. ExecuteArm calls it only when the arm
// needs one — kPlan's plan search, or estimate annotations while metrics
// are collected — so a caller whose model is expensive (the shell
// computes statistics lazily) pays nothing for the other runs.
using CostModelSource = std::function<Result<const CostModel*>()>;

// The arm's evaluator runs under the context (common/exec_context.h) and
// builds its operator tree under `metrics`; for support-style filters
// the node also gets the model's survivor estimate, and each kPlan step
// child its step's estimate.
struct ArmExecOptions : ExecContext {
  // Intermediate-predicate overlays (materialized DEFINE views).
  const std::map<std::string, const Relation*>* extra_predicates = nullptr;
  // Receives the §4.4 decision log of kDynamic arms.
  DynamicLog* dynamic_log = nullptr;
};

// The one executor for BanditArm — explicit RUN modes (fixed arms),
// learned arms, tests and benches all run through it. kPlan = §4.3 plan
// search + ExecutePlan with cost-based step ordering, kDirect =
// EvaluateFlock under the arm's join orders (and full reducer), kDynamic
// = §4.4 DynamicEvaluate under the arm's knobs and orders[0]. The result
// is identical for every arm and thread count.
Result<Relation> ExecuteArm(const BanditArm& arm, const QueryFlock& flock,
                            const Database& db, const CostModelSource& model,
                            const ArmExecOptions& options = {});

}  // namespace qf

#endif  // QF_OPTIMIZER_EXECUTOR_SUPPORT_H_
