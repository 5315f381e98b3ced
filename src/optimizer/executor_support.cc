#include "optimizer/executor_support.h"

#include <memory>
#include <optional>
#include <utility>

#include "optimizer/join_order.h"
#include "optimizer/plan_search.h"
#include "optimizer/stats.h"

namespace qf {

StepOrderChooser CostBasedOrderChooser(CostModelConfig config) {
  // Base statistics cached across steps; shared_ptr keeps the chooser
  // copyable as std::function requires.
  auto cache = std::make_shared<std::optional<DatabaseStats>>();
  return [cache, config](const UnionQuery& step_query, const Database& db,
                         const std::map<std::string, const Relation*>& extra)
             -> FlockEvalOptions {
    if (!cache->has_value()) *cache = DatabaseStats::Compute(db);
    DatabaseStats stats = **cache;
    for (const auto& [name, rel] : extra) {
      stats.Put(name, ComputeStats(*rel));
    }
    CostModel model(std::move(stats), config);
    FlockEvalOptions options;
    for (const ConjunctiveQuery& cq : step_query.disjuncts) {
      CqEvalOptions cq_options;
      cq_options.join_order = ChooseJoinOrder(cq, model);
      options.per_disjunct.push_back(std::move(cq_options));
    }
    return options;
  };
}

Result<Relation> ExecutePlanOptimized(const QueryPlan& plan,
                                      const QueryFlock& flock,
                                      const Database& db,
                                      PlanExecInfo* info,
                                      const ExecContext& exec) {
  PlanExecOptions options;
  static_cast<ExecContext&>(options) = exec;
  options.order_chooser = CostBasedOrderChooser();
  return ExecutePlan(plan, flock, db, options, info);
}

Result<Relation> ExecuteArm(const BanditArm& arm, const QueryFlock& flock,
                            const Database& db, const CostModelSource& model,
                            const ArmExecOptions& options) {
  OpMetrics* metrics = options.metrics;
  // Step children of a plan run start here (a caller may already have
  // hung nodes under `metrics`, e.g. a declined incremental attempt).
  const std::size_t first_child =
      metrics != nullptr ? metrics->children.size() : 0;
  std::optional<QueryPlan> plan;
  Result<Relation> result = Relation();
  switch (arm.kind) {
    case BanditArm::Kind::kPlan: {
      Result<const CostModel*> m = model();
      if (!m.ok()) return m.status();
      Result<QueryPlan> searched = SearchPlanParameterSets(flock, **m);
      if (!searched.ok()) return searched.status();
      plan = std::move(*searched);
      PlanExecOptions plan_options;
      static_cast<ExecContext&>(plan_options) = options;
      plan_options.order_chooser = CostBasedOrderChooser();
      plan_options.extra_predicates = options.extra_predicates;
      result = ExecutePlan(*plan, flock, db, plan_options);
      break;
    }
    case BanditArm::Kind::kDirect: {
      FlockEvalOptions eval_options;
      static_cast<ExecContext&>(eval_options) = options;
      for (std::size_t d = 0; d < flock.query.disjuncts.size(); ++d) {
        CqEvalOptions cq_options;
        if (d < arm.orders.size()) cq_options.join_order = arm.orders[d];
        cq_options.full_reducer = arm.full_reducer;
        eval_options.per_disjunct.push_back(std::move(cq_options));
      }
      result = EvaluateFlock(flock, db, eval_options, options.extra_predicates);
      break;
    }
    case BanditArm::Kind::kDynamic: {
      DynamicOptions dyn_options;
      static_cast<ExecContext&>(dyn_options) = options;
      if (!arm.orders.empty()) dyn_options.join_order = arm.orders.front();
      dyn_options.aggressiveness = arm.knobs.aggressiveness;
      dyn_options.improvement_factor = arm.knobs.improvement_factor;
      dyn_options.min_removed_fraction = arm.knobs.min_removed_fraction;
      result = DynamicEvaluate(flock, db, dyn_options, options.dynamic_log,
                               options.extra_predicates);
      break;
    }
  }
  if (!result.ok() || metrics == nullptr || !flock.filter.IsSupportStyle()) {
    return result;
  }
  // Est-vs-actual annotation, identical for every arm. Only support-style
  // filters have a calibrated survivor model.
  Result<const CostModel*> m = model();
  if (!m.ok()) return m.status();
  const double threshold = flock.filter.threshold;
  metrics->est_rows = (*m)->EstimateSurvivors(flock.query, threshold);
  if (plan.has_value()) {
    // ExecutePlan pre-allocates one step child per step, in plan order.
    for (std::size_t k = 0; k < plan->steps.size() &&
                            first_child + k < metrics->children.size();
         ++k) {
      metrics->children[first_child + k]->est_rows =
          (*m)->EstimateSurvivors(plan->steps[k].query, threshold);
    }
  }
  return result;
}

}  // namespace qf
