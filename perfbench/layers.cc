// Library-level layer probe of a traced run: each public layer call is
// wrapped in a span, and its OpMetrics tree / info struct is turned into
// the per-layer metrics listed in BENCHMARK.json.
#include <functional>

#include "bench.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "flocks/eval.h"
#include "optimizer/cost_model.h"
#include "optimizer/dynamic.h"
#include "optimizer/executor_support.h"
#include "optimizer/plan_search.h"
#include "plan/executor.h"

namespace qfbench {
namespace {

// Every per-layer metric with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const auto* units = new std::vector<std::pair<std::string, std::string>>{
      {"workload.gen_ms", "ms"},
      {"shell.overhead_ms", "ms"},
      {"flocks.direct_ms", "ms"},
      {"flocks.peak_rows", "rows"},
      {"flocks.answer_rows", "rows"},
      {"apriori.pairs_ms", "ms"},
      {"flocks.apriori_gap", "x"},
      {"relational.join_ms", "ms"},
      {"relational.select_ms", "ms"},
      {"relational.project_ms", "ms"},
      {"relational.group_by_ms", "ms"},
      {"relational.rows_materialized", "rows"},
      {"relational.probes", "count"},
      {"relational.peak_bytes", "bytes"},
      {"relational.spill_activations", "count/stmt"},
      {"relational.spill_partitions", "count/stmt"},
      {"relational.spill_bytes_written", "bytes/stmt"},
      {"relational.spill_bytes_read", "bytes/stmt"},
      {"plan.exec_ms", "ms"},
      {"plan.peak_rows", "rows"},
      {"optimizer.search_ms", "ms"},
      {"optimizer.qerror", "x"},
      {"optimizer.dynamic_ms", "ms"},
      {"optimizer.dynamic_decide_ms", "ms"},
      {"optimizer.dynamic_filters", "count"},
      {"thread_pool.cpu_per_wall", "x"},
      {"thread_pool.speedup", "x"},
      {"storage.open_ms", "ms"},
      {"storage.pool_hit_rate", "ratio"},
      {"storage.pool_misses", "count"},
      {"storage.pool_evictions", "count"},
      {"storage.wal_sync_ms", "ms"},
      {"storage.fsyncs_per_append", "count/append"},
      {"storage.wal_bytes_per_user_byte", "x"},
      {"mining.delta_ms", "ms"},
      {"mining.delta_frac", "ratio"},
      {"mining.state_bytes", "bytes"},
      {"network.overhead_ms", "ms"},
      {"network.shed", "count"},
      {"network.replayed", "count"},
      {"bench.untraced_stmts_per_s", "1/s"},
      {"bench.traced_stmts_per_s", "1/s"},
      {"bench.trace_overhead", "ratio"},
  };
  return *units;
}

const std::string& UnitOf(const std::string& name) {
  for (const auto& [metric, unit] : LayerMetricUnits()) {
    if (metric == name) return unit;
  }
  QF_CHECK_MSG(false, ("unknown layer metric " + name).c_str());
  static const std::string none;
  return none;
}

// Self time (wall minus children, clamped at zero) and leaf counters of
// an OpMetrics tree, summed per relational operator category.
struct TreeTotals {
  double join_ms = 0, select_ms = 0, project_ms = 0, group_by_ms = 0;
  double rows = 0, probes = 0;
};

void Accumulate(const qf::OpMetrics& node, TreeTotals* t) {
  std::uint64_t child_ns = 0;
  for (const auto& child : node.children) {
    child_ns += child->wall_ns;
    Accumulate(*child, t);
  }
  double self_ms =
      node.wall_ns > child_ns ? static_cast<double>(node.wall_ns - child_ns) / 1e6
                              : 0.0;
  if (node.op.find("join") != std::string::npos) t->join_ms += self_ms;
  if (node.op == "select") t->select_ms += self_ms;
  if (node.op == "project") t->project_ms += self_ms;
  if (node.op == "group_by") t->group_by_ms += self_ms;
  if (node.children.empty()) {
    t->rows += static_cast<double>(node.rows_out);
    t->probes += static_cast<double>(node.tuples_probed);
  }
}

// The accounting context a probe call runs under; its peak is the
// governor peak reported as relational.peak_bytes.
struct Governor {
  qf::QueryContext ctx;
};

double TimesMedian(int reps, const std::function<double()>& once) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(once());
  return Median(ms);
}

}  // namespace

void AddLayer(Outcome* out, const std::string& name, double value) {
  out->Add(name, UnitOf(name), value);
}

void ProbeLayers(const ProbeInputs& probe, Tracer& tracer, Outcome* out) {
  const qf::QueryFlock flock = PairFlock(probe.support);
  const qf::Database& db = *probe.db;
  auto check = [&](const qf::Result<qf::Relation>& r, const char* what) {
    ++out->tally.attempted;
    if (!r.ok()) {
      out->tally.Fail(std::string(what) + ": " + r.status().ToString());
    } else if (probe.oracle != nullptr && PairsOf(*r) != *probe.oracle) {
      ++out->tally.wrong;
      out->tally.Fail(std::string(what) + ": answer differs from the oracle");
    }
  };

  double apriori_ms = TimesMedian(5, [&] {
    Span span(tracer, "apriori.AprioriFrequentPairs");
    auto pairs = qf::AprioriFrequentPairs(*probe.baskets, probe.support);
    double ms = span.Stop();
    QF_CHECK(!pairs.empty());
    return ms;
  });

  // EvaluateFlock at THREADS 1 (as the workloads run) and at nproc.
  qf::OpMetrics direct_tree("flock");
  qf::FlockEvalInfo direct_info;
  std::uint64_t direct_peak = 0;
  // Timed repetitions run without a metrics tree, as a plain RUN does;
  // `keep` makes one extra instrumented run for the tree and counters.
  auto direct_at = [&](unsigned threads, bool keep) {
    Governor gov;
    qf::OpMetrics tree("flock");
    qf::FlockEvalOptions options;
    options.threads = threads;
    options.metrics = keep ? &tree : nullptr;
    options.ctx = &gov.ctx;
    qf::FlockEvalInfo info;
    Span span(tracer, "flocks.EvaluateFlock");
    auto result = qf::EvaluateFlock(flock, db, options, nullptr, &info);
    double ms = span.Stop();
    check(result, "EvaluateFlock");
    if (keep) {
      direct_tree = std::move(tree);
      direct_info = info;
      direct_peak = gov.ctx.peak_bytes();
    }
    return ms;
  };
  // Each repetition is paired with a RUN DIRECT through the shell, in
  // alternating order, so host drift and order effects cancel out of
  // their difference.
  std::vector<double> direct_reps, shell_minus_library;
  for (int i = 0; i < 4; ++i) {
    auto shell_run = [&] {
      return ShellRun(*probe.shell, "DIRECT", *probe.oracle, false, 0, tracer,
                      &out->tally);
    };
    double shell_ms = i % 2 == 0 ? shell_run() : 0;
    double library_ms = direct_at(1, false);
    if (i % 2 == 1) shell_ms = shell_run();
    direct_reps.push_back(library_ms);
    if (shell_ms >= 0) shell_minus_library.push_back(shell_ms - library_ms);
  }
  const double direct_ms = Median(direct_reps);
  double nproc_ms = TimesMedian(3, [&] { return direct_at(probe.nproc, false); });
  direct_at(1, true);
  tracer.Attach("flocks.EvaluateFlock", direct_tree.ToJson());

  // Plan search and execution, as RUN ... PLAN does them.
  qf::CostModel model(db);
  qf::QueryPlan plan;
  double search_ms = TimesMedian(5, [&] {
    Span span(tracer, "optimizer.SearchPlanParameterSets");
    auto searched = qf::SearchPlanParameterSets(flock, model);
    double ms = span.Stop();
    QF_CHECK_MSG(searched.ok(), searched.status().ToString().c_str());
    plan = std::move(searched).value();
    return ms;
  });
  qf::OpMetrics plan_tree("plan");
  qf::PlanExecInfo plan_info;
  std::uint64_t plan_peak = 0;
  double plan_ms = 0;
  std::size_t actual = 0;
  {
    Governor gov;
    qf::PlanExecOptions options;
    options.order_chooser = qf::CostBasedOrderChooser();
    options.metrics = &plan_tree;
    options.ctx = &gov.ctx;
    Span span(tracer, "plan.ExecutePlan");
    auto result = qf::ExecutePlan(plan, flock, db, options, &plan_info);
    plan_ms = span.Stop();
    check(result, "ExecutePlan");
    if (result.ok()) actual = result->size();
    plan_peak = gov.ctx.peak_bytes();
  }
  tracer.Attach("plan.ExecutePlan", plan_tree.ToJson());
  double est = 0;
  for (const qf::ConjunctiveQuery& cq : flock.query.disjuncts) {
    est += model.EstimateFilter(cq, flock.filter.threshold).survivors;
  }
  // q-error with both cardinalities floored at one row.
  double e = std::max(est, 1.0), a = std::max(static_cast<double>(actual), 1.0);
  double qerror = std::max(e / a, a / e);

  // Dynamic filter selection, as RUN ... DYNAMIC does it.
  qf::DynamicLog log;
  double dynamic_ms = 0;
  {
    Governor gov;
    qf::OpMetrics tree("dynamic");
    qf::DynamicOptions options;
    options.metrics = &tree;
    options.ctx = &gov.ctx;
    Span span(tracer, "optimizer.DynamicEvaluate");
    auto result = qf::DynamicEvaluate(flock, db, options, &log);
    dynamic_ms = span.Stop();
    check(result, "DynamicEvaluate");
    tracer.Attach("optimizer.DynamicEvaluate", tree.ToJson());
  }
  double decide_ms = 0;
  for (const qf::DynamicDecision& d : log.decisions) {
    decide_ms += static_cast<double>(d.wall_ns) / 1e6;
  }

  TreeTotals totals;
  Accumulate(direct_tree, &totals);
  Accumulate(plan_tree, &totals);

  AddLayer(out, "shell.overhead_ms", Median(shell_minus_library));
  AddLayer(out, "flocks.direct_ms", direct_ms);
  AddLayer(out, "flocks.peak_rows", static_cast<double>(direct_info.peak_rows));
  AddLayer(out, "flocks.answer_rows", static_cast<double>(direct_info.answer_rows));
  AddLayer(out, "apriori.pairs_ms", apriori_ms);
  AddLayer(out, "flocks.apriori_gap", direct_ms / apriori_ms);
  AddLayer(out, "relational.join_ms", totals.join_ms);
  AddLayer(out, "relational.select_ms", totals.select_ms);
  AddLayer(out, "relational.project_ms", totals.project_ms);
  AddLayer(out, "relational.group_by_ms", totals.group_by_ms);
  AddLayer(out, "relational.rows_materialized", totals.rows);
  AddLayer(out, "relational.probes", totals.probes);
  AddLayer(out, "relational.peak_bytes",
           static_cast<double>(std::max(direct_peak, plan_peak)));
  AddLayer(out, "plan.exec_ms", plan_ms);
  AddLayer(out, "plan.peak_rows", static_cast<double>(plan_info.total_peak_rows));
  AddLayer(out, "optimizer.search_ms", search_ms);
  AddLayer(out, "optimizer.qerror", qerror);
  AddLayer(out, "optimizer.dynamic_ms", dynamic_ms);
  AddLayer(out, "optimizer.dynamic_decide_ms", decide_ms);
  AddLayer(out, "optimizer.dynamic_filters",
           static_cast<double>(log.filters_applied));
  AddLayer(out, "thread_pool.speedup", direct_ms / nproc_ms);
  out->provenance["probe_apriori_gap_bases_ms"] =
      "{\"flocks.direct_ms\":" + std::to_string(direct_ms) +
      ",\"apriori.pairs_ms\":" + std::to_string(apriori_ms) + "}";
}

void FillIdleLayers(Outcome* out) {
  std::set<std::string> have;
  for (const Metric& m : out->metrics) have.insert(m.name);
  for (const auto& [name, unit] : LayerMetricUnits()) {
    if (!have.contains(name)) out->Add(name, unit, 0.0);
  }
}

}  // namespace qfbench
