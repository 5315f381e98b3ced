#include "flocks/eval.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "relational/ops.h"
#include "relational/spill.h"

namespace qf {

std::vector<std::string> FlockParameterColumns(const QueryFlock& flock) {
  std::vector<std::string> out;
  for (const std::string& p : flock.ParameterNames()) out.push_back("$" + p);
  return out;
}

Result<Relation> EvaluateFlock(
    const QueryFlock& flock, const Database& db,
    const FlockEvalOptions& options,
    const std::map<std::string, const Relation*>* extra,
    FlockEvalInfo* info) {
  if (!flock.filter.IsMonotone()) {
    return InvalidArgumentError(
        "the direct evaluator requires a monotone filter; use "
        "NaiveEvaluateFlock for arbitrary filters");
  }
  if (Status s = flock.Validate(); !s.ok()) return s;

  std::vector<std::string> param_columns = FlockParameterColumns(flock);
  std::size_t head_arity = flock.query.head_arity();

  // Canonical head column names, so disjuncts with differently named head
  // variables (Fig. 4) union cleanly.
  std::vector<std::string> canonical_heads;
  for (std::size_t i = 0; i < head_arity; ++i) {
    canonical_heads.push_back("_h" + std::to_string(i));
  }
  std::vector<std::string> answer_columns = param_columns;
  answer_columns.insert(answer_columns.end(), canonical_heads.begin(),
                        canonical_heads.end());

  PredicateResolver resolver =
      extra != nullptr ? PredicateResolver(db, *extra)
                       : PredicateResolver(db);

  // Observability: one pre-allocated "disjunct" child per disjunct, so
  // the concurrent evaluations below write disjoint subtrees (the
  // children vector is never resized during the fan-out).
  OpMetrics* m = options.metrics;
  TraceSink* tr = options.tracer();
  if (m != nullptr && m->op.empty()) m->op = "flock";
  QueryContext* ctx = options.ctx;

  const FilterCondition& filter = flock.filter;
  AggKind agg_kind =
      filter.agg == FilterAgg::kCount
          ? AggKind::kCount
          : (filter.agg == FilterAgg::kSum
                 ? AggKind::kSum
                 : (filter.agg == FilterAgg::kMin ? AggKind::kMin
                                                  : AggKind::kMax));
  std::string agg_column = filter.agg == FilterAgg::kCount
                               ? std::string()
                               : canonical_heads[filter.agg_head_index];
  std::string agg_detail;
  switch (agg_kind) {
    case AggKind::kCount: agg_detail = "COUNT"; break;
    case AggKind::kSum: agg_detail = "SUM(" + agg_column + ")"; break;
    case AggKind::kMin: agg_detail = "MIN(" + agg_column + ")"; break;
    case AggKind::kMax: agg_detail = "MAX(" + agg_column + ")"; break;
  }

  // Every answer row goes through one GROUP BY + FILTER sink, in memory
  // until the budget asks it to spill (DESIGN.md §14). It dedups the
  // answer rows, so it also stands in for the union of the disjuncts.
  std::function<Status(const Tuple&)> row_check;
  if (filter.agg == FilterAgg::kSum && options.require_nonnegative_sum) {
    std::size_t agg_idx = param_columns.size() + filter.agg_head_index;
    row_check = [agg_idx](const Tuple& t) -> Status {
      if (!t[agg_idx].IsNumeric() || t[agg_idx].AsNumber() < 0) {
        return FailedPreconditionError(
            "SUM filter saw a negative or non-numeric weight; monotone "
            "pruning would be unsound (set require_nonnegative_sum=false "
            "to override)");
      }
      return Status::Ok();
    };
  }
  SpillGroupSink sink(Schema(answer_columns), param_columns.size(), agg_kind,
                      agg_column, "_agg", std::move(row_check),
                      ctx != nullptr ? ctx->spill_env() : nullptr, ctx,
                      nullptr);

  // One disjunct streams its final join straight into the sink. Several
  // evaluate — concurrently when threads allow — each into its own
  // relation, which is then pushed in disjunct order: the sink sees the
  // same row sequence at every thread count.
  std::size_t n_disjuncts = flock.query.disjuncts.size();
  std::vector<Relation> disjunct_answers(n_disjuncts);
  std::vector<std::size_t> disjunct_peaks(n_disjuncts, 0);
  std::vector<OpMetrics*> disjunct_nodes(n_disjuncts, nullptr);
  if (m != nullptr) {
    disjunct_nodes = m->AddChildren(n_disjuncts, "disjunct");
  }
  auto eval_disjunct = [&](std::size_t d) -> Status {
    const ConjunctiveQuery& cq = flock.query.disjuncts[d];
    std::vector<std::string> wanted = param_columns;
    for (const std::string& h : cq.head_vars) wanted.push_back(h);
    CqEvalOptions cq_options;
    if (d < options.per_disjunct.size()) cq_options = options.per_disjunct[d];
    static_cast<ExecContext&>(cq_options) = options.At(disjunct_nodes[d]);
    if (disjunct_nodes[d] != nullptr && !cq_options.join_order.empty()) {
      // A pinned (non-text) join order is a plan decision — the learned
      // optimizer's direct arms pass one — so surface it in the tree.
      std::string order = "order=";
      for (std::size_t i = 0; i < cq_options.join_order.size(); ++i) {
        if (i > 0) order += ',';
        order += std::to_string(cq_options.join_order[i]);
      }
      disjunct_nodes[d]->detail = order;
    }
    if (n_disjuncts == 1) cq_options.sink = &sink;
    ScopedOp span(disjunct_nodes[d], tr);
    Result<Relation> bindings = EvaluateConjunctiveBindings(
        cq, resolver, wanted, cq_options, &disjunct_peaks[d]);
    if (!bindings.ok()) return bindings.status();
    disjunct_answers[d] = std::move(*bindings);
    return Status::Ok();
  };
  if (Status s = ParallelForStatus(
          std::min<std::size_t>(options.threads, n_disjuncts), n_disjuncts,
          1, [&](std::size_t begin, std::size_t) { return eval_disjunct(begin); });
      !s.ok()) {
    return s;
  }
  if (Status s = options.Check(); !s.ok()) return s;

  OpMetrics* union_node =
      m != nullptr && n_disjuncts > 1 ? m->AddChild("union") : nullptr;
  if (n_disjuncts > 1) {
    ScopedOp span(union_node, tr);
    for (Relation& answers : disjunct_answers) {
      for (const Tuple& t : answers.rows()) {
        if (Status s = sink.Push(t); !s.ok()) return s;
      }
      if (union_node != nullptr) union_node->rows_in += answers.size();
      if (ctx != nullptr) {
        // Pushed rows live on in the sink; the disjunct result is dead.
        ctx->Release(static_cast<std::uint64_t>(answers.size()) *
                     ApproxTupleBytes(answers.arity()));
      }
      answers = Relation();
    }
  }

  Relation grouped;
  {
    OpMetrics* node =
        m != nullptr ? m->AddChild("group_by", agg_detail) : nullptr;
    sink.set_metrics(node);
    ScopedOp span(node, tr);
    Result<Relation> g = sink.Finish(
        [&filter](const Value& aggregate) { return filter.Accepts(aggregate); });
    if (!g.ok()) return g.status();
    grouped = std::move(*g);
    if (node != nullptr && sink.spilled()) node->detail += " [spill]";
  }
  if (Status s = options.Check(); !s.ok()) return s;
  if (union_node != nullptr) union_node->rows_out = sink.answer_rows();
  if (n_disjuncts == 1 && disjunct_nodes[0] != nullptr) {
    disjunct_nodes[0]->rows_out += sink.answer_rows();
  }
  if (info != nullptr) {
    info->peak_rows = 0;
    for (std::size_t peak : disjunct_peaks) {
      info->peak_rows = std::max(info->peak_rows, peak);
    }
    info->answer_rows = static_cast<std::size_t>(sink.answer_rows());
  }
  if (m != nullptr) {
    // The sink applied the filter while extracting groups.
    OpMetrics* node = m->AddChild("filter");
    node->rows_in = sink.groups();
    node->rows_out = grouped.size();
  }

  Relation result;
  {
    OpMetrics* node = m != nullptr ? m->AddChild("project") : nullptr;
    ScopedOp span(node, tr);
    result = Project(grouped, param_columns, node, ctx);
    result.SortRows();
  }
  if (Status s = options.Check(); !s.ok()) return s;
  if (m != nullptr) m->rows_out += result.size();
  result.set_name("flock_result");
  return result;
}

}  // namespace qf
