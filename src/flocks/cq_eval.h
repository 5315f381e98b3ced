// Evaluation of extended conjunctive queries over a Database, producing
// *binding relations*: relations whose columns are named after the query's
// variables ("X") and parameters ("$s").
//
// This is the engine under both the flock evaluators (flocks/eval.h,
// flocks/naive_eval.h) and the plan executor (plan/executor.h). Positive
// subgoals become natural joins of per-subgoal binding relations;
// arithmetic subgoals become selections applied as soon as both sides are
// bound; negated subgoals become anti-joins applied once all their
// variables are bound (safety guarantees this point is reached).
#ifndef QF_FLOCKS_CQ_EVAL_H_
#define QF_FLOCKS_CQ_EVAL_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "datalog/ast.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace qf {

class TupleSink;  // relational/spill.h

// Column name a term binds: variables map to their name, parameters to
// "$name". Constants have no column; callers must not ask.
std::string TermColumn(const Term& term);

// Resolves body predicates: first among `extra` relations (results of
// earlier plan steps), then in the database.
class PredicateResolver {
 public:
  explicit PredicateResolver(const Database& db) : db_(&db) {}
  PredicateResolver(const Database& db,
                    const std::map<std::string, const Relation*>& extra)
      : db_(&db), extra_(&extra) {}

  Result<const Relation*> Resolve(const std::string& name) const;

 private:
  const Database* db_;
  const std::map<std::string, const Relation*>* extra_ = nullptr;
};

// The binding relation of one relational subgoal over its base relation:
// one column per distinct variable/parameter of the subgoal, one row per
// base row matching the subgoal's constants and repeated terms. With
// `threads` > 1 the scan runs morsel-parallel on the shared pool; the
// output rows and their order are identical for every thread count.
Relation SubgoalBindings(const Subgoal& subgoal, const Relation& base,
                         unsigned threads = 1, OpMetrics* metrics = nullptr,
                         QueryContext* ctx = nullptr);

// A point of the join fold where a filter policy may prune parameter
// assignments: a leaf binding before it is joined, or a materialized
// intermediate once its ready comparisons and negations are applied.
struct FilterPoint {
  std::string at;                  // "leaf p(B,$1)" or "after join 2"
  const Schema& schema;            // binding columns ("X", "$p")
  const std::vector<Tuple>& rows;  // read in place, views of a base too
  OpMetrics* node;                 // the point's "dyn_filter" node, or null
};

// Decides at each FilterPoint whether to filter — the paper's §4.4
// dynamic strategy is one (optimizer/dynamic.h). Points are offered in
// join order, one at a time, on the evaluating thread; a point that binds
// no parameter or holds no rows is not offered. The fused final join is
// never offered: the flock's GROUP BY + FILTER sink is the root filter.
class FilterPolicy {
 public:
  FilterPolicy() = default;
  FilterPolicy(const FilterPolicy&) = delete;
  FilterPolicy& operator=(const FilterPolicy&) = delete;
  virtual ~FilterPolicy() = default;
  // The parameter assignments to keep — a relation over some of the
  // point's columns, charged to the context like an operator's output —
  // which the evaluator semi-joins the point with and then releases; or
  // nullopt to leave the point as it is.
  virtual Result<std::optional<Relation>> Decide(const FilterPoint& point) = 0;
  // Called after the evaluator applied Decide's filter: the rows left.
  virtual void Applied(std::size_t rows_after) = 0;
};

// The context (common/exec_context.h) drives the scans and the join fold:
// threads run them morsel-parallel (the parallel scan and join preserve
// the serial row order, relational/ops.h); metrics get one child node per
// operator — "scan" per subgoal, then the fold chain ("join" / "select" /
// "anti_join", plus "semi_join" nodes for full-reducer sweeps), and last
// the fused final join "join <pred> [fused]" whose "select" and "project"
// children count the rows passing the fused predicates and the rows
// projected (a plain "project" node when the body has one positive
// subgoal); ctx is checked after every operator.
struct CqEvalOptions : ExecContext {
  // Join order as positions into the query's list of *positive* subgoals
  // (0 = first positive subgoal in text order). Empty means text order.
  std::vector<std::size_t> join_order;
  // Yannakakis-style evaluation: when the positive part of the query is
  // alpha-acyclic (datalog/acyclic.h), run a full-reducer pass (two
  // semi-join sweeps over the join tree) before joining, and join in tree
  // order — dangling tuples never enter an intermediate. Overrides
  // join_order when a join tree exists; silently falls back to the normal
  // fold on cyclic queries.
  bool full_reducer = false;
  // Where the final projected rows go (relational/spill.h). The final
  // join is always fused: each joined row is tested against the
  // still-pending comparisons and negations, projected onto
  // output_columns, and pushed into a sink — no join, selection or
  // projection output is materialized. Null (the default) collects the
  // pushed rows into the returned relation, deduplicated in first-
  // occurrence order: exactly Project(Select(NaturalJoin(...))). A
  // non-null sink receives every pushed row, duplicates included, in the
  // same order at every thread count, and the evaluation returns an empty
  // relation with the output schema.
  TupleSink* sink = nullptr;
  // Consulted at every FilterPoint; each decision adds a "dyn_filter"
  // node (with a "semi_join" child when it filtered). Null (the default)
  // offers nothing: one branch per leaf and per intermediate.
  FilterPolicy* filter_policy = nullptr;
};

// Evaluates the body of `cq` and projects the bindings onto
// `output_columns` (deduplicated), or pushes them into options.sink.
// Output columns must be bound by the body; unknown predicates, arity
// mismatches, or an unsafe body yield an error. Tracks the peak
// intermediate size in `peak_rows` when non-null — the fused final join
// counts the rows it produced, as if they had been materialized (used by
// cost-model validation and the benches).
Result<Relation> EvaluateConjunctiveBindings(
    const ConjunctiveQuery& cq, const PredicateResolver& resolver,
    const std::vector<std::string>& output_columns,
    const CqEvalOptions& options = {}, std::size_t* peak_rows = nullptr);

}  // namespace qf

#endif  // QF_FLOCKS_CQ_EVAL_H_
