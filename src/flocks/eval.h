// The direct (group-by) evaluator for query flocks.
//
// The semantics of a flock (§2) is generate-and-test: for every parameter
// assignment, evaluate the query and test the filter. This evaluator
// computes the same set without enumeration: it evaluates the query with
// both parameter columns and head columns, groups by the parameters, and
// filters groups by the aggregate. For monotone filters the two coincide
// (assignments with empty answers fail monotone lower-bound filters, and
// they are exactly the assignments grouping never sees).
//
// This evaluator applies *no* a-priori optimization; it is the stand-in
// for the "conventional optimizer" baseline of §1.3, and the building
// block the plan executor uses for each FILTER step.
#ifndef QF_FLOCKS_EVAL_H_
#define QF_FLOCKS_EVAL_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "flocks/cq_eval.h"
#include "flocks/flock.h"
#include "relational/ops.h"

namespace qf {

// Under the context (common/exec_context.h), independent disjuncts of a
// union flock evaluate concurrently on the shared pool and each
// disjunct's scans and joins before the last run morsel-parallel; the
// fused final join is serial, and the group-by sink receives the same
// row sequence at every thread count, so float SUM association is
// identical too. Metrics get one "disjunct" child per disjunct (holding
// its CQ tree — pre-allocated before the fan-out, so concurrent
// disjuncts write disjoint subtrees), then "union" (several disjuncts
// only) / "group_by" / "filter" / "project" nodes. The group_by node is
// the GROUP BY + FILTER sink (detail "[spill]" once it spilled); the
// filter node counts the groups it tested and kept.
struct FlockEvalOptions : ExecContext {
  // Per-disjunct plan decisions (join order, full reducer, sink, filter
  // policy); empty means text order everywhere. Their execution context
  // is always this one.
  std::vector<CqEvalOptions> per_disjunct;
};

struct FlockEvalInfo {
  // Peak intermediate relation size over all disjuncts.
  std::size_t peak_rows = 0;
  // Distinct answer rows (over all disjuncts) before grouping.
  std::size_t answer_rows = 0;
};

// Evaluates `flock` over `db` (plus `extra` predicate overlays, used by
// plan steps). The result's columns are the flock's parameters, "$"-tagged,
// in sorted order, and its rows are canonically (lexicographically)
// sorted — deterministic for every options.threads value. Requires a
// monotone filter; non-monotone filters need the naive evaluator
// (flocks/naive_eval.h), which can see empty answers.
Result<Relation> EvaluateFlock(
    const QueryFlock& flock, const Database& db,
    const FlockEvalOptions& options = {},
    const std::map<std::string, const Relation*>* extra = nullptr,
    FlockEvalInfo* info = nullptr);

// Sorted "$"-tagged parameter columns of `flock` — the schema of its
// result.
std::vector<std::string> FlockParameterColumns(const QueryFlock& flock);

// The answer rows a flock's filter groups, as every monotone evaluator
// (direct, incremental) lays them out: the parameter columns, then one
// canonical "_h<i>" column per head position, so disjuncts with
// differently named head variables (Fig. 4) union cleanly. The group key
// is the parameter columns.
struct FlockAnswerLayout {
  std::vector<std::string> params;   // FlockParameterColumns(flock)
  std::vector<std::string> columns;  // params, then "_h0", "_h1", ...
  AggKind kind = AggKind::kCount;
  std::string agg_column;  // the column the aggregate reads; "" for COUNT
  std::size_t agg_idx = 0;  // its index in `columns`; 0 for COUNT

  // The columns to evaluate disjunct `cq` onto: the parameters, then its
  // own head variables, which land positionally on the "_h<i>" columns.
  std::vector<std::string> DisjunctColumns(const ConjunctiveQuery& cq) const;

  // A SUM filter's weight check: a negative or non-numeric weight makes
  // monotone pruning unsound (the Future Work section's precondition).
  // OK for every row under the other aggregates.
  Status CheckRow(std::span<const Value> row) const;
};
FlockAnswerLayout FlockAnswerColumns(const QueryFlock& flock);

}  // namespace qf

#endif  // QF_FLOCKS_EVAL_H_
