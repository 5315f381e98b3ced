// Relational operators over set-semantics relations.
//
// Joins are *natural*: they match on equally named columns, which is exactly
// the shape conjunctive-query evaluation needs when each subgoal's binding
// relation names its columns after the query's variables and parameters.
//
// Observability: every operator the evaluators use takes a trailing
// nullable OpMetrics* (common/metrics.h). When non-null the operator adds
// its observed counters — rows_in (left/only input), rows_in_right (build
// side of binary ops), rows_out (exact result cardinality), tuples_probed
// (hash lookups + table upserts), morsels (parallel decomposition; 0 when
// the op ran as one piece) — into the node. Operators fill *counters
// only*; naming the node and timing it (ScopedOp) is the caller's job, so
// wall time has a single source. All row counters are identical for every
// thread count (the same determinism contract as the results themselves);
// `morsels` reflects the actual decomposition and is 0 on serial paths.
// A null pointer costs one branch — the disabled path stays
// allocation-free.
//
// Governance: the same operators take a trailing nullable QueryContext*
// (common/resource.h). When non-null the operator polls the context's
// deadline/cancel token every QueryContext::kPollStride rows (and at
// morsel granularity on parallel paths) and charges ApproxTupleBytes per
// *output* row to the memory accountant, recording the charged bytes in
// metrics->mem_bytes. Once the context latches an error the operator
// bails out early with truncated output; callers must ctx->Check() after
// each operator and discard the truncated result. Governance never
// changes the rows of a run that completes — only whether it completes.
#ifndef QF_RELATIONAL_OPS_H_
#define QF_RELATIONAL_OPS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/resource.h"
#include "relational/relation.h"

namespace qf {

// Projects onto `columns` (each must exist), removing duplicates.
Relation Project(const Relation& rel, const std::vector<std::string>& columns,
                 OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Keeps rows satisfying `pred`. Preserves set-ness.
Relation Select(const Relation& rel,
                const std::function<bool(const Tuple&)>& pred,
                OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Renames columns: new_names.size() must equal arity. Takes the relation
// by value and moves its rows, so Rename(std::move(r), ...) copies none.
Relation Rename(Relation rel, std::vector<std::string> new_names);

// Natural join: matches rows agreeing on all shared column names. Output
// schema is a's columns followed by b's non-shared columns. If the inputs
// share no columns this is a cross product. Inputs must be duplicate-free
// for the output to be duplicate-free.
Relation NaturalJoin(const Relation& a, const Relation& b,
                     OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Natural join with the probe side split into fixed-size morsels handed
// to the shared thread pool (common/thread_pool.h): a shared read-only
// hash index over `b`, one output buffer per morsel, buffers concatenated
// in morsel order. Because morsel boundaries depend only on the input
// size — never on `threads` — the output row order is *identical to
// NaturalJoin(a, b)* for every thread count, so the evaluators can switch
// between the serial and parallel join freely without changing results.
// `threads` <= 1 (including 0), small inputs, and cross products fall
// back to the serial join (same rows, same order, same row counters;
// morsels stays 0 on the fallback).
Relation ParallelNaturalJoin(const Relation& a, const Relation& b,
                             unsigned threads, OpMetrics* metrics = nullptr,
                             QueryContext* ctx = nullptr);

// Rows of `a` with at least one match in `b` on the shared columns.
// If no columns are shared: returns `a` when `b` is non-empty, else empty.
Relation SemiJoin(const Relation& a, const Relation& b,
                  OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Rows of `a` with *no* match in `b` on the shared columns — evaluates
// NOT-subgoals. If no columns are shared: returns `a` when `b` is empty,
// else empty.
Relation AntiJoin(const Relation& a, const Relation& b,
                  OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Set union; schemas must have equal arity (column names taken from `a`).
Relation Union(const Relation& a, const Relation& b,
               OpMetrics* metrics = nullptr, QueryContext* ctx = nullptr);

// Set difference a - b; arities must match (names from `a`).
Relation Difference(const Relation& a, const Relation& b);

// Removes duplicates (copy of Relation::Dedup that leaves input intact).
Relation Distinct(const Relation& rel);

// Aggregation kinds for GroupAggregate. All but kCount read `agg_column`.
enum class AggKind { kCount, kSum, kMin, kMax };

// The running aggregate of one group. Values are folded in Add order, so
// a floating-point SUM associates exactly in that order.
struct AggAccumulator {
  std::int64_t count = 0;
  double sum = 0;
  bool has_extreme = false;
  Value extreme;

  // Folds in one row whose aggregated column is `agg_idx` (kCount reads
  // no column). `count` counts the rows under every kind.
  void Add(AggKind kind, std::span<const Value> row, std::size_t agg_idx);
  // The finished aggregate: an integer count, a double sum, or the
  // extreme value.
  Value Result(AggKind kind) const;
};

// Groups `rel` by `group_columns` and computes one aggregate per group over
// the remaining data:
//   kCount — number of (distinct) rows in the group;
//   kSum / kMin / kMax — over the numeric column `agg_column`.
// Output schema: group_columns + {output_column}, rows in lexicographic
// order, so the result never depends on a hash-table layout. Values are
// folded in row order (a float SUM associates left to right). Input must
// be duplicate-free: under set semantics COUNT of a flock's answers is
// exactly the number of distinct rows per group.
Relation GroupAggregate(const Relation& rel,
                        const std::vector<std::string>& group_columns,
                        AggKind kind, const std::string& agg_column,
                        const std::string& output_column,
                        OpMetrics* metrics = nullptr,
                        QueryContext* ctx = nullptr);

}  // namespace qf

#endif  // QF_RELATIONAL_OPS_H_
