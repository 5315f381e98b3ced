// Per-flock incremental evaluation state (DESIGN.md §13).
//
// A RUN today recomputes flock support from scratch. But the flock
// pipeline's expensive product — the deduplicated answer relation and its
// per-parameter-assignment aggregates — is a pure monotone function of
// the base relations, so under append-only deltas it can be *maintained*:
// new answers are exactly the CQ derivations that use at least one delta
// tuple, and absorbing them into the cached answer set updates every
// group aggregate without rescanning history.
//
// IncrementalFlockState is that cache. Its answers live in the same
// AnswerTable (relational/answer_table.h) the direct evaluator's GROUP BY
// sink groups them in: distinct rows in first-occurrence order (the order
// the direct evaluator unions them in), grouped by the parameter columns,
// one accumulator per group. By the group id the table reports, the state
// keeps only its batch bookkeeping: each group's count in the open batch
// and, for *frequent* groups, an FP-Stream-style tilted-time-window ring
// recording how many answers each delta batch contributed — the "frequent
// in the last N batches" history, kept only for groups on the a-priori
// frontier (groups passing the filter the state was built with).
//
// The state is pure bookkeeping; deciding when it is valid and feeding it
// delta bindings is flocks/incremental_eval.h. Exactness contract: a
// Serve() after any sequence of AbsorbAnswer/SealBatch calls is
// bit-identical to the direct evaluator over the full current data —
// which is why the table keeps *all* groups, not just frequent ones (a
// sub-threshold group must be able to cross the threshold later; dedup
// needs the full set). Only the ring history is frontier-pruned.
#ifndef QF_MINING_INCREMENTAL_H_
#define QF_MINING_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "flocks/eval.h"
#include "flocks/flock.h"
#include "relational/answer_table.h"
#include "relational/relation.h"
#include "relational/spill.h"

namespace qf {

// FP-Stream's logarithmic tilted-time window (Giang, Han et al.; the
// wpoanalytics TiltedTimeWindow is the reference implementation): a ring
// of per-batch counts where level L holds up to `level_capacity` entries
// each spanning 2^L batches. Add() pushes the newest batch at level 0;
// when a level overflows, its two *oldest* entries merge into one
// double-span entry that becomes the *newest* entry of the next level.
// Total memory is O(level_capacity * log2(batches)) while the exact total
// count is preserved (merging only ever adds counts, never drops them).
//
// The price of the compression is resolution, not loss: CountLastN(n)
// walks entries newest-to-oldest and must take the one entry straddling
// the n-batch horizon whole. It reports that entry's count as `slack` —
// the documented approximation bound: the true last-n count lies in
// [count - slack, count]. Queries aligned to span boundaries (and n >=
// batches()) are exact with slack 0.
class TiltedTimeWindow {
 public:
  // `level_capacity` >= 2 (two entries are needed to merge).
  explicit TiltedTimeWindow(std::size_t level_capacity = 4);

  // Absorbs the newest batch's count (0 is a real batch: every tracked
  // window must see every batch for last-n horizons to line up).
  void Add(std::uint64_t count);

  // Batches absorbed since construction.
  std::uint64_t batches() const { return batches_; }
  // Exact sum over all absorbed batches (merges preserve totals).
  std::uint64_t total() const { return total_; }
  // Ring slots currently in use (O(capacity * log batches)).
  std::size_t entries() const;
  std::size_t level_count() const { return levels_.size(); }

  struct LastN {
    std::uint64_t count = 0;  // upper bound on the true last-n count
    std::uint64_t slack = 0;  // true count >= count - slack
  };
  // Count over the most recent `n` batches, with its approximation bound.
  LastN CountLastN(std::uint64_t n) const;

  std::uint64_t ApproxBytes() const;

  // "total=T batches=B levels=[c0,c1,...]" for SHOW FLOCK STATE.
  std::string ToString() const;

 private:
  struct Entry {
    std::uint64_t count = 0;
    std::uint64_t span = 0;  // batches covered: 2^level
  };
  // levels_[L] holds entries of span 2^L, oldest first, newest at back.
  std::vector<std::vector<Entry>> levels_;
  std::size_t level_capacity_;
  std::uint64_t batches_ = 0;
  std::uint64_t total_ = 0;
};

// The cached evaluation state of one flock. Lifecycle:
//
//   IncrementalFlockState state(flock);        // fixes query + filter
//   for (row : full answer rows)  state.Push(row);  // the build's sink
//   state.SealBatch();                          // batch 0 = initial build
//   ... per delta run: AbsorbAnswer(delta rows); SealBatch(); ...
//   Relation r = state.Serve(filter);           // bit-identical result
//
// Absorb order only affects float-SUM association; the state therefore
// tracks sum_exact(): it stays true while every summed value is integral
// (exactly representable, associativity-free). incremental_eval refuses
// to build or keep state once a non-integral sum value appears.
class IncrementalFlockState : public TupleSink {
 public:
  IncrementalFlockState(std::string flock_name, const QueryFlock& flock,
                        std::size_t window_capacity = 4);

  const std::string& flock_name() const { return flock_name_; }
  const UnionQuery& query() const { return query_; }
  // The filter the state was built (and its rings tracked) with.
  const FilterCondition& built_filter() const { return built_filter_; }
  // The answer-row layout (FlockAnswerColumns of the built flock).
  const FlockAnswerLayout& layout() const { return layout_; }

  // How the current declaration of the flock relates to the cached state:
  //   kSame        — identical query + filter: serve directly.
  //   kTightened   — same shape, threshold moved toward *fewer* survivors
  //                  (support increase): the frontier contract still
  //                  holds, serve by re-filtering the group table.
  //   kIncompatible— query changed, aggregate/comparison changed, or the
  //                  threshold loosened (support decrease): ring history
  //                  is missing for newly admitted groups — rebuild.
  enum class Compat { kSame, kTightened, kIncompatible };
  Compat CompatibilityWith(const QueryFlock& flock) const;

  // Adds one answer row in layout().columns order. Returns true when the
  // row was new; duplicates are absorbed without effect (set semantics).
  bool AbsorbAnswer(std::span<const Value> row);
  bool AbsorbAnswer(const Tuple& row) {
    return AbsorbAnswer(std::span<const Value>(row));
  }

  // The build's sink: checks each pushed row (FlockAnswerLayout::CheckRow)
  // and absorbs it, charging the table's growth to the context set by
  // set_context — so a memory budget bounds the build.
  using TupleSink::Push;
  Status Push(std::span<const Value> row) override;
  // Where Push charges; null charges nothing. Charges are not released:
  // they stay on the building statement's context.
  void set_context(QueryContext* ctx) { ctx_ = ctx; }
  // Charges growth not yet charged; the context's error if it tripped.
  Status ChargeGrowth();

  // Seals the rows absorbed since the last Seal as one delta batch:
  // every tracked ring absorbs its pending per-batch count (0 included),
  // and groups newly passing the built filter start their ring here.
  void SealBatch();

  // The flock result under `filter`: parameters of passing groups,
  // canonically sorted, named "flock_result" — bit-identical to the
  // direct evaluator over the same data (see the class comment).
  Relation Serve(const FilterCondition& filter) const;

  // Lineage marks: the relation handles (and row counts) this state's
  // answers were computed from, recorded by incremental_eval after every
  // build/update. `negated` marks predicates under NOT — any change to
  // those is non-monotone and forces a rebuild.
  struct RelationMark {
    std::string name;
    std::shared_ptr<const Relation> handle;
    std::size_t rows = 0;
    bool negated = false;
  };
  std::vector<RelationMark>& marks() { return marks_; }
  const std::vector<RelationMark>& marks() const { return marks_; }

  // Database::generation() observed at the last build/update — the cheap
  // all-pointers-unchanged probe.
  std::uint64_t last_generation() const { return last_generation_; }
  void set_last_generation(std::uint64_t g) { last_generation_ = g; }

  std::size_t answer_rows() const { return table_.rows(); }
  std::size_t group_count() const { return table_.groups(); }
  std::size_t tracked_rings() const { return rings_.size(); }
  std::uint64_t batches() const { return batch_count_; }
  bool sum_exact() const { return sum_exact_; }

  // Cumulative decision counters (SHOW FLOCK STATE).
  std::uint64_t full_builds = 0;
  std::uint64_t delta_batches = 0;
  std::uint64_t served_cached = 0;

  // Approximate heap bytes of the cached state — the answer table by the
  // GROUP BY sink's rule (AnswerTable::ApproxBytes), plus the per-group
  // batch bookkeeping and the rings. What the evaluator holds against the
  // session memory budget.
  std::uint64_t ApproxBytes() const;

  // Multi-line description for SHOW FLOCK STATE.
  std::string Describe() const;

  // The tilted-time ring of the group whose parameter tuple is `params`,
  // or nullptr when the group is untracked (tests and SHOW introspection).
  const TiltedTimeWindow* RingFor(const Tuple& params) const;

 private:
  std::string flock_name_;
  UnionQuery query_;
  FilterCondition built_filter_;
  FlockAnswerLayout layout_;
  std::size_t window_capacity_ = 4;

  AnswerTable table_;
  // Per group id of table_: the open batch's new rows, and the ring slot
  // (-1 = untracked).
  std::vector<std::uint64_t> pending_;
  std::vector<std::int32_t> ring_of_;
  std::vector<TiltedTimeWindow> rings_;

  std::vector<RelationMark> marks_;
  std::uint64_t last_generation_ = 0;
  std::uint64_t batch_count_ = 0;
  bool sum_exact_ = true;
  QueryContext* ctx_ = nullptr;
  std::uint64_t charged_ = 0;  // bytes Push charged to ctx_
};

}  // namespace qf

#endif  // QF_MINING_INCREMENTAL_H_
