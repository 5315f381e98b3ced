// A flock's distinct answer rows, grouped by their leading key columns,
// with one running aggregate per group. The GROUP BY + FILTER sink
// (relational/spill.h) holds its rows here, in memory and per spilled
// partition; the incremental flock state (mining/incremental.h) keeps one
// between runs and attaches its own per-group data by group id.
//
// Rows are kept once each, flat and arity-strided, in first-occurrence
// order; a group is named by its first row, so keys are never copied.
// Group ids are dense in first-seen order and each group folds its rows
// in insertion order, so a float SUM associates as the rows arrived.
#ifndef QF_RELATIONAL_ANSWER_TABLE_H_
#define QF_RELATIONAL_ANSWER_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/flat_hash.h"
#include "relational/ops.h"
#include "relational/relation.h"
#include "relational/tuple.h"

namespace qf {

// Accounted bytes of one group: its key-table slot and stored hash, its
// first-row id and its accumulator.
inline constexpr std::size_t kGroupBytes = 16 + sizeof(std::uint64_t) +
                                           sizeof(std::uint32_t) +
                                           sizeof(AggAccumulator);

class AnswerTable {
 public:
  // Rows of `arity` columns grouped by columns [0, key_n); the aggregate
  // `kind` reads column `agg_idx` (kCount reads none).
  AnswerTable(std::size_t arity, std::size_t key_n, AggKind kind,
              std::size_t agg_idx)
      : arity_(arity), key_n_(key_n), kind_(kind), agg_idx_(agg_idx) {
    QF_CHECK_MSG(key_n_ <= arity_, "group key wider than the row");
  }

  std::size_t rows() const { return row_ids_.size(); }
  std::size_t groups() const { return accs_.size(); }
  std::span<const Value> row(std::size_t r) const {
    return {values_.data() + r * arity_, arity_};
  }
  // The key columns of group `g` (a prefix of its first row).
  std::span<const Value> key(std::uint32_t g) const {
    return row(first_row_[g]).first(key_n_);
  }
  std::int64_t count(std::uint32_t g) const { return accs_[g].count; }
  // The finished aggregate of group `g`.
  Value Aggregate(std::uint32_t g) const { return accs_[g].Result(kind_); }

  // The key hash Insert expects: TupleHash of the leading key_n columns.
  static std::uint64_t KeyHash(std::span<const Value> row,
                               std::size_t key_n) {
    return TupleHash::Of(row.first(key_n));
  }

  struct Inserted {
    bool new_row = false;    // false: an equal row was present, no change
    bool new_group = false;
    std::uint32_t group = 0;  // the row's group; valid when new_row
  };
  // Stores `row` unless an equal row is present, and folds a new row into
  // its group, upserting the group. `probes` counts slot inspections.
  Inserted Insert(std::span<const Value> row, std::uint64_t key_hash,
                  std::uint64_t& probes) {
    QF_CHECK_MSG(rows() < 0xFFFFFFFFull,
                 "flat-hash kernels address at most 2^32-1 rows");
    Inserted out;
    out.new_row = row_ids_.Upsert(
        TupleHash::Of(row),
        [&](std::uint32_t r) {
          return std::equal(row.begin(), row.end(),
                            values_.begin() + r * arity_);
        },
        probes).second;
    if (!out.new_row) return out;
    const std::uint32_t r = static_cast<std::uint32_t>(rows() - 1);
    values_.insert(values_.end(), row.begin(), row.end());
    auto [group, inserted] = group_ids_.Upsert(
        key_hash,
        [&](std::uint32_t g) {
          return std::equal(row.begin(), row.begin() + key_n_,
                            values_.begin() + first_row_[g] * arity_);
        },
        probes);
    if (inserted) {
      first_row_.push_back(r);
      accs_.emplace_back();
    }
    accs_[group].Add(kind_, row, agg_idx_);
    out.new_group = inserted;
    out.group = group;
    return out;
  }

  // Appends key + aggregate of every group whose aggregate passes `keep`
  // (every group when `keep` is null), in group-id order.
  void Emit(const std::function<bool(const Value&)>& keep,
            std::vector<Tuple>& out) const {
    for (std::uint32_t g = 0; g < groups(); ++g) {
      Value v = Aggregate(g);
      if (keep != nullptr && !keep(v)) continue;
      std::span<const Value> k = key(g);
      Tuple t(k.begin(), k.end());
      t.push_back(std::move(v));
      out.push_back(std::move(t));
    }
  }

  // The accounted bytes: ApproxTupleBytes per row, kGroupBytes per group.
  std::uint64_t ApproxBytes() const {
    return static_cast<std::uint64_t>(rows()) * ApproxTupleBytes(arity_) +
           static_cast<std::uint64_t>(groups()) * kGroupBytes;
  }

 private:
  std::size_t arity_;
  std::size_t key_n_;
  AggKind kind_;
  std::size_t agg_idx_;
  std::vector<Value> values_;             // distinct rows, arity-strided
  FlatIdTable row_ids_;                   // full-row hash -> row id
  FlatIdTable group_ids_;                 // key hash -> group id
  std::vector<std::uint32_t> first_row_;  // group id -> its first row
  std::vector<AggAccumulator> accs_;      // group id -> aggregate
};

}  // namespace qf

#endif  // QF_RELATIONAL_ANSWER_TABLE_H_
