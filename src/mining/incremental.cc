#include "mining/incremental.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace qf {

// --- TiltedTimeWindow ---

TiltedTimeWindow::TiltedTimeWindow(std::size_t level_capacity)
    : level_capacity_(level_capacity < 2 ? 2 : level_capacity) {}

void TiltedTimeWindow::Add(std::uint64_t count) {
  ++batches_;
  total_ += count;
  if (levels_.empty()) levels_.emplace_back();
  levels_[0].push_back(Entry{count, 1});
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    if (levels_[l].size() <= level_capacity_) break;
    // The two oldest same-span entries coalesce into one double-span
    // entry, which is the *newest* entry of the next level (entries at
    // level l+1 were promoted earlier, so they cover older batches).
    Entry merged{levels_[l][0].count + levels_[l][1].count,
                 levels_[l][0].span * 2};
    levels_[l].erase(levels_[l].begin(), levels_[l].begin() + 2);
    if (l + 1 == levels_.size()) levels_.emplace_back();
    levels_[l + 1].push_back(merged);
  }
}

std::size_t TiltedTimeWindow::entries() const {
  std::size_t n = 0;
  for (const std::vector<Entry>& level : levels_) n += level.size();
  return n;
}

TiltedTimeWindow::LastN TiltedTimeWindow::CountLastN(std::uint64_t n) const {
  if (n == 0) return LastN{0, 0};
  if (n >= batches_) return LastN{total_, 0};
  LastN out;
  std::uint64_t covered = 0;
  // Newest to oldest: within a level the newest entry is at the back,
  // and deeper levels hold strictly older batches.
  for (const std::vector<Entry>& level : levels_) {
    for (std::size_t i = level.size(); i-- > 0;) {
      const Entry& e = level[i];
      if (covered >= n) return out;
      out.count += e.count;
      if (covered + e.span > n) {
        // This entry straddles the n-batch horizon and is taken whole:
        // at most e.count of it belongs past the horizon.
        out.slack = e.count;
        return out;
      }
      covered += e.span;
    }
  }
  return out;
}

std::uint64_t TiltedTimeWindow::ApproxBytes() const {
  return sizeof(TiltedTimeWindow) + levels_.size() * sizeof(levels_[0]) +
         entries() * sizeof(Entry);
}

std::string TiltedTimeWindow::ToString() const {
  std::string out = "total=" + std::to_string(total_) +
                    " batches=" + std::to_string(batches_) + " levels=[";
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    if (l > 0) out += ",";
    out += std::to_string(levels_[l].size());
  }
  out += "]";
  return out;
}

// --- IncrementalFlockState ---

IncrementalFlockState::IncrementalFlockState(std::string flock_name,
                                             const QueryFlock& flock,
                                             std::size_t window_capacity)
    : flock_name_(std::move(flock_name)),
      query_(flock.query),
      built_filter_(flock.filter),
      layout_(FlockAnswerColumns(flock)),
      window_capacity_(window_capacity),
      table_(layout_.columns.size(), layout_.params.size(), layout_.kind,
             layout_.agg_idx) {}

IncrementalFlockState::Compat IncrementalFlockState::CompatibilityWith(
    const QueryFlock& flock) const {
  if (!(query_ == flock.query)) return Compat::kIncompatible;
  const FilterCondition& f = flock.filter;
  if (f == built_filter_) return Compat::kSame;
  if (f.agg != built_filter_.agg || f.cmp != built_filter_.cmp) {
    return Compat::kIncompatible;
  }
  if (f.agg != FilterAgg::kCount &&
      f.agg_head_index != built_filter_.agg_head_index) {
    return Compat::kIncompatible;
  }
  // Only the threshold differs. Tightening (toward fewer survivors)
  // preserves the a-priori frontier contract; loosening admits groups
  // whose ring history was never tracked.
  switch (f.cmp) {
    case CompareOp::kGe:
    case CompareOp::kGt:
      return f.threshold >= built_filter_.threshold ? Compat::kTightened
                                                    : Compat::kIncompatible;
    case CompareOp::kLe:
    case CompareOp::kLt:
      return f.threshold <= built_filter_.threshold ? Compat::kTightened
                                                    : Compat::kIncompatible;
    default:
      return Compat::kIncompatible;
  }
}

bool IncrementalFlockState::AbsorbAnswer(std::span<const Value> row) {
  QF_CHECK_MSG(row.size() == layout_.columns.size(),
               "answer row arity mismatch in incremental state");
  std::uint64_t probes = 0;
  AnswerTable::Inserted added = table_.Insert(
      row, AnswerTable::KeyHash(row, layout_.params.size()), probes);
  if (!added.new_row) return false;
  if (added.new_group) {
    pending_.push_back(0);
    ring_of_.push_back(-1);
  }
  ++pending_[added.group];
  if (layout_.kind == AggKind::kSum) {
    // Integral doubles below 2^53 add exactly in any association — the
    // condition under which incremental sums are bit-identical to a
    // from-scratch fold at every thread count.
    double v = row[layout_.agg_idx].AsNumber();
    if (std::nearbyint(v) != v || std::abs(v) > 9007199254740992.0) {
      sum_exact_ = false;
    }
  }
  return true;
}

Status IncrementalFlockState::Push(std::span<const Value> row) {
  if (Status s = layout_.CheckRow(row); !s.ok()) return s;
  if (AbsorbAnswer(row) && answer_rows() % QueryContext::kPollStride == 0) {
    return ChargeGrowth();
  }
  return Status::Ok();
}

Status IncrementalFlockState::ChargeGrowth() {
  if (ctx_ == nullptr) return Status::Ok();
  const std::uint64_t bytes = table_.ApproxBytes() - charged_;
  charged_ += bytes;
  if (!ctx_->Charge(bytes)) return ctx_->Check();
  return Status::Ok();
}

void IncrementalFlockState::SealBatch() {
  ++batch_count_;
  // Every tracked ring sees every batch (0 contributions included), so
  // last-n horizons line up across groups.
  for (std::size_t gid = 0; gid < pending_.size(); ++gid) {
    if (ring_of_[gid] >= 0) {
      rings_[static_cast<std::size_t>(ring_of_[gid])].Add(pending_[gid]);
    }
  }
  // Groups newly crossing the built filter start their ring here, seeded
  // with their cumulative count: their per-batch history before tracking
  // was never recorded (the frontier contract — this is why loosening
  // the threshold forces a rebuild).
  for (std::uint32_t gid = 0; gid < pending_.size(); ++gid) {
    if (ring_of_[gid] < 0 && built_filter_.Accepts(table_.Aggregate(gid))) {
      ring_of_[gid] = static_cast<std::int32_t>(rings_.size());
      rings_.emplace_back(window_capacity_);
      rings_.back().Add(static_cast<std::uint64_t>(table_.count(gid)));
    }
  }
  for (std::uint64_t& p : pending_) p = 0;
}

Relation IncrementalFlockState::Serve(const FilterCondition& filter) const {
  // Keys are unique per group, so the passing keys sort straight into
  // the direct evaluator's result.
  Relation out{Schema(layout_.params)};
  for (std::uint32_t gid = 0; gid < table_.groups(); ++gid) {
    if (!filter.Accepts(table_.Aggregate(gid))) continue;
    std::span<const Value> key = table_.key(gid);
    out.Add(Tuple(key.begin(), key.end()));
  }
  out.SortRows();
  out.set_name("flock_result");
  return out;
}

const TiltedTimeWindow* IncrementalFlockState::RingFor(
    const Tuple& params) const {
  // A scan: rings are looked up only by tests and introspection.
  for (std::uint32_t gid = 0; gid < table_.groups(); ++gid) {
    if (ring_of_[gid] >= 0 && std::ranges::equal(table_.key(gid), params)) {
      return &rings_[static_cast<std::size_t>(ring_of_[gid])];
    }
  }
  return nullptr;
}

std::uint64_t IncrementalFlockState::ApproxBytes() const {
  std::uint64_t bytes =
      table_.ApproxBytes() +
      pending_.size() * (sizeof(std::uint64_t) + sizeof(std::int32_t));
  for (const TiltedTimeWindow& ring : rings_) bytes += ring.ApproxBytes();
  return bytes;
}

std::string IncrementalFlockState::Describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "flock %s: %zu answers, %zu groups, %zu tracked rings, "
                "%llu batches, ~%llu bytes\n",
                flock_name_.c_str(), answer_rows(), group_count(),
                tracked_rings(), static_cast<unsigned long long>(batches()),
                static_cast<unsigned long long>(ApproxBytes()));
  std::string out = buf;
  out += "  built filter: " +
         built_filter_.ToString(query_.head_name(),
                                query_.disjuncts.front().head_vars) +
         (sum_exact_ ? "" : " [sum-inexact]") + "\n";
  std::snprintf(buf, sizeof(buf),
                "  decisions: builds=%llu deltas=%llu cached=%llu\n",
                static_cast<unsigned long long>(full_builds),
                static_cast<unsigned long long>(delta_batches),
                static_cast<unsigned long long>(served_cached));
  out += buf;
  for (const RelationMark& mark : marks_) {
    out += "  base " + mark.name + ": " + std::to_string(mark.rows) +
           " rows" + (mark.negated ? " (negated)" : "") + "\n";
  }
  return out;
}

}  // namespace qf
