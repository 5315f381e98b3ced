#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "flocks/cq_eval.h"

namespace qf {
namespace {

// Distinct columns of a relational subgoal (TermColumn naming).
std::set<std::string> SubgoalColumns(const Subgoal& s) {
  std::set<std::string> out;
  for (const Term& t : s.terms()) {
    if (!t.is_constant()) out.insert(TermColumn(t));
  }
  return out;
}

}  // namespace

double CostModel::EstimateSubgoalRows(const Subgoal& subgoal) const {
  const RelationStats* stats = stats_.Find(subgoal.predicate());
  double rows =
      stats != nullptr ? static_cast<double>(stats->rows) : config_.default_rows;
  // Each constant argument keeps ~rows/d of the base; each repeated column
  // occurrence likewise imposes an equality with selectivity 1/d.
  std::set<std::string> seen;
  for (std::size_t i = 0; i < subgoal.args().size(); ++i) {
    const Term& t = subgoal.args()[i];
    double d = config_.default_distinct;
    if (stats != nullptr && i < stats->column_distinct.size() &&
        stats->column_distinct[i] > 0) {
      d = static_cast<double>(stats->column_distinct[i]);
    }
    if (t.is_constant()) {
      rows /= d;
    } else if (!seen.insert(TermColumn(t)).second) {
      rows /= d;
    }
  }
  return std::max(rows, 1e-9);
}

double CostModel::EstimateColumnDistinct(const ConjunctiveQuery& cq,
                                         const std::string& column) const {
  double best = config_.default_distinct;
  bool found = false;
  for (const Subgoal& s : cq.subgoals) {
    if (!s.is_positive()) continue;
    const RelationStats* stats = stats_.Find(s.predicate());
    for (std::size_t i = 0; i < s.args().size(); ++i) {
      const Term& t = s.args()[i];
      if (t.is_constant() || TermColumn(t) != column) continue;
      double d = config_.default_distinct;
      if (stats != nullptr && i < stats->column_distinct.size() &&
          stats->column_distinct[i] > 0) {
        d = static_cast<double>(stats->column_distinct[i]);
      }
      best = found ? std::min(best, d) : d;
      found = true;
    }
  }
  return std::max(best, 1.0);
}

CostModel::CqEstimate CostModel::EstimateCq(
    const ConjunctiveQuery& cq, const std::vector<std::size_t>& order) const {
  std::vector<const Subgoal*> positives;
  for (const Subgoal& s : cq.subgoals) {
    if (s.is_positive()) positives.push_back(&s);
  }
  CqEstimate est;
  if (positives.empty()) return est;

  std::vector<std::size_t> sequence = order;
  if (sequence.empty()) {
    sequence.resize(positives.size());
    for (std::size_t i = 0; i < sequence.size(); ++i) sequence[i] = i;
  }

  // Per-column distinct count within one subgoal's binding relation.
  auto subgoal_distinct = [this](const Subgoal& s, const std::string& column,
                                 double sub_rows) {
    const RelationStats* stats = stats_.Find(s.predicate());
    double best = config_.default_distinct;
    bool found = false;
    for (std::size_t i = 0; i < s.args().size(); ++i) {
      const Term& t = s.args()[i];
      if (t.is_constant() || TermColumn(t) != column) continue;
      double d = config_.default_distinct;
      if (stats != nullptr && i < stats->column_distinct.size() &&
          stats->column_distinct[i] > 0) {
        d = static_cast<double>(stats->column_distinct[i]);
      }
      best = found ? std::min(best, d) : d;
      found = true;
    }
    return std::min(std::max(best, 1.0), std::max(sub_rows, 1.0));
  };

  // Pending comparison/negation selectivities, applied once bound.
  struct Pending {
    const Subgoal* subgoal;
    bool applied = false;
  };
  std::vector<Pending> pending;
  for (const Subgoal& s : cq.subgoals) {
    if (!s.is_positive()) pending.push_back({&s});
  }

  // Distinct-count estimates for columns bound in the running
  // intermediate; the System-R containment assumption gives
  //   |R join S on c| = |R||S| / max(dR(c), dS(c)),
  // and the joined relation has min(dR(c), dS(c)) distinct values of c.
  std::map<std::string, double> bound;
  double rows = 0;
  auto apply_ready = [&]() {
    for (Pending& p : pending) {
      if (p.applied) continue;
      bool ready = true;
      for (const Term& t : p.subgoal->terms()) {
        if (!t.is_constant() && !bound.contains(TermColumn(t))) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      p.applied = true;
      if (p.subgoal->is_negated()) {
        rows *= config_.negation_selectivity;
      } else if (p.subgoal->op() == CompareOp::kEq) {
        double d = 1;
        for (const Term& t : p.subgoal->terms()) {
          if (!t.is_constant()) d = std::max(d, bound[TermColumn(t)]);
        }
        rows /= d;
      } else if (p.subgoal->op() == CompareOp::kNe) {
        rows *= config_.not_equal_selectivity;
      } else {
        rows *= config_.inequality_selectivity;
      }
    }
  };

  for (std::size_t k = 0; k < sequence.size(); ++k) {
    const Subgoal& s = *positives[sequence[k]];
    double sub_rows = EstimateSubgoalRows(s);
    std::set<std::string> columns = SubgoalColumns(s);
    if (k == 0) {
      rows = sub_rows;
    } else {
      double denom = 1;
      for (const std::string& c : columns) {
        auto it = bound.find(c);
        if (it != bound.end()) {
          denom *= std::max(it->second, subgoal_distinct(s, c, sub_rows));
        }
      }
      rows = rows * sub_rows / denom;
    }
    for (const std::string& c : columns) {
      double d = subgoal_distinct(s, c, sub_rows);
      auto [it, inserted] = bound.emplace(c, d);
      if (!inserted) it->second = std::min(it->second, d);
    }
    apply_ready();
    rows = std::max(rows, 1e-9);
    est.cost += rows;
  }
  est.result_rows = rows;
  return est;
}

CostModel::FilterEstimate CostModel::EstimateFilter(
    const ConjunctiveQuery& cq, double threshold) const {
  // Exact path: a single-subgoal, single-parameter subquery (the common
  // prefilter shape, e.g. okS's exhibits(P,$s)) with a frequency profile
  // available answers the question directly — the per-value counts ARE the
  // group sizes the support filter thresholds.
  if (cq.subgoals.size() == 1 && cq.subgoals[0].is_positive()) {
    const Subgoal& s = cq.subgoals[0];
    const RelationStats* stats = stats_.Find(s.predicate());
    int param_position = -1;
    int param_occurrences = 0;
    for (std::size_t i = 0; i < s.args().size(); ++i) {
      if (s.args()[i].is_parameter()) {
        ++param_occurrences;
        param_position = static_cast<int>(i);
      }
    }
    if (param_occurrences == 1 && stats != nullptr &&
        stats->has_profiles() &&
        static_cast<std::size_t>(param_position) <
            stats->column_profiles.size()) {
      const FrequencyProfile& profile =
          stats->column_profiles[param_position];
      FilterEstimate exact;
      exact.assignments = static_cast<double>(profile.counts.size());
      exact.survivors =
          static_cast<double>(profile.ValuesWithCountAtLeast(threshold));
      exact.survival_fraction =
          exact.assignments > 0 ? exact.survivors / exact.assignments : 1.0;
      return exact;
    }
  }

  FilterEstimate out;
  CqEstimate join = EstimateCq(cq);
  double assignments = 1;
  for (const std::string& p : cq.Parameters()) {
    assignments *= EstimateColumnDistinct(cq, "$" + p);
  }
  // Answers per assignment cannot exceed total rows.
  assignments = std::min(assignments, std::max(join.result_rows, 1.0));
  double mean_group = join.result_rows / std::max(assignments, 1.0);
  double fraction =
      threshold <= 1 ? 1.0
                     : std::exp(-(threshold - 1) / std::max(mean_group, 1e-9));
  out.assignments = assignments;
  out.survival_fraction = std::min(fraction, 1.0);
  out.survivors = assignments * out.survival_fraction;
  return out;
}

double CostModel::EstimateSurvivors(const UnionQuery& query,
                                    double threshold) const {
  double est = 0;
  for (const ConjunctiveQuery& cq : query.disjuncts) {
    est += EstimateFilter(cq, threshold).survivors;
  }
  return est;
}

}  // namespace qf
