#include "optimizer/dynamic.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>

#include "flocks/cq_eval.h"
#include "flocks/eval.h"
#include "relational/spill.h"

namespace qf {
namespace {

// The §4.4 decision rule as a filter policy on the shared join fold. One
// group-count pass per point yields the tuples-per-assignment ratio *and*
// the per-group sizes; a filter is returned only when both the ratio gate
// and the removed-mass check say it is worthwhile.
class DynamicPolicy : public FilterPolicy {
 public:
  DynamicPolicy(const DynamicOptions& options, double threshold,
                const std::vector<std::string>& head_vars, DynamicLog& log)
      : options_(options),
        threshold_(threshold),
        head_vars_(head_vars),
        log_(log) {}

  Result<std::optional<Relation>> Decide(const FilterPoint& point) override {
    start_ns_ = MetricsNowNs();
    QueryContext* ctx = options_.ctx;
    // The candidate answers, group key first: the "$" columns, then the
    // head variables. Their distinct rows per assignment bound the
    // eventual COUNT(answer) only once every head variable is bound (the
    // prefix of a join order contains the query, §3.1); before that, one
    // row can lead to many answers, so the point is left alone.
    const Schema& schema = point.schema;
    std::vector<std::size_t> cols;
    std::set<std::string> params;
    for (std::size_t i = 0; i < schema.arity(); ++i) {
      if (schema.column(i).starts_with('$')) {
        cols.push_back(i);
        params.insert(schema.column(i));
      }
    }
    const std::size_t key_n = cols.size();
    for (const std::string& h : head_vars_) {
      std::optional<std::size_t> i = schema.IndexOf(h);
      if (!i.has_value()) return std::optional<Relation>();
      if (std::ranges::find(cols, *i) == cols.end()) cols.push_back(*i);
    }
    std::vector<std::string> names;
    for (std::size_t i : cols) names.push_back(schema.column(i));

    OpMetrics* gnode = point.node != nullptr
                           ? point.node->AddChild("group_by", "COUNT")
                           : nullptr;
    SpillGroupSink sink(Schema(names), key_n, AggKind::kCount, "", "_n",
                        nullptr, ctx != nullptr ? ctx->spill_env() : nullptr,
                        ctx, gnode);
    Result<Relation> passing = Relation();
    {
      ScopedOp gspan(gnode, options_.tracer());
      std::vector<Value> row(cols.size());
      for (const Tuple& t : point.rows) {
        for (std::size_t i = 0; i < cols.size(); ++i) row[i] = t[cols[i]];
        if (Status s = sink.Push(std::span<const Value>(row)); !s.ok()) {
          return s;
        }
      }
      passing = sink.Finish([this](const Value& n) {
        return static_cast<double>(n.AsInt()) >= threshold_;
      });
      if (!passing.ok()) return passing.status();
      if (gnode != nullptr && sink.spilled()) gnode->detail += " [spill]";
    }
    const double total_mass = static_cast<double>(sink.answer_rows());
    const double ratio = total_mass / static_cast<double>(sink.groups());

    auto it = last_ratio_.find(params);
    const bool consider =
        it == last_ratio_.end()
            ? ratio < options_.aggressiveness * threshold_
            : ratio < options_.improvement_factor * it->second;
    double removed_fraction = 0;
    if (consider) {
      // A low *mean* ratio can hide a head-heavy distribution where the
      // surviving groups hold nearly all tuples; check the mass that
      // would actually be removed.
      double kept_mass = 0;
      const std::size_t n_col = passing->arity() - 1;
      for (const Tuple& g : passing->rows()) {
        kept_mass += static_cast<double>(g[n_col].AsInt());
      }
      removed_fraction = 1.0 - kept_mass / total_mass;
    }
    const bool should_filter =
        consider && removed_fraction >= options_.min_removed_fraction;
    if (consider) {
      // A filtering opportunity was fully evaluated (the group counts
      // ran), so the set is "seen" whether or not the semi-join was
      // applied — §4.4's "dropped significantly since the last filtering
      // opportunity" measures from here. The baseline is the observed
      // ratio clamped up to the threshold:
      //   * applied: surviving groups each hold >= threshold tuples, so
      //     the true post-filter ratio is at least the threshold;
      //   * declined by the removed-mass check: the raw ratio may sit far
      //     below the threshold, and recording it would demand the next
      //     ratio beat improvement_factor * (tiny), locking filtering out
      //     permanently even after later joins reshape the distribution.
      //     Clamping keeps the re-consideration bar at
      //     improvement_factor * threshold.
      last_ratio_[params] = std::max(ratio, threshold_);
    } else if (it == last_ratio_.end()) {
      last_ratio_[params] = ratio;
    } else {
      it->second = std::min(it->second, ratio);
    }

    DynamicDecision decision;
    decision.at = point.at;
    decision.parameters = std::move(params);
    decision.ratio = ratio;
    decision.considered = consider;
    decision.filtered = should_filter;
    decision.removed_fraction = removed_fraction;
    decision.rows_before = point.rows.size();
    decision.rows_after = point.rows.size();
    decision.wall_ns = MetricsNowNs() - start_ns_;
    log_.decisions.push_back(std::move(decision));
    if (should_filter) return std::optional<Relation>(std::move(*passing));
    if (ctx != nullptr) {
      ctx->Release(static_cast<std::uint64_t>(passing->size()) *
                   ApproxTupleBytes(passing->arity()));
    }
    return std::optional<Relation>();
  }

  void Applied(std::size_t rows_after) override {
    DynamicDecision& decision = log_.decisions.back();
    decision.rows_after = rows_after;
    decision.wall_ns = MetricsNowNs() - start_ns_;
    ++log_.filters_applied;
  }

 private:
  const DynamicOptions& options_;
  double threshold_;
  const std::vector<std::string>& head_vars_;
  DynamicLog& log_;
  // Ratio history per parameter set (the §4.4 "previously encountered"
  // bookkeeping).
  std::map<std::set<std::string>, double> last_ratio_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace

Result<Relation> DynamicEvaluate(
    const QueryFlock& flock, const Database& db, const DynamicOptions& options,
    DynamicLog* log, const std::map<std::string, const Relation*>* extra) {
  if (flock.query.disjuncts.size() != 1) {
    return UnimplementedError(
        "dynamic evaluation handles single-disjunct flocks; union flocks "
        "need union prefilters (§3.4)");
  }
  if (!flock.filter.IsSupportStyle()) {
    return FailedPreconditionError(
        "dynamic filter selection is defined for support-type filters");
  }
  DynamicLog local_log;
  DynamicLog& out_log = log != nullptr ? *log : local_log;
  DynamicPolicy policy(options, flock.filter.threshold,
                       flock.query.disjuncts.front().head_vars, out_log);
  FlockEvalOptions eval_options;
  static_cast<ExecContext&>(eval_options) = options;
  eval_options.per_disjunct.resize(1);
  eval_options.per_disjunct[0].join_order = options.join_order;
  eval_options.per_disjunct[0].filter_policy = &policy;
  if (options.metrics != nullptr && options.metrics->op.empty()) {
    options.metrics->op = "dynamic";
  }
  FlockEvalInfo info;
  Result<Relation> result =
      EvaluateFlock(flock, db, eval_options, extra, &info);
  out_log.peak_rows = info.peak_rows;
  return result;
}

std::string RenderDynamicTrace(const DynamicLog& log) {
  std::string out;
  int step = 1;
  for (const DynamicDecision& d : log.decisions) {
    std::string params;
    for (const std::string& p : d.parameters) {
      if (!params.empty()) params += ",";
      params += p;
    }
    char timing[40] = "";
    if (d.wall_ns > 0) {
      std::snprintf(timing, sizeof(timing), "; %.3fms",
                    static_cast<double>(d.wall_ns) / 1e6);
    }
    char buf[224];
    if (d.filtered) {
      std::snprintf(buf, sizeof(buf),
                    "temp%d(%s) := FILTER at %s   [ratio %.2f; %zu -> %zu "
                    "rows%s]\n",
                    step++, params.c_str(), d.at.c_str(), d.ratio,
                    d.rows_before, d.rows_after, timing);
    } else if (d.considered) {
      // The ratio gate passed but the removed-mass check declined the
      // semi-join — the §4.4 group-size-distribution caveat in action.
      std::snprintf(buf, sizeof(buf),
                    "         no filter at %s (%s)   [ratio %.2f; would "
                    "remove %.0f%%; %zu rows%s]\n",
                    d.at.c_str(), params.c_str(), d.ratio,
                    d.removed_fraction * 100.0, d.rows_before, timing);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "         no filter at %s (%s)   [ratio %.2f; %zu "
                    "rows%s]\n",
                    d.at.c_str(), params.c_str(), d.ratio, d.rows_before,
                    timing);
    }
    out += buf;
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "%zu filter(s) applied; peak intermediate %zu rows\n",
                log.filters_applied, log.peak_rows);
  out += tail;
  return out;
}

}  // namespace qf
