#include "flocks/cq_eval.h"

#include <algorithm>
#include <optional>
#include <set>
#include <span>

#include "common/check.h"
#include "common/flat_hash.h"
#include "common/thread_pool.h"
#include "datalog/acyclic.h"
#include "relational/ops.h"
#include "relational/spill.h"

namespace qf {

std::string TermColumn(const Term& term) {
  QF_CHECK_MSG(!term.is_constant(), "constants have no binding column");
  return term.is_parameter() ? "$" + term.name() : term.name();
}

Result<const Relation*> PredicateResolver::Resolve(
    const std::string& name) const {
  if (extra_ != nullptr) {
    auto it = extra_->find(name);
    if (it != extra_->end()) return it->second;
  }
  if (db_->Has(name)) return &db_->Get(name);
  return NotFoundError("unknown predicate: " + name);
}

Relation SubgoalBindings(const Subgoal& subgoal, const Relation& base,
                         unsigned threads, OpMetrics* metrics,
                         QueryContext* ctx) {
  const std::vector<Term>& args = subgoal.args();
  QF_CHECK_MSG(args.size() == base.arity(),
               ("arity mismatch for predicate " + subgoal.predicate()).c_str());

  // First occurrence position of each distinct column, plus the checks a
  // row must pass: constant positions and repeated-term equalities.
  std::vector<std::string> columns;
  std::vector<std::size_t> keep;            // positions projected
  std::vector<std::pair<std::size_t, Value>> constant_checks;
  std::vector<std::pair<std::size_t, std::size_t>> equal_checks;
  std::map<std::string, std::size_t> first_seen;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Term& t = args[i];
    if (t.is_constant()) {
      constant_checks.emplace_back(i, t.constant());
      continue;
    }
    std::string col = TermColumn(t);
    auto [it, inserted] = first_seen.emplace(col, i);
    if (inserted) {
      columns.push_back(std::move(col));
      keep.push_back(i);
    } else {
      equal_checks.emplace_back(it->second, i);
    }
  }

  auto matches = [&constant_checks, &equal_checks](const Tuple& row) {
    for (const auto& [pos, value] : constant_checks) {
      if (!(row[pos] == value)) return false;
    }
    for (const auto& [a, b] : equal_checks) {
      if (!(row[a] == row[b])) return false;
    }
    return true;
  };

  Relation out{Schema(columns)};
  std::uint64_t mem = 0;
  constexpr std::size_t kMorselRows = 4096;
  if (threads <= 1 || base.size() < 2 * kMorselRows) {
    OpGovernor gov(ctx, ApproxTupleBytes(columns.size()));
    for (const Tuple& row : base.rows()) {
      if (!gov.TickInput()) break;
      if (matches(row)) {
        if (!gov.Admit()) break;
        out.Add(ProjectTuple(row, keep));
      }
    }
    gov.Flush();
    mem = gov.total_bytes();
  } else {
    if (metrics != nullptr) {
      metrics->morsels += MorselCount(base.size(), kMorselRows);
    }
    // Morsel-parallel scan; concatenating the per-morsel buffers in
    // morsel order reproduces the serial row order exactly. Workers test
    // the governor latch at morsel start and bail per stride within.
    std::vector<std::vector<Tuple>> buffers(
        MorselCount(base.size(), kMorselRows));
    std::vector<std::uint64_t> morsel_bytes(buffers.size(), 0);
    ParallelFor(threads, base.size(), kMorselRows,
                [&](std::size_t begin, std::size_t end) {
                  if (ctx != nullptr && !ctx->Poll()) return;
                  std::vector<Tuple>& buf = buffers[begin / kMorselRows];
                  OpGovernor gov(ctx, ApproxTupleBytes(columns.size()));
                  for (std::size_t r = begin; r < end; ++r) {
                    if (!gov.TickInput()) break;
                    const Tuple& row = base.rows()[r];
                    if (matches(row)) {
                      if (!gov.Admit()) break;
                      buf.push_back(ProjectTuple(row, keep));
                    }
                  }
                  gov.Flush();
                  morsel_bytes[begin / kMorselRows] = gov.total_bytes();
                });
    std::size_t total = 0;
    for (const auto& buf : buffers) total += buf.size();
    out.mutable_rows().reserve(total);
    for (auto& buf : buffers) {
      for (Tuple& t : buf) out.mutable_rows().push_back(std::move(t));
    }
    for (std::uint64_t mb : morsel_bytes) mem += mb;
  }
  // Dropping constant-checked positions cannot merge distinct base rows,
  // but a subgoal with *no* variables (all constants) produces arity-0
  // tuples that must collapse to at most one.
  if (columns.empty()) out.Dedup();
  if (metrics != nullptr) {
    metrics->rows_in += base.size();
    metrics->rows_out += out.size();
    metrics->mem_bytes += mem;
  }
  return out;
}

namespace {

// A comparison applied as a row predicate once its columns are bound.
struct PendingComparison {
  const Subgoal* subgoal;
  bool applied = false;
};

struct PendingNegation {
  const Subgoal* subgoal;
  Relation bindings;  // binding relation of the negated atom
  bool applied = false;
};

// Resolves the value of a term in a row of `schema` (column or constant).
const Value& TermValue(const Term& t, const Schema& schema, const Tuple& row) {
  if (t.is_constant()) return t.constant();
  std::optional<std::size_t> idx = schema.IndexOf(TermColumn(t));
  QF_CHECK(idx.has_value());
  return row[*idx];
}

bool ColumnsBound(const std::vector<Term>& terms, const Schema& schema) {
  for (const Term& t : terms) {
    if (t.is_constant()) continue;
    if (!schema.Contains(TermColumn(t))) return false;
  }
  return true;
}

// A positive subgoal's binding relation. A subgoal that only renames its
// base relation's columns (distinct variables, no constants) starts as a
// view of the base rows: nothing is copied or charged until an operator
// needs a relation of its own, and the fused final join reads views in
// place — so the pair flock's body copies no row at all.
struct Binding {
  const Subgoal* subgoal = nullptr;
  const Relation* view = nullptr;  // the base, while this is a view
  Relation rel;                    // the schema; the rows once owned

  const std::vector<Tuple>& rows() const {
    return view != nullptr ? view->rows() : rel.rows();
  }
  std::size_t size() const { return rows().size(); }
  bool empty() const { return rows().empty(); }
  const Schema& schema() const { return rel.schema(); }
  std::size_t arity() const { return rel.arity(); }
};

// True when SubgoalBindings(subgoal, base) would equal `base` renamed.
bool RenamesBase(const Subgoal& subgoal) {
  std::set<std::string> seen;
  for (const Term& t : subgoal.args()) {
    if (t.is_constant() || !seen.insert(TermColumn(t)).second) return false;
  }
  return !seen.empty();
}

// The default sink: dedups pushed rows into a relation in first-occurrence
// order — exactly Project's output over the rows pushed — and charges
// ApproxTupleBytes per kept row, as Project does.
class CollectingSink : public TupleSink {
 public:
  CollectingSink(Schema schema, QueryContext* ctx)
      : out_(std::move(schema)),
        ctx_(ctx),
        gov_(ctx, ApproxTupleBytes(out_.arity())) {}

  using TupleSink::Push;
  Status Push(std::span<const Value> row) override {
    QF_CHECK_MSG(out_.size() < 0xFFFFFFFFull,
                 "flat-hash kernels address at most 2^32-1 rows");
    bool fresh = seen_.Insert(
        static_cast<std::uint32_t>(out_.size()), TupleHash::Of(row),
        [&](std::uint32_t prev) {
          const Tuple& t = out_.rows()[prev];
          return std::equal(t.begin(), t.end(), row.begin(), row.end());
        },
        probes_);
    if (!fresh) return Status::Ok();
    if (!gov_.Admit()) return ctx_->Check();
    out_.Add(Tuple(row.begin(), row.end()));
    return Status::Ok();
  }

  // Charges the last partial stride; the context's error if it tripped.
  Status Flush() {
    if (!gov_.Flush() && ctx_ != nullptr) return ctx_->Check();
    return Status::Ok();
  }
  Relation& rows() { return out_; }
  std::uint64_t probes() const { return probes_; }
  std::uint64_t mem_bytes() const { return gov_.total_bytes(); }

 private:
  Relation out_;
  QueryContext* ctx_;
  OpGovernor gov_;
  FlatTupleSet seen_;
  std::uint64_t probes_ = 0;
};

// The fused final join: probes `build` with the rows of `probe` (or, with
// no build side, takes `probe`'s rows as they are), tests each joined row
// against the still-pending comparisons and negations, and emits its
// projection onto the output columns. Joined rows are never built: every
// column is read in place from the probe row or the build match. Emission
// order is NaturalJoin's — probe rows in order, matches in build order.
class FusedJoin {
 public:
  // Counters of one run.
  struct Counters {
    std::uint64_t joined = 0;  // rows the join produced
    std::uint64_t passed = 0;  // ... that passed every fused predicate
    std::uint64_t probes = 0;  // hash-table slot probes
  };

  FusedJoin(const Binding& probe, const Binding* build,
            const Schema& joined, std::vector<std::size_t> b_rest,
            const std::vector<const Subgoal*>& compares,
            const std::vector<const Relation*>& negations,
            const std::vector<std::string>& output_columns,
            std::uint64_t& build_probes)
      : probe_(probe),
        build_(build),
        b_rest_(std::move(b_rest)),
        a_arity_(probe.arity()) {
    for (const Subgoal* s : compares) {
      compares_.push_back(
          {s->op(), Resolve(s->lhs(), joined), Resolve(s->rhs(), joined)});
    }
    for (const Relation* bindings : negations) {
      Negation n;
      n.bindings = bindings;
      const Schema& ns = bindings->schema();
      for (std::size_t j = 0; j < ns.arity(); ++j) {
        if (std::optional<std::size_t> col = joined.IndexOf(ns.column(j))) {
          n.row_cols.push_back(*col);
          n.neg_cols.push_back(j);
        }
      }
      // With no shared column AntiJoin keeps every row iff the binding
      // is empty.
      n.drop_all = n.row_cols.empty() && !bindings->empty();
      if (!n.row_cols.empty()) {
        QF_CHECK_MSG(bindings->size() < 0xFFFFFFFFull,
                     "flat-hash kernels address at most 2^32-1 rows");
        KeyCols key(n.neg_cols, bindings->arity());
        const std::vector<Tuple>& nrows = bindings->rows();
        n.keys.Reserve(nrows.size());
        for (std::size_t r = 0; r < nrows.size(); ++r) {
          n.keys.Insert(
              static_cast<std::uint32_t>(r), key.Hash(nrows[r]),
              [&](std::uint32_t prev) { return key.Eq(nrows[r], nrows[prev]); },
              build_probes);
        }
      }
      negations_.push_back(std::move(n));
    }
    for (const std::string& c : output_columns) {
      out_cols_.push_back(*joined.IndexOf(c));
    }
    if (build_ != nullptr && !probe.empty() && !build->empty()) {
      // Shared columns form the join key (relational/ops.cc's layout).
      for (std::size_t j = 0; j < build->arity(); ++j) {
        if (std::optional<std::size_t> i =
                probe.schema().IndexOf(build->schema().column(j))) {
          a_key_idx_.push_back(*i);
          b_key_idx_.push_back(j);
        }
      }
      QF_CHECK_MSG(build->size() < 0xFFFFFFFFull,
                   "flat-hash kernels address at most 2^32-1 rows");
      KeyCols b_key(b_key_idx_, build->arity());
      const std::vector<Tuple>& b_rows = build->rows();
      index_.Reserve(b_rows.size());
      for (std::size_t r = 0; r < b_rows.size(); ++r) {
        index_.AddRow(
            static_cast<std::uint32_t>(r), b_key.Hash(b_rows[r]),
            [&](std::uint32_t prev) { return b_key.Eq(b_rows[r], b_rows[prev]); },
            build_probes);
      }
      index_.Finalize();
    }
  }

  std::size_t out_arity() const { return out_cols_.size(); }

  // Runs every probe row, calling emit(row) for each output row in probe
  // order; stops early when emit returns false or the context trips.
  template <typename Emit>
  void Run(QueryContext* ctx, const Emit& emit, Counters& c) const {
    if (build_ != nullptr && (probe_.empty() || build_->empty())) return;
    std::vector<Value> out(out_cols_.size());
    OpGovernor gov(ctx, 0);  // input polling; the sink owns the output
    const std::vector<Tuple>& a_rows = probe_.rows();
    auto consider = [&](const Tuple& ta, const Tuple* tb) {
      ++c.joined;
      auto at = [&](std::size_t col) -> const Value& {
        return col < a_arity_ ? ta[col] : (*tb)[b_rest_[col - a_arity_]];
      };
      if (!Passes(at, c.probes)) return true;
      ++c.passed;
      for (std::size_t i = 0; i < out_cols_.size(); ++i) {
        out[i] = at(out_cols_[i]);
      }
      return emit(std::span<const Value>(out));
    };
    if (build_ == nullptr) {
      for (const Tuple& ta : a_rows) {
        if (!gov.TickInput() || !consider(ta, nullptr)) return;
      }
      return;
    }
    KeyCols a_key(a_key_idx_, a_arity_);
    KeyCols b_key(b_key_idx_, build_->arity());
    const std::vector<Tuple>& b_rows = build_->rows();
    for (const Tuple& ta : a_rows) {
      if (!gov.TickInput()) return;
      FlatKeyIndex::Span matches = index_.Probe(
          a_key.Hash(ta),
          [&](std::uint32_t br) { return a_key.EqAcross(ta, b_key, b_rows[br]); },
          c.probes);
      for (const std::uint32_t* p = matches.begin; p != matches.end; ++p) {
        if (!consider(ta, &b_rows[*p])) return;
      }
    }
  }

 private:
  // A predicate term: a joined-row column, or a constant when `constant`
  // is set.
  struct TermRef {
    std::size_t col = 0;
    const Value* constant = nullptr;
  };
  struct Compare {
    CompareOp op;
    TermRef lhs, rhs;
  };
  struct Negation {
    const Relation* bindings = nullptr;
    std::vector<std::size_t> row_cols;  // shared columns, joined schema
    std::vector<std::size_t> neg_cols;  // the same columns, binding schema
    FlatTupleSet keys;                  // distinct keys of the binding
    bool drop_all = false;
  };

  static TermRef Resolve(const Term& t, const Schema& joined) {
    if (t.is_constant()) return {0, &t.constant()};
    return {*joined.IndexOf(TermColumn(t)), nullptr};
  }

  template <typename At>
  bool Passes(const At& at, std::uint64_t& probes) const {
    for (const Compare& cmp : compares_) {
      const Value& l = cmp.lhs.constant ? *cmp.lhs.constant : at(cmp.lhs.col);
      const Value& r = cmp.rhs.constant ? *cmp.rhs.constant : at(cmp.rhs.col);
      if (!EvalCompare(cmp.op, l, r)) return false;
    }
    for (const Negation& n : negations_) {
      if (n.drop_all) return false;
      if (n.row_cols.empty()) continue;  // empty binding keeps every row
      std::size_t h = n.row_cols.size();
      for (std::size_t col : n.row_cols) {
        h = TupleHash::HashCombineValue(h, at(col));
      }
      const std::vector<Tuple>& nrows = n.bindings->rows();
      bool present = n.keys.Contains(
          h,
          [&](std::uint32_t ref) {
            for (std::size_t i = 0; i < n.row_cols.size(); ++i) {
              if (!(at(n.row_cols[i]) == nrows[ref][n.neg_cols[i]])) {
                return false;
              }
            }
            return true;
          },
          probes);
      if (present) return false;
    }
    return true;
  }

  const Binding& probe_;
  const Binding* build_;
  std::vector<std::size_t> b_rest_;
  std::size_t a_arity_;
  std::vector<std::size_t> a_key_idx_;
  std::vector<std::size_t> b_key_idx_;
  FlatKeyIndex index_;
  std::vector<Compare> compares_;
  std::vector<Negation> negations_;
  std::vector<std::size_t> out_cols_;
};


}  // namespace

Result<Relation> EvaluateConjunctiveBindings(
    const ConjunctiveQuery& cq, const PredicateResolver& resolver,
    const std::vector<std::string>& output_columns,
    const CqEvalOptions& options, std::size_t* peak_rows) {
  // Partition subgoals.
  std::vector<const Subgoal*> positives;
  std::vector<PendingComparison> comparisons;
  std::vector<PendingNegation> negations;
  for (const Subgoal& s : cq.subgoals) {
    if (s.is_positive()) {
      positives.push_back(&s);
    } else if (s.is_comparison()) {
      comparisons.push_back({&s});
    } else {
      negations.push_back({&s, Relation()});
    }
  }
  if (positives.empty()) {
    return FailedPreconditionError(
        "cannot evaluate a query with no positive subgoals (unsafe)");
  }

  // Constant-only comparisons decide emptiness up front.
  for (PendingComparison& pc : comparisons) {
    const Subgoal& s = *pc.subgoal;
    if (s.lhs().is_constant() && s.rhs().is_constant()) {
      pc.applied = true;
      if (!EvalCompare(s.op(), s.lhs().constant(), s.rhs().constant())) {
        return Relation{Schema(output_columns)};
      }
    }
  }

  // Observability: `m` roots this query's operator tree; the trace sink
  // is only consulted when metrics are on (ScopedOp enforces this too).
  OpMetrics* m = options.metrics;
  TraceSink* tr = options.tracer();
  // Governance: check the context after every operator (truncated output
  // from a tripped operator must never be mistaken for a result), and
  // return accounted bytes of dropped intermediates to the pool.
  QueryContext* ctx = options.ctx;
  auto release = [ctx](const Relation& r) {
    if (ctx != nullptr) {
      ctx->Release(static_cast<std::uint64_t>(r.size()) *
                   ApproxTupleBytes(r.arity()));
    }
  };

  // Resolve bases and precompute binding relations (views of the base
  // where the subgoal only renames it).
  std::vector<Binding> positive_bindings(positives.size());
  for (std::size_t i = 0; i < positives.size(); ++i) {
    const Subgoal* s = positives[i];
    Result<const Relation*> base = resolver.Resolve(s->predicate());
    if (!base.ok()) return base.status();
    if ((*base)->arity() != s->args().size()) {
      return InvalidArgumentError("arity mismatch for predicate " +
                                  s->predicate());
    }
    OpMetrics* node = m != nullptr ? m->AddChild("scan", s->predicate())
                                   : nullptr;
    ScopedOp span(node, tr);
    Binding& b = positive_bindings[i];
    b.subgoal = s;
    if (RenamesBase(*s)) {
      std::vector<std::string> columns;
      for (const Term& t : s->args()) columns.push_back(TermColumn(t));
      b.view = *base;
      b.rel = Relation{Schema(std::move(columns))};
      if (node != nullptr) {
        node->rows_in += b.size();
        node->rows_out += b.size();
      }
    } else {
      b.rel = SubgoalBindings(*s, **base, options.threads, node, ctx);
    }
    if (Status s2 = options.Check(); !s2.ok()) return s2;
  }
  // Gives a view binding rows of its own (charged like any scan output).
  auto own = [&](Binding& b) {
    if (b.view == nullptr) return;
    b.rel = SubgoalBindings(*b.subgoal, *b.view, options.threads, nullptr,
                            ctx);
    b.view = nullptr;
  };
  auto release_binding = [&](Binding& b) {
    if (b.view == nullptr) release(b.rel);
    b = Binding();
  };
  for (PendingNegation& pn : negations) {
    Result<const Relation*> base = resolver.Resolve(pn.subgoal->predicate());
    if (!base.ok()) return base.status();
    if ((*base)->arity() != pn.subgoal->args().size()) {
      return InvalidArgumentError("arity mismatch for predicate " +
                                  pn.subgoal->predicate());
    }
    OpMetrics* node =
        m != nullptr ? m->AddChild("scan", "NOT " + pn.subgoal->predicate())
                     : nullptr;
    ScopedOp span(node, tr);
    pn.bindings =
        SubgoalBindings(*pn.subgoal, **base, options.threads, node, ctx);
    if (Status s2 = options.Check(); !s2.ok()) return s2;
  }

  // Optional Yannakakis full-reducer pass (acyclic queries only).
  std::optional<JoinTree> tree;
  if (options.full_reducer) {
    tree = BuildJoinTree(cq);
    if (tree.has_value()) {
      auto reduce = [&](std::size_t target, std::size_t with) {
        OpMetrics* node =
            m != nullptr
                ? m->AddChild("semi_join",
                              "reduce " + positives[target]->predicate() +
                                  " by " + positives[with]->predicate())
                : nullptr;
        ScopedOp span(node, tr);
        Binding& reduced = positive_bindings[target];
        own(reduced);
        own(positive_bindings[with]);
        std::uint64_t dropped = static_cast<std::uint64_t>(reduced.size()) *
                                ApproxTupleBytes(reduced.arity());
        reduced.rel =
            SemiJoin(reduced.rel, positive_bindings[with].rel, node, ctx);
        if (ctx != nullptr) ctx->Release(dropped);
      };
      // Bottom-up: parents lose tuples with no match in their ears.
      for (std::size_t k = 0; k < tree->ears.size(); ++k) {
        reduce(tree->parents[k], tree->ears[k]);
        if (Status s2 = options.Check(); !s2.ok()) return s2;
      }
      // Top-down: ears lose tuples with no match in their (reduced)
      // parents. After both sweeps the bindings are globally consistent.
      for (std::size_t k = tree->ears.size(); k-- > 0;) {
        reduce(tree->ears[k], tree->parents[k]);
        if (Status s2 = options.Check(); !s2.ok()) return s2;
      }
    }
  }

  // Join order.
  std::vector<std::size_t> order = options.join_order;
  if (tree.has_value()) {
    // Tree order: root first, then ears innermost-out, so every join
    // touches its already-present parent (no cross products).
    order.clear();
    order.push_back(tree->root);
    for (std::size_t k = tree->ears.size(); k-- > 0;) {
      order.push_back(tree->ears[k]);
    }
  }
  if (order.empty()) {
    order.resize(positives.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  } else {
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i >= positives.size() || sorted[i] != i) {
        return InvalidArgumentError(
            "join_order must be a permutation of the positive subgoals");
      }
    }
    if (sorted.size() != positives.size()) {
      return InvalidArgumentError(
          "join_order must be a permutation of the positive subgoals");
    }
  }

  // Offers a filter point, named by label(), to options.filter_policy and
  // applies its decision: a semi-join with the kept parameter assignments.
  // A view is given rows of its own only when it is filtered.
  FilterPolicy* policy = options.filter_policy;
  auto offer = [&](Binding& b, const auto& label) -> Status {
    if (policy == nullptr || b.empty() ||
        std::none_of(b.schema().columns().begin(), b.schema().columns().end(),
                     [](const std::string& c) { return c.starts_with('$'); })) {
      return Status::Ok();
    }
    std::string at = label();
    OpMetrics* node = m != nullptr ? m->AddChild("dyn_filter", at) : nullptr;
    ScopedOp span(node, tr);
    const std::size_t before = b.size();
    Result<std::optional<Relation>> keep =
        policy->Decide({std::move(at), b.schema(), b.rows(), node});
    if (!keep.ok()) return keep.status();
    if (keep->has_value()) {
      OpMetrics* snode =
          node != nullptr ? node->AddChild("semi_join", "reduce by filter")
                          : nullptr;
      ScopedOp sspan(snode, tr);
      own(b);
      std::uint64_t dropped = static_cast<std::uint64_t>(b.size()) *
                              ApproxTupleBytes(b.arity());
      b.rel = SemiJoin(b.rel, **keep, snode, ctx);
      if (ctx != nullptr) ctx->Release(dropped);
      release(**keep);
      policy->Applied(b.size());
    }
    if (node != nullptr) {
      node->rows_in += before;
      node->rows_out += b.size();
    }
    return options.Check();
  };
  auto offer_leaf = [&](Binding& b) {
    return offer(b, [&b] { return "leaf " + b.subgoal->ToString(); });
  };

  // Fold joins, applying comparisons and negations as soon as bound.
  Binding current = std::move(positive_bindings[order[0]]);
  if (Status s2 = offer_leaf(current); !s2.ok()) return s2;
  std::size_t peak = current.size();
  auto apply_ready = [&]() {
    for (PendingComparison& pc : comparisons) {
      if (pc.applied) continue;
      const Subgoal& s = *pc.subgoal;
      if (!ColumnsBound(s.terms(), current.schema())) continue;
      pc.applied = true;
      own(current);
      const Schema& schema = current.schema();
      OpMetrics* node =
          m != nullptr ? m->AddChild("select", s.ToString()) : nullptr;
      ScopedOp span(node, tr);
      std::uint64_t dropped = static_cast<std::uint64_t>(current.size()) *
                              ApproxTupleBytes(current.arity());
      current.rel = Select(
          current.rel,
          [&s, &schema](const Tuple& row) {
            return EvalCompare(s.op(), TermValue(s.lhs(), schema, row),
                               TermValue(s.rhs(), schema, row));
          },
          node, ctx);
      if (ctx != nullptr) ctx->Release(dropped);
    }
    for (PendingNegation& pn : negations) {
      if (pn.applied) continue;
      if (!ColumnsBound(pn.subgoal->terms(), current.schema())) continue;
      pn.applied = true;
      own(current);
      OpMetrics* node =
          m != nullptr ? m->AddChild("anti_join", pn.subgoal->predicate())
                       : nullptr;
      ScopedOp span(node, tr);
      std::uint64_t dropped = static_cast<std::uint64_t>(current.size()) *
                              ApproxTupleBytes(current.arity());
      current.rel = AntiJoin(current.rel, pn.bindings, node, ctx);
      if (ctx != nullptr) {
        ctx->Release(dropped);
        release(pn.bindings);
        pn.bindings = Relation();
      }
    }
  };
  apply_ready();
  if (Status s2 = options.Check(); !s2.ok()) return s2;
  // Every join but the last materializes its (filtered) result.
  for (std::size_t k = 1; k + 1 < order.size(); ++k) {
    Binding& next = positive_bindings[order[k]];
    if (Status s2 = offer_leaf(next); !s2.ok()) return s2;
    OpMetrics* node =
        m != nullptr ? m->AddChild("join", positives[order[k]]->predicate())
                     : nullptr;
    {
      ScopedOp span(node, tr);
      // The parallel join preserves the serial join's row order, so the
      // fold's intermediates are identical for every thread count.
      own(current);
      own(next);
      std::uint64_t dropped = static_cast<std::uint64_t>(current.size()) *
                              ApproxTupleBytes(current.arity());
      current.rel =
          options.threads > 1
              ? ParallelNaturalJoin(current.rel, next.rel, options.threads,
                                    node, ctx)
              : NaturalJoin(current.rel, next.rel, node, ctx);
      // The old intermediate and the consumed binding are dead; hand
      // their accounted bytes back (and actually free the binding).
      if (ctx != nullptr) ctx->Release(dropped);
      release_binding(next);
    }
    if (Status s2 = options.Check(); !s2.ok()) return s2;
    peak = std::max(peak, current.size());
    apply_ready();
    if (Status s2 = options.Check(); !s2.ok()) return s2;
    if (Status s2 = offer(current,
                          [k] { return "after join " + std::to_string(k); });
        !s2.ok()) {
      return s2;
    }
  }

  // The final join is fused (DESIGN.md §14): each joined row is tested
  // against the still-pending comparisons and negations, projected onto
  // output_columns, and pushed into a sink — neither the join output nor
  // a selection or projection of it is ever materialized. With a single
  // positive subgoal the scan's rows stream the same way.
  Binding* build =
      order.size() > 1 ? &positive_bindings[order.back()] : nullptr;
  if (build != nullptr) {
    if (Status s2 = offer_leaf(*build); !s2.ok()) return s2;
  }
  std::vector<std::string> joined_cols = current.schema().columns();
  std::vector<std::size_t> b_rest;
  if (build != nullptr) {
    for (std::size_t j = 0; j < build->arity(); ++j) {
      const std::string& col = build->schema().column(j);
      if (!current.schema().Contains(col)) {
        b_rest.push_back(j);
        joined_cols.push_back(col);
      }
    }
  }
  Schema joined{joined_cols};
  std::vector<const Subgoal*> fused_compares;
  std::vector<const Relation*> fused_negations;
  std::string fused_detail;
  for (const PendingComparison& pc : comparisons) {
    if (pc.applied) continue;
    if (!ColumnsBound(pc.subgoal->terms(), joined)) {
      return FailedPreconditionError(
          "arithmetic subgoal never became bound (unsafe query): " +
          pc.subgoal->ToString());
    }
    fused_compares.push_back(pc.subgoal);
    fused_detail += (fused_detail.empty() ? "" : " AND ") +
                    pc.subgoal->ToString();
  }
  for (const PendingNegation& pn : negations) {
    if (pn.applied) continue;
    if (!ColumnsBound(pn.subgoal->terms(), joined)) {
      return FailedPreconditionError(
          "negated subgoal never became bound (unsafe query): " +
          pn.subgoal->ToString());
    }
    fused_negations.push_back(&pn.bindings);
    fused_detail += (fused_detail.empty() ? "" : " AND ") +
                    pn.subgoal->ToString();
  }
  for (const std::string& c : output_columns) {
    if (!joined.Contains(c)) {
      return InvalidArgumentError("output column " + c +
                                  " is not bound by the query body");
    }
  }

  // Nodes: a "join [fused]" carrying the fused "select" and "project" as
  // children, or just "project" when nothing is joined.
  OpMetrics* join_node = nullptr;
  OpMetrics* select_node = nullptr;
  OpMetrics* project_node = nullptr;
  if (m != nullptr) {
    if (build != nullptr) {
      join_node = m->AddChild(
          "join", positives[order.back()]->predicate() + " [fused]");
      if (!fused_detail.empty()) {
        select_node = join_node->AddChild("select", fused_detail);
      }
      project_node = join_node->AddChild("project");
    } else {
      project_node = m->AddChild("project");
    }
  }
  std::optional<CollectingSink> collector;
  TupleSink* sink = options.sink;
  if (sink == nullptr) sink = &collector.emplace(Schema(output_columns), ctx);

  FusedJoin::Counters totals;
  Status push_status;
  {
    ScopedOp span(join_node != nullptr ? join_node : project_node, tr);
    FusedJoin fused(current, build, joined, std::move(b_rest), fused_compares,
                    fused_negations, output_columns, totals.probes);
    fused.Run(ctx,
              [&](std::span<const Value> row) {
                push_status = sink->Push(row);
                return push_status.ok();
              },
              totals);
    if (push_status.ok() && collector.has_value()) {
      push_status = collector->Flush();
    }
  }
  if (!push_status.ok()) return push_status;
  if (Status s2 = options.Check(); !s2.ok()) return s2;

  peak = std::max<std::size_t>(peak, totals.joined);
  if (peak_rows != nullptr) *peak_rows = peak;
  if (join_node != nullptr) {
    join_node->rows_in += current.size();
    join_node->rows_in_right += build->size();
    join_node->rows_out += totals.joined;
    join_node->tuples_probed += totals.probes;
    if (select_node != nullptr) {
      select_node->rows_in += totals.joined;
      select_node->rows_out += totals.passed;
    }
  }
  if (project_node != nullptr) {
    project_node->rows_in += totals.passed;
    if (collector.has_value()) {
      project_node->rows_out += collector->rows().size();
      project_node->tuples_probed += collector->probes();
      project_node->mem_bytes += collector->mem_bytes();
    } else {
      project_node->rows_out += totals.passed;
    }
  }
  // Everything materialized is now dead: the fold intermediate, the final
  // binding, and the consumed negation bindings.
  release_binding(current);
  if (build != nullptr) release_binding(*build);
  for (PendingNegation& pn : negations) {
    if (pn.applied) continue;
    release(pn.bindings);
    pn.bindings = Relation();
  }
  if (m != nullptr) m->rows_in += totals.passed;
  if (!collector.has_value()) return Relation{Schema(output_columns)};
  if (m != nullptr) m->rows_out += collector->rows().size();
  return std::move(collector->rows());
}

}  // namespace qf
