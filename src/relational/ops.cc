#include "relational/ops.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/flat_hash.h"
#include "common/thread_pool.h"

namespace qf {
namespace {

// Column indices in `a` and `b` of the columns they share (by name), plus
// the indices of b's non-shared columns.
struct JoinLayout {
  std::vector<std::size_t> a_key;
  std::vector<std::size_t> b_key;
  std::vector<std::size_t> b_rest;
};

JoinLayout ComputeJoinLayout(const Relation& a, const Relation& b) {
  JoinLayout layout;
  for (std::size_t j = 0; j < b.arity(); ++j) {
    std::optional<std::size_t> i = a.schema().IndexOf(b.schema().column(j));
    if (i.has_value()) {
      layout.a_key.push_back(*i);
      layout.b_key.push_back(j);
    } else {
      layout.b_rest.push_back(j);
    }
  }
  return layout;
}

// The flat-hash kernels address rows by 32-bit refs.
void CheckRefRange(std::size_t rows) {
  QF_CHECK_MSG(rows < 0xFFFFFFFFull,
               "flat-hash kernels address at most 2^32-1 rows");
}

// Builds the join hash index over `rel`'s `key` columns: key columns are
// hashed/compared in place on the stored rows, so no key Tuple is ever
// materialized. Slot probes accumulate into `probes`.
FlatKeyIndex BuildFlatIndex(const Relation& rel, const KeyCols& key,
                            std::uint64_t& probes) {
  CheckRefRange(rel.size());
  FlatKeyIndex index;
  index.Reserve(rel.size());
  const std::vector<Tuple>& rows = rel.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Tuple& t = rows[r];
    index.AddRow(
        static_cast<std::uint32_t>(r), key.Hash(t),
        [&](std::uint32_t prev) { return key.Eq(t, rows[prev]); }, probes);
  }
  index.Finalize();
  return index;
}

Schema JoinedSchema(const Relation& a, const Relation& b,
                    const JoinLayout& layout) {
  std::vector<std::string> columns = a.schema().columns();
  for (std::size_t j : layout.b_rest) columns.push_back(b.schema().column(j));
  return Schema(std::move(columns));
}

}  // namespace

Relation Project(const Relation& rel,
                 const std::vector<std::string>& columns,
                 OpMetrics* metrics, QueryContext* ctx) {
  std::vector<std::size_t> indices;
  indices.reserve(columns.size());
  for (const std::string& c : columns) {
    indices.push_back(rel.schema().IndexOfOrDie(c));
  }
  Relation out{Schema(columns)};
  CheckRefRange(rel.size());
  KeyCols key(indices, rel.arity());
  // Dedup rows by their projected columns in place — the projection is
  // materialized only for rows that survive.
  FlatTupleSet seen;
  seen.Reserve(rel.size());
  std::uint64_t probes = 0;
  OpGovernor gov(ctx, ApproxTupleBytes(columns.size()));
  const std::vector<Tuple>& rows = rel.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!gov.TickInput()) break;
    const Tuple& t = rows[r];
    bool fresh = seen.Insert(
        static_cast<std::uint32_t>(r), key.Hash(t),
        [&](std::uint32_t prev) { return key.Eq(t, rows[prev]); }, probes);
    if (fresh) {
      if (!gov.Admit()) break;
      out.Add(key.Extract(t));
    }
  }
  gov.Flush();
  if (metrics != nullptr) {
    metrics->rows_in += rel.size();
    metrics->rows_out += out.size();
    metrics->tuples_probed += probes;  // dedup-set slot probes
    metrics->mem_bytes += gov.total_bytes();
  }
  return out;
}

Relation Select(const Relation& rel,
                const std::function<bool(const Tuple&)>& pred,
                OpMetrics* metrics, QueryContext* ctx) {
  Relation out(rel.schema());
  OpGovernor gov(ctx, ApproxTupleBytes(rel.arity()));
  for (const Tuple& t : rel.rows()) {
    if (!gov.TickInput()) break;
    if (pred(t)) {
      if (!gov.Admit()) break;
      out.Add(t);
    }
  }
  gov.Flush();
  if (metrics != nullptr) {
    metrics->rows_in += rel.size();
    metrics->rows_out += out.size();
    metrics->mem_bytes += gov.total_bytes();
  }
  return out;
}

Relation Rename(Relation rel, std::vector<std::string> new_names) {
  QF_CHECK_MSG(new_names.size() == rel.arity(), "Rename arity mismatch");
  Relation out(Schema(std::move(new_names)));
  out.mutable_rows() = std::move(rel.mutable_rows());
  return out;
}

namespace {

// Shared counter bookkeeping for the hash-join variants: row counters are
// identical whichever execution path produced `out`, so serial and
// parallel joins report the same numbers for the same inputs.
void RecordJoinMetrics(OpMetrics* metrics, const Relation& a,
                       const Relation& b, const Relation& out,
                       std::uint64_t probes) {
  if (metrics == nullptr) return;
  metrics->rows_in += a.size();
  metrics->rows_in_right += b.size();
  metrics->rows_out += out.size();
  // Hash-table slot probes across the build and probe phases (zero when
  // an empty input short-circuits both). The build index and per-row
  // probe paths are identical at every thread count, so the count is
  // thread-invariant.
  metrics->tuples_probed += probes;
}

}  // namespace

Relation NaturalJoin(const Relation& a, const Relation& b,
                     OpMetrics* metrics, QueryContext* ctx) {
  JoinLayout layout = ComputeJoinLayout(a, b);
  // Build the hash index on the smaller input; probe with the other. The
  // output layout is fixed (a's columns then b's extras) either way.
  Relation out(JoinedSchema(a, b, layout));
  if (a.empty() || b.empty()) {
    RecordJoinMetrics(metrics, a, b, out, 0);
    return out;
  }
  KeyCols a_key(layout.a_key, a.arity());
  KeyCols b_key(layout.b_key, b.arity());
  std::uint64_t probes = 0;
  FlatKeyIndex index = BuildFlatIndex(b, b_key, probes);
  OpGovernor gov(ctx, ApproxTupleBytes(out.arity()));
  bool live = true;
  for (const Tuple& ta : a.rows()) {
    if (!live || !gov.TickInput()) break;
    FlatKeyIndex::Span span = index.Probe(
        a_key.Hash(ta),
        [&](std::uint32_t rb) {
          return a_key.EqAcross(ta, b_key, b.rows()[rb]);
        },
        probes);
    for (const std::uint32_t* p = span.begin; p != span.end; ++p) {
      if (!gov.Admit()) {
        live = false;
        break;
      }
      Tuple combined = ta;
      const Tuple& tb = b.rows()[*p];
      for (std::size_t j : layout.b_rest) combined.push_back(tb[j]);
      out.Add(std::move(combined));
    }
  }
  gov.Flush();
  RecordJoinMetrics(metrics, a, b, out, probes);
  if (metrics != nullptr) metrics->mem_bytes += gov.total_bytes();
  return out;
}

Relation ParallelNaturalJoin(const Relation& a, const Relation& b,
                             unsigned threads, OpMetrics* metrics,
                             QueryContext* ctx) {
  JoinLayout layout = ComputeJoinLayout(a, b);
  // Probe-side morsel size. Fixed — never derived from `threads` — so the
  // morsel decomposition, and with it the output row order, is a function
  // of the inputs alone.
  constexpr std::size_t kMorselRows = 4096;
  if (threads <= 1 || layout.a_key.empty() || a.size() < 2 * kMorselRows ||
      b.empty()) {
    return NaturalJoin(a, b, metrics, ctx);
  }

  // Shared read-only build index over b (finalized before any probe, so
  // cross-thread sharing is safe); morsels of a probe it on the pool,
  // each into its own buffer with its own slot-probe counter. Each morsel
  // owns an OpGovernor: workers test the context latch at morsel start
  // and unwind their morsel early once any failure latches.
  KeyCols a_key(layout.a_key, a.arity());
  KeyCols b_key(layout.b_key, b.arity());
  std::uint64_t probes = 0;
  FlatKeyIndex index = BuildFlatIndex(b, b_key, probes);
  const std::size_t out_arity = a.arity() + layout.b_rest.size();
  std::vector<std::vector<Tuple>> outputs(MorselCount(a.size(), kMorselRows));
  std::vector<std::uint64_t> morsel_probes(outputs.size(), 0);
  std::vector<std::uint64_t> morsel_bytes(outputs.size(), 0);
  ParallelFor(threads, a.size(), kMorselRows,
              [&](std::size_t begin, std::size_t end) {
                if (ctx != nullptr && !ctx->Poll()) return;
                std::vector<Tuple>& out = outputs[begin / kMorselRows];
                std::uint64_t& local_probes =
                    morsel_probes[begin / kMorselRows];
                OpGovernor gov(ctx, ApproxTupleBytes(out_arity));
                bool live = true;
                for (std::size_t r = begin; live && r < end; ++r) {
                  if (!gov.TickInput()) break;
                  const Tuple& ta = a.rows()[r];
                  FlatKeyIndex::Span span = index.Probe(
                      a_key.Hash(ta),
                      [&](std::uint32_t rb) {
                        return a_key.EqAcross(ta, b_key, b.rows()[rb]);
                      },
                      local_probes);
                  for (const std::uint32_t* p = span.begin; p != span.end;
                       ++p) {
                    if (!gov.Admit()) {
                      live = false;
                      break;
                    }
                    Tuple combined = ta;
                    const Tuple& tb = b.rows()[*p];
                    for (std::size_t j : layout.b_rest) {
                      combined.push_back(tb[j]);
                    }
                    out.push_back(std::move(combined));
                  }
                }
                gov.Flush();
                morsel_bytes[begin / kMorselRows] = gov.total_bytes();
              });
  for (std::uint64_t p : morsel_probes) probes += p;

  // Concatenate in morsel order: morsels cover a's rows in index order and
  // each morsel emits matches in probe order, so the result row order
  // equals the serial NaturalJoin's.
  Relation out(JoinedSchema(a, b, layout));
  std::size_t total = 0;
  for (const auto& part : outputs) total += part.size();
  out.mutable_rows().reserve(total);
  for (auto& part : outputs) {
    for (Tuple& t : part) out.mutable_rows().push_back(std::move(t));
  }
  RecordJoinMetrics(metrics, a, b, out, probes);
  if (metrics != nullptr) {
    metrics->morsels += outputs.size();
    for (std::uint64_t mb : morsel_bytes) metrics->mem_bytes += mb;
  }
  return out;
}

namespace {

void RecordSemiAntiMetrics(OpMetrics* metrics, const Relation& a,
                           const Relation& b, std::size_t rows_out,
                           std::uint64_t probes) {
  if (metrics == nullptr) return;
  metrics->rows_in += a.size();
  metrics->rows_in_right += b.size();
  metrics->rows_out += rows_out;
  metrics->tuples_probed += probes;  // key-set slot probes (build + probe)
}

// Shared core of SemiJoin/AntiJoin: builds the flat set of b's key
// tuples (hashed in place) and keeps the a rows whose key membership
// equals `keep_present`.
Relation SemiAntiJoin(const Relation& a, const Relation& b,
                      bool keep_present, bool empty_key_keeps_a,
                      OpMetrics* metrics, QueryContext* ctx) {
  JoinLayout layout = ComputeJoinLayout(a, b);
  Relation out(a.schema());
  out.set_name(a.name());
  if (layout.a_key.empty()) {
    // No shared columns: b acts as a boolean guard, nothing is probed.
    const Relation& result = (b.empty() == empty_key_keeps_a) ? a : out;
    RecordSemiAntiMetrics(metrics, a, b, result.size(), 0);
    return result;
  }
  CheckRefRange(b.size());
  KeyCols a_key(layout.a_key, a.arity());
  KeyCols b_key(layout.b_key, b.arity());
  FlatTupleSet keys;
  keys.Reserve(b.size());
  std::uint64_t probes = 0;
  const std::vector<Tuple>& b_rows = b.rows();
  for (std::size_t r = 0; r < b_rows.size(); ++r) {
    const Tuple& tb = b_rows[r];
    keys.Insert(
        static_cast<std::uint32_t>(r), b_key.Hash(tb),
        [&](std::uint32_t prev) { return b_key.Eq(tb, b_rows[prev]); },
        probes);
  }
  OpGovernor gov(ctx, ApproxTupleBytes(a.arity()));
  for (const Tuple& ta : a.rows()) {
    if (!gov.TickInput()) break;
    bool present = keys.Contains(
        a_key.Hash(ta),
        [&](std::uint32_t rb) {
          return a_key.EqAcross(ta, b_key, b_rows[rb]);
        },
        probes);
    if (present == keep_present) {
      if (!gov.Admit()) break;
      out.Add(ta);
    }
  }
  gov.Flush();
  RecordSemiAntiMetrics(metrics, a, b, out.size(), probes);
  if (metrics != nullptr) metrics->mem_bytes += gov.total_bytes();
  return out;
}

}  // namespace

Relation SemiJoin(const Relation& a, const Relation& b, OpMetrics* metrics,
                  QueryContext* ctx) {
  return SemiAntiJoin(a, b, /*keep_present=*/true,
                      /*empty_key_keeps_a=*/false, metrics, ctx);
}

Relation AntiJoin(const Relation& a, const Relation& b, OpMetrics* metrics,
                  QueryContext* ctx) {
  return SemiAntiJoin(a, b, /*keep_present=*/false,
                      /*empty_key_keeps_a=*/true, metrics, ctx);
}

Relation Union(const Relation& a, const Relation& b, OpMetrics* metrics,
               QueryContext* ctx) {
  QF_CHECK_MSG(a.arity() == b.arity(), "Union arity mismatch");
  Relation out(a.schema());
  CheckRefRange(a.size() + b.size());
  // One dedup set over both inputs; refs < a.size() name a's rows, the
  // rest name b's (offset by a.size()).
  auto row_of = [&](std::uint32_t ref) -> const Tuple& {
    return ref < a.size() ? a.rows()[ref] : b.rows()[ref - a.size()];
  };
  TupleHash hash;
  FlatTupleSet seen;
  seen.Reserve(a.size() + b.size());
  std::uint64_t probes = 0;
  OpGovernor gov(ctx, ApproxTupleBytes(a.arity()));
  bool live = true;
  for (std::size_t r = 0; live && r < a.size(); ++r) {
    if (!gov.TickInput()) break;
    const Tuple& t = a.rows()[r];
    bool fresh = seen.Insert(
        static_cast<std::uint32_t>(r), hash(t),
        [&](std::uint32_t prev) { return row_of(prev) == t; }, probes);
    if (fresh) {
      if (!gov.Admit()) {
        live = false;
        break;
      }
      out.Add(t);
    }
  }
  for (std::size_t r = 0; live && r < b.size(); ++r) {
    if (!gov.TickInput()) break;
    const Tuple& t = b.rows()[r];
    bool fresh = seen.Insert(
        static_cast<std::uint32_t>(a.size() + r), hash(t),
        [&](std::uint32_t prev) { return row_of(prev) == t; }, probes);
    if (fresh) {
      if (!gov.Admit()) break;
      out.Add(t);
    }
  }
  gov.Flush();
  if (metrics != nullptr) {
    metrics->rows_in += a.size();
    metrics->rows_in_right += b.size();
    metrics->rows_out += out.size();
    metrics->tuples_probed += probes;  // dedup-set slot probes
    metrics->mem_bytes += gov.total_bytes();
  }
  return out;
}

Relation Difference(const Relation& a, const Relation& b) {
  QF_CHECK_MSG(a.arity() == b.arity(), "Difference arity mismatch");
  CheckRefRange(b.size());
  TupleHash hash;
  FlatTupleSet exclude;
  exclude.Reserve(b.size());
  std::uint64_t probes = 0;
  const std::vector<Tuple>& b_rows = b.rows();
  for (std::size_t r = 0; r < b_rows.size(); ++r) {
    const Tuple& t = b_rows[r];
    exclude.Insert(
        static_cast<std::uint32_t>(r), hash(t),
        [&](std::uint32_t prev) { return b_rows[prev] == t; }, probes);
  }
  Relation out(a.schema());
  for (const Tuple& t : a.rows()) {
    bool present = exclude.Contains(
        hash(t), [&](std::uint32_t rb) { return b_rows[rb] == t; }, probes);
    if (!present) out.Add(t);
  }
  return out;
}

Relation Distinct(const Relation& rel) {
  Relation out = rel;
  out.Dedup();
  return out;
}

void AggAccumulator::Add(AggKind kind, std::span<const Value> row,
                         std::size_t agg_idx) {
  count += 1;
  if (kind == AggKind::kCount) return;
  const Value& v = row[agg_idx];
  switch (kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
      QF_CHECK_MSG(v.IsNumeric(), "SUM over non-numeric value");
      sum += v.AsNumber();
      break;
    case AggKind::kMin:
      if (!has_extreme || v < extreme) {
        extreme = v;
        has_extreme = true;
      }
      break;
    case AggKind::kMax:
      if (!has_extreme || extreme < v) {
        extreme = v;
        has_extreme = true;
      }
      break;
  }
}

Value AggAccumulator::Result(AggKind kind) const {
  switch (kind) {
    case AggKind::kCount:
      return Value(count);
    case AggKind::kSum:
      return Value(sum);
    case AggKind::kMin:
    case AggKind::kMax:
      break;
  }
  return extreme;
}

namespace {

struct GroupLayout {
  std::vector<std::size_t> group_idx;
  std::size_t agg_idx = 0;
};

GroupLayout ComputeGroupLayout(const Relation& rel,
                               const std::vector<std::string>& group_columns,
                               AggKind kind, const std::string& agg_column) {
  GroupLayout layout;
  layout.group_idx.reserve(group_columns.size());
  for (const std::string& c : group_columns) {
    layout.group_idx.push_back(rel.schema().IndexOfOrDie(c));
  }
  if (kind != AggKind::kCount) {
    layout.agg_idx = rel.schema().IndexOfOrDie(agg_column);
  }
  return layout;
}

// Flat grouping state: group keys are the group columns of rel's rows,
// hashed/compared in place (identity fast path when the group columns
// are the whole row); accumulators live in a dense vector indexed by
// group id.
struct FlatGroups {
  FlatGroupTable table;
  std::vector<AggAccumulator> accs;

  // Upserts `rel.rows()[r]`'s group and returns its accumulator.
  AggAccumulator& Upsert(const std::vector<Tuple>& rows, std::size_t r,
                      const KeyCols& key, std::uint64_t& probes) {
    const Tuple& t = rows[r];
    auto [group, inserted] = table.Upsert(
        static_cast<std::uint32_t>(r), key.Hash(t),
        [&](std::uint32_t prev) { return key.Eq(t, rows[prev]); }, probes);
    if (inserted) accs.emplace_back();
    return accs[group];
  }
};

// Emits one output row per group (key columns of the representative row
// + the finished aggregate), then sorts: group keys are unique, so the
// lexicographic order is total and the row order is independent of any
// hash-table layout.
Relation FinishGroups(const Relation& rel, const FlatGroups& groups,
                      const KeyCols& key,
                      const std::vector<std::string>& group_columns,
                      AggKind kind, const std::string& output_column) {
  std::vector<std::string> out_columns = group_columns;
  out_columns.push_back(output_column);
  Relation out(Schema(std::move(out_columns)));
  out.mutable_rows().reserve(groups.accs.size());
  for (std::size_t g = 0; g < groups.accs.size(); ++g) {
    const Tuple& rep =
        rel.rows()[groups.table.ref_at(static_cast<std::uint32_t>(g))];
    Tuple row = key.Extract(rep);
    row.push_back(groups.accs[g].Result(kind));
    out.Add(std::move(row));
  }
  out.SortRows();
  return out;
}

}  // namespace

namespace {

void RecordGroupMetrics(OpMetrics* metrics, const Relation& rel,
                        std::size_t rows_out) {
  if (metrics == nullptr) return;
  metrics->rows_in += rel.size();
  metrics->rows_out += rows_out;
  metrics->tuples_probed += rel.size();  // one table upsert per input row
}

}  // namespace

namespace {

// Group outputs are charged in one post-hoc Charge (group count is only
// known at the end); the group *table* itself is unaccounted — a blow-up
// feeding an aggregate is caught where the feeding join materializes it.
std::uint64_t ChargeGroupOutput(QueryContext* ctx, const Relation& out) {
  if (ctx == nullptr) return 0;
  std::uint64_t bytes =
      static_cast<std::uint64_t>(out.size()) * ApproxTupleBytes(out.arity());
  ctx->Charge(bytes);
  return bytes;
}

}  // namespace

Relation GroupAggregate(const Relation& rel,
                        const std::vector<std::string>& group_columns,
                        AggKind kind, const std::string& agg_column,
                        const std::string& output_column,
                        OpMetrics* metrics, QueryContext* ctx) {
  GroupLayout layout =
      ComputeGroupLayout(rel, group_columns, kind, agg_column);
  CheckRefRange(rel.size());
  KeyCols key(layout.group_idx, rel.arity());
  FlatGroups groups;
  groups.table.Reserve(rel.size());
  groups.accs.reserve(rel.size());
  std::uint64_t probes = 0;
  OpGovernor gov(ctx, /*bytes_per_row=*/0);  // input-side polling only
  const std::vector<Tuple>& rows = rel.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!gov.TickInput()) break;
    groups.Upsert(rows, r, key, probes).Add(kind, rows[r], layout.agg_idx);
  }
  // Sorted output (see FinishGroups).
  Relation out =
      FinishGroups(rel, groups, key, group_columns, kind, output_column);
  std::uint64_t mem = ChargeGroupOutput(ctx, out);
  RecordGroupMetrics(metrics, rel, out.size());
  if (metrics != nullptr) metrics->mem_bytes += mem;
  return out;
}

}  // namespace qf
