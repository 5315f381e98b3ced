// Engine-wide observability: a per-operator metrics tree and a structured
// trace sink, threaded through the whole evaluation stack (relational
// operators, conjunctive-query evaluation, flock evaluation, plan
// execution, a-priori counting) and surfaced by the shell's
// EXPLAIN ANALYZE and TRACE statements.
//
// Design notes:
//   * Metrics are *opt-in per call*: every evaluation entry point takes a
//     nullable OpMetrics pointer (the evaluators via their ExecContext,
//     common/exec_context.h). The disabled path is a null check — no clock
//     reads, no allocations — so production runs pay nothing (bench_micro
//     pins this).
//   * Counters live in plain (non-atomic) fields. Thread safety comes from
//     structure, mirroring the engine's determinism contract: parallel
//     regions pre-allocate one child node per independent unit (disjunct,
//     plan step) *before* fanning out, each worker writes only its own
//     subtree, and per-morsel counters are accumulated in locals and
//     stored once after the ParallelFor joins — exactly how the morsel
//     count tables merge. Node pointers are stable (children are held by
//     unique_ptr), so pre-allocated subtrees survive later AddChild calls.
//   * Ops fill row counters only; wall time is measured by the *caller*
//     via ScopedOp, which also emits begin/end trace spans. One timing
//     source, no double counting.
//   * TraceSink implementations must be thread-safe: spans from parallel
//     disjuncts and plan-step waves interleave. Events are JSON lines
//     ({"ev":"B"|"E",...}), cheap to grep and to load into trace viewers.
#ifndef QF_COMMON_METRICS_H_
#define QF_COMMON_METRICS_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qf {

// Monotonic wall clock in nanoseconds (steady_clock under the hood).
std::uint64_t MetricsNowNs();

// One node of the execution-metrics tree: an operator (or a grouping
// region such as a disjunct or plan step) with its observed counters.
struct OpMetrics {
  // Operator kind: "scan", "join", "select", "anti_join", "semi_join",
  // "union", "group_by", "filter", "project", "disjunct", "flock",
  // "step", "plan", "count_level", ... Callers name the node; the ops
  // only fill counters.
  std::string op;
  // Free-form context: predicate name, step result name, columns, level.
  std::string detail;

  // Rows entering the operator: primary (probe/left/only) input, and the
  // secondary (build/right) input for binary operators.
  std::uint64_t rows_in = 0;
  std::uint64_t rows_in_right = 0;
  // Rows produced. For joins and aggregates this is the exact result
  // cardinality (the metrics-invariant tests pin this).
  std::uint64_t rows_out = 0;
  // Hash-table work: index lookups issued (join probes, semi/anti-join
  // key tests) plus table upserts (group accumulation, dedup inserts).
  std::uint64_t tuples_probed = 0;
  // Morsels the operator was decomposed into (0 when it ran as one piece).
  // Depends only on the input size, never on the thread count.
  std::uint64_t morsels = 0;
  // Bytes this operator charged to the query's resource accountant
  // (ApproxTupleBytes per output row; see common/resource.h). 0 when the
  // run was ungoverned. Rendered by EXPLAIN ANALYZE as "mem=".
  std::uint64_t mem_bytes = 0;
  // Wall time attributed to this node (exclusive of nothing: parents
  // include their children's time). Filled by ScopedOp.
  std::uint64_t wall_ns = 0;
  // Optimizer's estimated output rows, when a model produced one for this
  // node; negative means "no estimate". EXPLAIN ANALYZE renders the
  // estimate-vs-actual skew from this.
  double est_rows = -1.0;

  std::vector<std::unique_ptr<OpMetrics>> children;

  OpMetrics() = default;
  explicit OpMetrics(std::string op_name, std::string detail_text = "")
      : op(std::move(op_name)), detail(std::move(detail_text)) {}

  // Appends a child and returns a pointer that stays valid as more
  // children are added (children are individually heap-allocated).
  OpMetrics* AddChild(std::string op_name, std::string detail_text = "");

  // Pre-allocates `n` children named `op_name` (details "<prefix>0"...),
  // returning stable pointers — the setup step of every parallel region:
  // allocate before fanning out, then each worker owns one subtree.
  std::vector<OpMetrics*> AddChildren(std::size_t n, const std::string& op_name,
                                      const std::string& detail_prefix = "");

  // Adds `other`'s counters into this node and recursively merges
  // children positionally (extra children of `other` are deep-copied).
  // wall_ns adds; est_rows keeps the first known estimate. Used to
  // aggregate repeated runs (benches) and per-thread trees of identical
  // shape — the tree analog of merging per-morsel count tables.
  void MergeFrom(const OpMetrics& other);

  // Total nodes in the subtree (including this one).
  std::size_t NodeCount() const;

  // First node (pre-order) whose op equals `op_name`, or nullptr.
  const OpMetrics* Find(std::string_view op_name) const;

  // Indented tree, one node per line with aligned counters, e.g.
  //   join baskets            in=812 (x140) out=1220 probed=812 t=0.31ms
  // Estimates render as "est=N (skew xK)" next to rows_out when present.
  std::string ToString() const;

  // Nested JSON object {"op":...,"rows_out":...,"children":[...]} —
  // machine-readable, BENCH_*.json-compatible (see bench/README note in
  // DESIGN.md "Observability").
  std::string ToJson() const;
};

// Structured trace sink: receives span begin/end events. Implementations
// MUST be thread-safe; spans from concurrent workers interleave and are
// distinguished by the `tid` field of each event.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void BeginSpan(std::string_view op, std::string_view detail,
                         std::uint64_t t_ns) = 0;
  virtual void EndSpan(std::string_view op, std::string_view detail,
                       std::uint64_t t_ns, std::uint64_t rows_out) = 0;
};

// Formats one JSON-lines trace event; shared by the sinks so files and
// in-memory buffers hold byte-identical records.
//   {"ev":"B","op":"join","detail":"baskets","t_ns":123,"tid":"0x..."}
//   {"ev":"E","op":"join","detail":"baskets","t_ns":456,"tid":"0x...","rows_out":7}
std::string FormatTraceEvent(char phase, std::string_view op,
                             std::string_view detail, std::uint64_t t_ns,
                             std::uint64_t rows_out);

// Buffers trace events in memory (the shell's TRACE ON target; tests read
// the lines back). Thread-safe.
class MemoryTraceSink : public TraceSink {
 public:
  void BeginSpan(std::string_view op, std::string_view detail,
                 std::uint64_t t_ns) override;
  void EndSpan(std::string_view op, std::string_view detail,
               std::uint64_t t_ns, std::uint64_t rows_out) override;

  // Snapshot of the buffered JSON lines.
  std::vector<std::string> Lines() const;
  std::size_t event_count() const;
  void Clear();

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

// Appends JSON-lines events to a file (the shell's TRACE TO <path>
// target). Thread-safe; lines are written whole under one lock, so
// concurrent spans never interleave within a line.
class JsonLinesTraceSink : public TraceSink {
 public:
  // Truncates/creates `path`. ok() is false when the file cannot be
  // opened (the shell reports this as a statement error).
  explicit JsonLinesTraceSink(const std::string& path);
  ~JsonLinesTraceSink() override;

  bool ok() const { return file_ != nullptr; }
  std::size_t event_count() const;

  void BeginSpan(std::string_view op, std::string_view detail,
                 std::uint64_t t_ns) override;
  void EndSpan(std::string_view op, std::string_view detail,
               std::uint64_t t_ns, std::uint64_t rows_out) override;

 private:
  void Write(const std::string& line);

  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::size_t events_ = 0;
};

// RAII region timer: on construction records the start time and emits a
// begin span; on destruction adds the elapsed time to metrics->wall_ns
// and emits the end span (with metrics->rows_out, which the region body
// has filled by then). With metrics == nullptr the whole object is inert
// — no clock read, no allocation — which is the disabled fast path.
// The sink, if any, describes the span with the node's op/detail, so a
// non-null sink requires a non-null metrics node.
class ScopedOp {
 public:
  ScopedOp(OpMetrics* metrics, TraceSink* sink = nullptr);
  ~ScopedOp();

  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  OpMetrics* metrics_;
  TraceSink* sink_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace qf

#endif  // QF_COMMON_METRICS_H_
