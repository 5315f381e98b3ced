// Out-of-core execution: checksummed spill files and the flock
// evaluator's GROUP BY sink, which starts in memory and spills to
// grace-hash partitions by itself when the budget runs short.
//
// The problem: every relation lives wholly in RAM, so the governor's only
// answer to a large intermediate is a hard RESOURCE_EXHAUSTED. Grace
// hashing turns that cliff into graceful degradation: when the accountant
// nears budget, the sink partitions its rows to checksummed temp files by
// group-key hash, drops its in-memory state, and later processes one
// partition at a time — recursing with a level-salted hash when a
// partition is itself too big.
//
// Determinism contract (DESIGN.md §14): spilling never changes results.
//   * Rows with equal keys always land in the same partition, and records
//     are written (and read back) in push order, so per-partition row
//     order is the push order restricted to the partition. Each group is
//     whole inside one partition, so its distinct rows accumulate in
//     first-occurrence order — exactly as in memory, bit for bit
//     (including float SUM association).
//   * Activation (SpillWanted) depends only on accounted bytes at the
//     sink's charge points, and the producer pushes in a thread-invariant
//     order — so the decision itself is thread-invariant.
//
// Fault model: spill files are transient (never fsynced; a crash simply
// loses them). Every block is CRC32C-framed, so torn or bit-flipped spill
// data yields a typed IO_ERROR, never silently wrong results. Writers
// remove their files in their destructors — statement abort unwinds the
// stack and cleans up — and RemoveSpillFiles sweeps orphans left by a
// killed process (the shell runs it on OPEN).
//
// Layering: this file lives in relational/ and does raw sequential Vfs
// I/O. It does NOT use the buffer pool (src/storage depends on
// relational, not vice versa); the pool serves paged catalog relations.
#ifndef QF_RELATIONAL_SPILL_H_
#define QF_RELATIONAL_SPILL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/resource.h"
#include "common/status.h"
#include "common/vfs.h"
#include "relational/answer_table.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace qf {

// Temp spill files are named "<dir>/qfspill-<seq>"; the prefix is what
// the orphan sweep matches on.
inline constexpr char kSpillFilePrefix[] = "qfspill-";

// Cumulative counters for one spill environment (one shell session /
// server). Atomic: parallel statements may share an env.
struct SpillStats {
  std::atomic<std::uint64_t> activations{0};   // operators that spilled
  std::atomic<std::uint64_t> partitions{0};    // partition files written
  std::atomic<std::uint64_t> spilled_rows{0};  // records written
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> recursions{0};    // oversized partitions re-split
};

// Where and how a governed statement may spill. Hung off QueryContext as
// an opaque pointer (common/resource.h forward-declares this); nullptr
// means "no spill grant" and operators keep the PR 4 hard-abort behavior.
struct SpillEnv {
  Vfs* vfs = nullptr;
  std::string dir;  // spill files live directly inside; created on demand
  // Partitions per split. 32 divides a just-over-budget input into
  // comfortably sub-budget pieces; deeper skew recurses.
  std::size_t fanout = 32;
  // Recursion cutoff: at this depth a partition is processed in memory
  // even if oversized (a pathological all-equal-keys input then gets the
  // honest RESOURCE_EXHAUSTED instead of infinite splitting).
  std::size_t max_depth = 6;
  // Engage spilling when used + projected bytes exceed this fraction of
  // the budget — headroom for the working partition and the output.
  double activation = 0.8;
  // Target size of one checksummed file block (the I/O and CRC unit).
  std::size_t block_bytes = 256 * 1024;
  std::atomic<std::uint64_t> seq{0};  // spill-file name allocator
  SpillStats stats;
};

// The single spill-activation rule: true when the statement is governed,
// holds a spill grant and a hard budget, and `projected_bytes` more would
// push accounted bytes past activation * budget. Call sites evaluate this
// at operator boundaries, where accounted bytes are thread-invariant.
bool SpillWanted(const QueryContext* ctx, std::uint64_t projected_bytes);

// Fresh unique spill-file path under env.dir.
std::string NewSpillPath(SpillEnv& env);

// Removes every kSpillFilePrefix file directly inside `dir` (orphans from
// a killed process). Returns the number removed; a missing directory
// counts as zero. Stops at the first I/O error.
Result<std::size_t> RemoveSpillFiles(Vfs& vfs, const std::string& dir);

// ---------------------------------------------------------------------
// Checksummed spill file I/O.
//
// File layout: a sequence of blocks, each
//     [u32 payload_len][u32 masked CRC32C of payload][payload]
// where the payload is a sequence of records, each [u32 len][bytes].
// Records never span blocks. No fsync anywhere: the files are transient.

// Sequential writer. The file is created lazily on the first Add and
// REMOVED by the destructor — keep the writer alive while a SpillReader
// consumes the file, and let stack unwinding clean up on abort.
class SpillWriter {
 public:
  explicit SpillWriter(SpillEnv& env);
  ~SpillWriter();

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  // Appends one record. Errors (ENOSPC, EIO, injected faults) latch: all
  // later calls return the same status.
  Status Add(std::string_view record);
  // Flushes the trailing partial block and closes the file (which still
  // exists until the destructor runs).
  Status Finish();

  const std::string& path() const { return path_; }
  std::uint64_t records() const { return records_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  Status FlushBlock();

  SpillEnv& env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;
  std::string block_;
  Status status_;
  bool created_ = false;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
};

// Streaming reader: holds one decoded block at a time (memory O(block)),
// verifying each block's CRC as it loads. Returned views point into the
// current block and are invalidated by the next Next() that crosses a
// block boundary.
class SpillReader {
 public:
  SpillReader(Vfs& vfs, std::string path, SpillEnv* env = nullptr);

  // False at end of file or on error — check status() to distinguish.
  bool Next(std::string_view* record);
  const Status& status() const { return status_; }

 private:
  Status LoadBlock();

  Vfs& vfs_;
  std::string path_;
  SpillEnv* env_;
  std::uint64_t offset_ = 0;  // next unread file offset
  std::string block_;         // current verified payload
  std::size_t pos_ = 0;       // cursor within block_
  bool eof_ = false;
  Status status_;
};

// ---------------------------------------------------------------------
// Streaming sinks: the fused final join's consumers.

// Receives projected rows one at a time from a streaming producer — the
// CQ evaluator's fused final join (flocks/cq_eval.h), which pushes every
// answer row it produces, duplicates included, in an order that is the
// same at every thread count.
class TupleSink {
 public:
  TupleSink() = default;
  TupleSink(const TupleSink&) = delete;
  TupleSink& operator=(const TupleSink&) = delete;
  virtual ~TupleSink() = default;

  virtual Status Push(std::span<const Value> row) = 0;
  Status Push(const Tuple& row) { return Push(std::span<const Value>(row)); }
};

// The flock evaluator's GROUP BY + FILTER sink. Pushed rows are answer
// rows: the group key is the leading `key_columns` columns. The sink
// dedups full rows (set semantics) and groups them in an AnswerTable
// (relational/answer_table.h):
//   * In memory, one table holds every distinct row and group, charged to
//     `ctx` by the table's byte rule (ApproxTupleBytes per row plus
//     kGroupBytes per group).
//   * At each charge point (every QueryContext::kPollStride new rows, and
//     in Finish), if SpillWanted fires the sink writes its distinct rows,
//     in order, to grace-hash partitions by key hash, frees its table, and
//     partitions every later row as it arrives; Finish streams one
//     partition at a time through a fresh table, charged by the same rule.
// Either way the result equals GroupAggregate(Distinct(pushed rows), ...)
// restricted to the groups that pass the filter, bit for bit.
class SpillGroupSink : public TupleSink {
 public:
  // `schema`: schema of the pushed rows. `env` (nullable) is where the
  // sink may spill; without one, or without a hard budget on `ctx`, it
  // never spills and an over-budget state is the context's
  // RESOURCE_EXHAUSTED. `row_check` (nullable) runs on each row before it
  // enters a table; its first error is Finish's result.
  using RowCheck = std::function<Status(std::span<const Value>)>;
  SpillGroupSink(Schema schema, std::size_t key_columns, AggKind kind,
                 const std::string& agg_column, std::string output_column,
                 RowCheck row_check, SpillEnv* env, QueryContext* ctx,
                 OpMetrics* metrics);
  ~SpillGroupSink() override;

  using TupleSink::Push;
  Status Push(std::span<const Value> row) override;

  // Returns the key columns plus output column of every group whose
  // aggregate passes `keep` (every group when `keep` is null), in sorted
  // row order. Only passing groups are extracted. Call at most once.
  Result<Relation> Finish(
      const std::function<bool(const Value&)>& keep = nullptr);

  // Re-points the metrics node Finish() fills (the caller's group_by).
  void set_metrics(OpMetrics* metrics) { metrics_ = metrics; }

  // Valid after Finish: distinct answer rows (FlockEvalInfo::answer_rows)
  // and groups before the filter.
  std::uint64_t answer_rows() const { return answer_rows_; }
  std::uint64_t groups() const { return groups_; }
  // True once the sink has moved its rows to spill partitions.
  bool spilled() const { return !writers_.empty(); }

 private:
  Status AddToTable(AnswerTable& table, std::span<const Value> row,
                    std::uint64_t key_hash, AnswerTable::Inserted* added);
  Status ChargePoint();
  Status Spill();
  Status WriteRecord(std::span<const Value> row, std::uint64_t key_hash);
  Status ProcessPartition(const std::string& path, std::uint64_t records,
                          std::size_t level,
                          const std::function<bool(const Value&)>& keep,
                          std::vector<Tuple>& out);

  std::size_t arity_;
  std::size_t key_n_;
  AggKind kind_;
  std::size_t agg_idx_ = 0;
  std::vector<std::string> out_columns_;
  RowCheck row_check_;
  SpillEnv* env_;
  QueryContext* ctx_;
  OpMetrics* metrics_;
  std::unique_ptr<AnswerTable> table_;  // in-memory state; null once spilled
  std::vector<std::unique_ptr<SpillWriter>> writers_;
  std::uint64_t charged_ = 0;     // bytes charged for table_
  std::size_t uncharged_ = 0;     // distinct rows since the last charge
  std::size_t uncharged_groups_ = 0;  // groups since the last charge
  std::string scratch_;
  std::uint64_t pushed_rows_ = 0;
  std::uint64_t answer_rows_ = 0;
  std::uint64_t groups_ = 0;
  std::uint64_t probes_ = 0;  // dedup + group slot probes
  std::uint64_t mem_bytes_ = 0;
  Status status_;
  Status check_status_;  // first row_check failure
};

}  // namespace qf

#endif  // QF_RELATIONAL_SPILL_H_
