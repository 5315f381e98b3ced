// Engine-wide resource governor: a QueryContext carries a wall-clock
// deadline, a cooperative cancellation token, and an atomic memory
// accountant with a hard budget. It is threaded through every relational
// operator, the CQ/flock evaluators, the plan executor, the dynamic
// evaluator, a-priori counting, and the morsel-parallel thread pool.
//
// Design notes:
//   * Like OpMetrics, governance is *opt-in per call*: entry points take a
//     nullable QueryContext pointer (the evaluators via their ExecContext,
//     common/exec_context.h). The ungoverned path is a null check — no
//     clock reads, no atomic traffic — so production runs without limits
//     pay nothing.
//   * The first observed failure (deadline, cancel, budget, fault
//     injection) *latches*: an atomic error code is set once and every
//     subsequent Poll()/Check() fails fast. Parallel morsel workers test
//     the latch at morsel granularity and unwind cleanly; serial operator
//     loops poll every kPollStride rows. Operators themselves keep
//     returning plain Relations — on a tripped context they bail early
//     with truncated output, and the Result<>-returning evaluator layers
//     call Check() after each operator and surface the typed Status. The
//     truncated intermediate is discarded with everything else when the
//     evaluator unwinds, so nothing leaks and no partially built flat-hash
//     table escapes.
//   * Memory accounting is approximate and charge/release-symmetric:
//     operators charge their *output* rows via ApproxTupleBytes (heap
//     footprint of a Tuple, ignoring interned string bytes and hash-table
//     overhead), and evaluator layers release an intermediate's bytes when
//     they drop it. Charges use relaxed atomics; `peak` is maintained with
//     a CAS loop. Because governance only decides abort-or-not and never
//     reorders work, a governed run that completes is bit-identical to an
//     ungoverned run at every thread count (the determinism contract).
//   * Fault injection: set_fail_after_charges(n) trips a synthetic
//     RESOURCE_EXHAUSTED on the nth Charge() call. Differential tests
//     sweep n to prove every abort point unwinds without corruption.
#ifndef QF_COMMON_RESOURCE_H_
#define QF_COMMON_RESOURCE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace qf {

// Approximate heap bytes held by one materialized tuple of the given
// arity: the row vector's element array plus the vector bookkeeping that
// lives inside the containing rows vector. Interned string payloads are
// shared process-wide and not attributed to any query. Operators and
// evaluators must use this one formula for both charge and release so the
// accountant nets to zero when intermediates are dropped.
std::size_t ApproxTupleBytes(std::size_t arity);

// Out-of-core spill environment (defined in relational/spill.h): where and
// how a governed statement may spill intermediates to disk. Carried here as
// an opaque pointer so the governor stays free of storage dependencies.
struct SpillEnv;

// Shared governor state for one query execution. Thread-safe: many morsel
// workers poll and charge concurrently. Create one per RUN statement (or
// per test), pass it by pointer as ExecContext::ctx; nullptr means
// ungoverned.
class QueryContext {
 public:
  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // --- configuration (set before the query starts) ---

  // Absolute wall-clock deadline. Checked on every Poll().
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  // Convenience: deadline = now + timeout_ms.
  void set_timeout_ms(std::int64_t timeout_ms) {
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(timeout_ms));
  }
  // Hard budget for accounted bytes; 0 means unlimited.
  void set_memory_budget(std::uint64_t bytes) { budget_bytes_ = bytes; }
  // External cancellation flag to watch (e.g. the shell's SIGINT flag).
  // The pointee must outlive the query. May be nullptr.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_flag_ = flag; }
  // Fault injection: the nth subsequent Charge() trips a synthetic
  // RESOURCE_EXHAUSTED ("fault injection"). 0 disables.
  void set_fail_after_charges(std::uint64_t n) {
    fault_countdown_.store(n, std::memory_order_relaxed);
  }
  // Grants the statement permission to spill: operators that would breach
  // the budget may partition to disk through `env` instead of aborting.
  // nullptr (the default) keeps the PR 4 behavior — a hard
  // RESOURCE_EXHAUSTED. The pointee must outlive the query.
  void set_spill_env(SpillEnv* env) { spill_env_ = env; }
  SpillEnv* spill_env() const { return spill_env_; }

  // --- cooperative cancellation ---

  // Requests cancellation (safe from any thread, e.g. a signal-watching
  // thread or another session).
  void RequestCancel() { LatchError(StatusCode::kCancelled); }

  // --- polling API (hot paths) ---

  // True while no failure has latched. The cheapest test — one relaxed
  // load — for per-morsel checks.
  bool ok() const {
    return error_code_.load(std::memory_order_relaxed) ==
           static_cast<int>(StatusCode::kOk);
  }

  // Full poll: latch check + external cancel flag + deadline. Operators
  // call this every kPollStride rows (and once per morsel). Returns false
  // once any failure has latched; callers then bail out early.
  bool Poll() {
    if (!ok()) return false;
    if (cancel_flag_ != nullptr &&
        cancel_flag_->load(std::memory_order_relaxed)) {
      LatchError(StatusCode::kCancelled);
      return false;
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      LatchError(StatusCode::kDeadlineExceeded);
      return false;
    }
    return true;
  }

  // Charges `bytes` to the accountant, updates the peak, and trips the
  // budget (or the fault injector) when exceeded. Returns false once any
  // failure has latched. Charging is not undone on failure: the caller is
  // unwinding and will Release() what it drops.
  bool Charge(std::uint64_t bytes);

  // Returns accounted bytes to the pool (an intermediate was dropped).
  void Release(std::uint64_t bytes) {
    used_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // --- inspection ---

  std::uint64_t used_bytes() const {
    return used_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t budget_bytes() const { return budget_bytes_; }

  // OK while no failure has latched; afterwards the typed error
  // (CANCELLED / DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED). Evaluator layers
  // call this after each operator and propagate it through Result<>.
  Status Check() const;

  // Serial operator loops poll every this many rows — frequent enough
  // that a 1 ms deadline overshoots by well under 50 ms even on slow
  // hardware, rare enough that the clock read is amortized to noise.
  static constexpr std::size_t kPollStride = 1024;

 private:
  void LatchError(StatusCode code);

  std::atomic<int> error_code_{static_cast<int>(StatusCode::kOk)};

  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  const std::atomic<bool>* cancel_flag_ = nullptr;

  std::uint64_t budget_bytes_ = 0;  // 0 = unlimited
  SpillEnv* spill_env_ = nullptr;
  std::atomic<std::uint64_t> used_bytes_{0};
  std::atomic<std::uint64_t> peak_bytes_{0};
  std::atomic<std::uint64_t> fault_countdown_{0};
};

// Per-loop charging helper for operator hot paths: batches Poll() and
// Charge() to once every QueryContext::kPollStride rows so the ungoverned
// and in-budget costs stay out of the inner loop. Stack-local, never
// shared between threads; each parallel morsel owns one.
//
//   OpGovernor gov(ctx, ApproxTupleBytes(arity));
//   for (const Tuple& t : input) {
//     if (!gov.Admit()) break;   // context tripped: bail early
//     ...emit one output row...
//   }
//   gov.Flush();                 // charge the sub-stride remainder
//
// Admit() counts one *output* row; the accumulated bytes are charged in
// stride-sized deltas. Flush() charges the remainder (and is safe to call
// multiple times). total_bytes() reports everything this governor charged,
// which callers record in OpMetrics::mem_bytes and later Release().
class OpGovernor {
 public:
  OpGovernor(QueryContext* ctx, std::size_t bytes_per_row)
      : ctx_(ctx), bytes_per_row_(bytes_per_row) {}
  ~OpGovernor() { Flush(); }

  OpGovernor(const OpGovernor&) = delete;
  OpGovernor& operator=(const OpGovernor&) = delete;

  bool Admit() {
    if (ctx_ == nullptr) return true;
    if (++pending_rows_ < QueryContext::kPollStride) {
      return ctx_->ok();
    }
    return FlushAndPoll();
  }

  // Input-side poll: counts one *input* row (no charge) and polls the
  // deadline/cancel token every kPollStride rows, so an operator that
  // scans a huge input while emitting nothing still honours deadlines.
  bool TickInput() {
    if (ctx_ == nullptr) return true;
    if (++input_rows_ % QueryContext::kPollStride != 0) {
      return ctx_->ok();
    }
    return ctx_->Poll();
  }

  // Charges rows admitted since the last flush. Returns false if the
  // context has tripped.
  bool Flush() {
    if (ctx_ == nullptr || pending_rows_ == 0) return ctx_ == nullptr || ctx_->ok();
    return FlushAndPoll();
  }

  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  bool FlushAndPoll();

  QueryContext* ctx_;
  std::size_t bytes_per_row_;
  std::size_t pending_rows_ = 0;
  std::size_t input_rows_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace qf

#endif  // QF_COMMON_RESOURCE_H_
