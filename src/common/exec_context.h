// The execution context every evaluator layer runs under: worker count,
// metrics node, trace sink and resource governor, carried as one value.
//
// The option structs of the evaluation stack (CqEvalOptions,
// FlockEvalOptions, PlanExecOptions, DynamicOptions, ArmExecOptions,
// IncrementalEvalOptions, AprioriOptions) inherit it, so a layer hands
// its context to the next with `At(child_node)` instead of copying
// fields. The rules hold for every one of them:
//   * `threads` never changes a result: every value (0 and 1 = serial)
//     yields the same rows in the same order (DESIGN.md, "Threading
//     model"). Only morsel counts and wall times differ.
//   * `metrics` (common/metrics.h) roots the layer's operator tree; null
//     is the allocation-free fast path. `trace` receives span begin/end
//     events, must be thread-safe, and is ignored unless `metrics` is set
//     — read it through tracer().
//   * `ctx` (common/resource.h) governs the run: operators poll it and
//     charge their output, and a latched deadline / cancel / budget
//     failure surfaces as its typed Status. Null costs nothing.
// All pointers must outlive the call that receives the context.
#ifndef QF_COMMON_EXEC_CONTEXT_H_
#define QF_COMMON_EXEC_CONTEXT_H_

#include "common/metrics.h"
#include "common/resource.h"
#include "common/status.h"

namespace qf {

struct ExecContext {
  unsigned threads = 1;
  OpMetrics* metrics = nullptr;
  TraceSink* trace = nullptr;
  QueryContext* ctx = nullptr;

  // The same context, reporting under `node` (which may be null).
  ExecContext At(OpMetrics* node) const {
    ExecContext out = *this;
    out.metrics = node;
    return out;
  }
  // The trace sink, or null when metrics are off.
  TraceSink* tracer() const { return metrics != nullptr ? trace : nullptr; }
  // The governor's latched status; OK when the run is ungoverned.
  Status Check() const { return ctx != nullptr ? ctx->Check() : Status::Ok(); }
};

}  // namespace qf

#endif  // QF_COMMON_EXEC_CONTEXT_H_
