// Shared pieces of the flockbench benchmark: options, Fig. 2 data and its
// a-priori answer oracle, statement sampling, the in-memory span tracer,
// layer probes, and result assembly. See README.md in this directory for
// the workloads and the metric definitions.
#ifndef QF_PERFBENCH_BENCH_H_
#define QF_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "apriori/apriori.h"
#include "flocks/flock.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "workload/basket_gen.h"

namespace qf {
class Shell;
}  // namespace qf

namespace qfbench {

// RUN prints every answer row with this LIMIT, so it can be checked.
inline constexpr const char* kAllRows = " LIMIT 1000000000";

// Command line of one run (main.cc parses it).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Smoke-test sizes: 2000 baskets and a handful of statements, so every
  // workload finishes in seconds. Never used for reported numbers.
  bool tiny = false;
  // Drops one pair from every oracle answer, so each checked statement
  // must be counted as failed (proves the check can fail).
  bool corrupt_oracle = false;
  std::string work_dir;   // catalogs, TSVs and spill files of this run
  std::string trace_dir;  // where a traced run writes its spans
};

// The Fig. 2 retail configuration and the pair flock over it.
struct Fig2Shape {
  qf::BasketConfig config;
  std::size_t support = 50;
  std::size_t delta_baskets = 20;  // baskets per streamed append
};
Fig2Shape ShapeFor(const Options& options);

// "answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2" with COUNT >= support.
std::string FlockStatement(std::size_t support);
qf::QueryFlock PairFlock(std::size_t support);

// A frequent pair "item_a\titem_b" (item_a < item_b).
using PairSet = std::set<std::string>;

// Generated Fig. 2 data plus its answer, computed by the specialized
// a-priori miner on the same data and support.
struct Dataset {
  std::shared_ptr<const qf::Relation> base;  // b(BID, Item)
  qf::BasketData baskets;
  PairSet oracle;
  double gen_ms = 0;  // GenerateBaskets alone
};
Dataset MakeDataset(const Fig2Shape& shape, std::uint64_t seed,
                    bool corrupt_oracle);

// Pairs of a two-column flock result relation.
PairSet PairsOf(const qf::Relation& result);
// Removes the smallest pair (the corrupt-oracle switch).
void CorruptAnswer(PairSet* pairs);

// Parses the text of "RUN pairs ... LIMIT <big>": the header line
// "pairs: N assignments in X ms (MODE)" and every printed row.
struct RunAnswer {
  std::size_t count = 0;
  std::string mode;
  PairSet pairs;
};
bool ParseRunOutput(const std::string& text, RunAnswer* answer);

// Writes `rel` as TSV (header BID\tItem) without fsync: benchmark inputs,
// not durable state. Returns the bytes written, or -1 on error.
long long WriteTsv(const qf::Relation& rel, const std::string& path);

// Wall and CPU clocks.
std::uint64_t NowNs();
double ProcessCpuSeconds();
double PeakRssMb();

// Median and linear-interpolated quantile of a sample.
double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);

// Spans kept in memory and written out once at the end of a traced run:
// name, start, end, parent span and statement id. When tracing is off
// Begin/End record nothing, so a Span doubles as a plain timer.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  std::int64_t Begin(const std::string& name, std::uint64_t stmt);
  void End(std::int64_t id);
  // Attaches a named JSON document (an OpMetrics tree) to the trace.
  void Attach(const std::string& name, std::string json);
  bool Write(const std::string& path) const;
  std::size_t span_count() const;

 private:
  struct Record {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t stmt = 0;
  };
  bool on_;
  mutable std::mutex mu_;
  std::vector<Record> spans_;
  std::vector<std::pair<std::string, std::string>> attachments_;
};

class Span {
 public:
  Span(Tracer& tracer, const std::string& name, std::uint64_t stmt = 0)
      : tracer_(tracer), id_(tracer.Begin(name, stmt)), start_(NowNs()) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  // Ends the span (idempotent) and returns its duration in ms.
  double Stop();

 private:
  Tracer& tracer_;
  std::int64_t id_;
  std::uint64_t start_;
  std::uint64_t end_ = 0;
};

// Latencies per statement kind, plus failure accounting.
struct Tally {
  std::map<std::string, std::vector<double>> ms;  // kind -> latencies
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  // answers that disagreed with the oracle
  std::vector<std::string> errors;  // first few failure messages
  void Fail(const std::string& why);
  void Merge(const Tally& other);
};

// One checked RUN through the shell; returns its latency, or a negative
// value when it failed or disagreed with the oracle. `record` keeps the
// latency in the tally under `mode`.
double ShellRun(qf::Shell& shell, const std::string& mode,
                const PairSet& oracle, bool record, std::uint64_t stmt,
                Tracer& tracer, Tally* tally);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// One workload's result: the metrics plus provenance printed beside them.
struct Outcome {
  Tally tally;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> provenance;  // key -> JSON value
  void Add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
};

// Inputs of the library-level layer probe the traced run makes on a
// workload's data (layers.cc).
struct ProbeInputs {
  const qf::Database* db = nullptr;
  const qf::BasketData* baskets = nullptr;
  std::size_t support = 50;
  unsigned nproc = 1;  // the probe runs at THREADS 1 and at nproc
  const PairSet* oracle = nullptr;
  // A shell over the same database with flock `pairs` declared, at the
  // same threads and limits: RUN DIRECT through it, paired with each
  // EvaluateFlock repetition, gives the shell overhead.
  qf::Shell* shell = nullptr;
};
// Calls AprioriFrequentPairs, EvaluateFlock, SearchPlanParameterSets,
// ExecutePlan and DynamicEvaluate with metrics trees and adds the
// shell./apriori./flocks./relational./plan./optimizer. metrics and
// thread_pool.speedup.
void ProbeLayers(const ProbeInputs& probe, Tracer& tracer, Outcome* out);

// Adds per-layer metric `name` with its registered unit.
void AddLayer(Outcome* out, const std::string& name, double value);

// Per-layer metrics a workload cannot exercise are reported as zero so
// every traced run carries the full list; this adds the ones not yet set.
void FillIdleLayers(Outcome* out);

// Workloads (workloads.cc). Each returns with outcome->metrics filled for
// the run's mode (end-to-end untraced, per-layer traced).
void RunFig2Mine(const Options& options, Outcome* outcome);
void RunStreamServed(const Options& options, Outcome* outcome);

// JSON string literal.
std::string JsonString(const std::string& s);

}  // namespace qfbench

#endif  // QF_PERFBENCH_BENCH_H_
