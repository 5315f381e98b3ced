// The two flockbench workloads. Every statement goes through a public
// entry point (Shell::Execute in process, Client::Execute over TCP) and
// every answer is checked against an oracle. Runs are a fixed statement
// count (see StatementBudget), preceded by discarded warm-up statements.
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "flocks/eval.h"
#include "network/client.h"
#include "network/server.h"
#include "shell/shell.h"

namespace qfbench {
namespace {

namespace fs = std::filesystem;

// Set-up is repeated this many times per run; setup_s is the median.
// The in-process Fig. 2 set-ups take a fraction of a second, so they get
// more repetitions than the served one (~2 s each).
constexpr int kFig2SetupReps = 5;
constexpr int kStreamSetupReps = 3;

// Statement budgets: how many timed statements (fig2_mine) or append+RUN
// iterations per client (stream_served) one run makes per --seconds,
// calibrated so the seed engine on a 4-core Xeon VM spends about that
// long on fig2_mine and half that on stream_served, whose hundreds of
// samples per kind already give a steady median. The count is fixed
// per run, not a time window: a faster build does the same work in less
// time instead of more work.
constexpr double kFig2StmtsPerSecond = 0.75;
constexpr double kStreamItersPerSecond = 3.0;

// Set-up failures are program faults: they end the run without a result.
[[noreturn]] void SetupFailed(const std::string& what) {
  throw std::runtime_error("set-up failed: " + what);
}

std::string Must(qf::Shell& shell, const std::string& statement) {
  auto out = shell.Execute(statement);
  if (!out.ok()) SetupFailed(statement + ": " + out.status().ToString());
  return *out;
}

std::string Must(qf::Client& client, const std::string& statement) {
  auto out = client.Execute(statement);
  if (!out.ok()) SetupFailed(statement + ": " + out.status().ToString());
  return *out;
}

unsigned Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::size_t StatementBudget(const Options& options, double per_second,
                            std::size_t multiple) {
  std::size_t n = options.tiny ? 2 * multiple
                               : static_cast<std::size_t>(
                                     options.seconds * per_second + 0.5);
  n = std::max(n, multiple);
  return (n + multiple - 1) / multiple * multiple;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Provenance shared by every workload.
void CommonProvenance(const Options& options, const Fig2Shape& shape,
                      const Dataset& data, Outcome* out) {
  auto& p = out->provenance;
  p["workload"] = JsonString(options.workload);
  p["seed"] = std::to_string(options.seed);
  p["traced"] = options.trace ? "true" : "false";
  p["nproc"] = std::to_string(Nproc());
  p["cpu_model"] = JsonString(CpuModel());
  p["build_type"] = JsonString(QF_BENCH_BUILD_TYPE);
  p["work_dir_filesystem"] = JsonString(FilesystemOf(options.work_dir));
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  p["glibc_tunables"] = JsonString(tunables != nullptr ? tunables : "");
  p["data"] = "{\"baskets\":" + std::to_string(shape.config.n_baskets) +
              ",\"items\":" + std::to_string(shape.config.n_items) +
              ",\"rows\":" + std::to_string(data.base->size()) +
              ",\"support\":" + std::to_string(shape.support) +
              ",\"oracle_pairs\":" + std::to_string(data.oracle.size()) + "}";
}

// Per-kind sample counts and medians (and p90 where a kind has at least
// ten samples beyond it) of a tally.
void KindProvenance(const Tally& tally, Outcome* out) {
  std::string counts = "{", p50 = "{", p90 = "{";
  for (const auto& [kind, v] : tally.ms) {
    if (counts.size() > 1) counts += ",", p50 += ",";
    counts += JsonString(kind) + ":" + std::to_string(v.size());
    p50 += JsonString(kind) + ":" + Num(Median(v));
    if (v.size() >= 100) {
      if (p90.size() > 1) p90 += ",";
      p90 += JsonString(kind) + ":" + Num(Quantile(v, 0.9));
    }
  }
  std::string raw = "{";
  for (const auto& [kind, v] : tally.ms) {
    if (v.size() > 50) continue;
    if (raw.size() > 1) raw += ",";
    raw += JsonString(kind) + ":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) raw += ",";
      raw += Num(v[i]);
    }
    raw += "]";
  }
  out->provenance["latencies_ms"] = raw + "}";
  out->provenance["samples"] = counts + "}";
  out->provenance["p50_ms"] = p50 + "}";
  out->provenance["p90_ms"] = p90 + "}";
}

// Median latency of `kind`; 0 when every statement of it failed (the
// run is then reported as incorrect).
double MedianOf(const Tally& tally, const std::string& kind) {
  auto it = tally.ms.find(kind);
  return it == tally.ms.end() ? 0.0 : Median(it->second);
}

// Statements that completed with the right answer.
double Completed(const Tally& tally) {
  std::size_t n = 0;
  for (const auto& [kind, v] : tally.ms) n += v.size();
  return static_cast<double>(n);
}

// "INCREMENTAL:delta(+210)" -> "INCREMENTAL:delta".
std::string DecisionOf(const std::string& mode) {
  return mode.substr(0, mode.find('('));
}

// A traced run alternates rotation cycles with and without spans; the
// summed latencies of each give the tracing overhead.
struct TraceSplit {
  double ms[2] = {0, 0};  // [untraced, traced]
  double n[2] = {0, 0};
  void Add(bool traced, double latency_ms, double statements = 1) {
    ms[traced] += latency_ms;
    n[traced] += statements;
  }
  void Merge(const TraceSplit& o) {
    for (int t = 0; t < 2; ++t) ms[t] += o.ms[t], n[t] += o.n[t];
  }
  // Closed-loop statements per second of summed latency.
  double Rate(bool traced) const { return n[traced] / (ms[traced] / 1e3); }
  double Overhead() const { return (ms[1] / n[1]) / (ms[0] / n[0]) - 1.0; }
};

Tracer& NoTrace() {
  static Tracer* off = new Tracer(false);
  return *off;
}


// Counters of a shell's spill environment (zero without a catalog).
struct SpillSnapshot {
  double activations = 0, partitions = 0, written = 0, read = 0;
  static SpillSnapshot Of(const qf::Shell& shell) {
    SpillSnapshot snap;
    if (const qf::SpillEnv* env = shell.spill_env(); env != nullptr) {
      snap.activations = static_cast<double>(env->stats.activations.load());
      snap.partitions = static_cast<double>(env->stats.partitions.load());
      snap.written = static_cast<double>(env->stats.bytes_written.load());
      snap.read = static_cast<double>(env->stats.bytes_read.load());
    }
    return snap;
  }
};

// ---------------------------------------------------------------- fig2_mine

// The timed statements rotate these RUN modes at THREADS 1: a
// multi-threaded variant was the one most exposed to contention on a
// shared host (README.md).
const std::vector<std::string> kFig2Modes = {"DIRECT", "PLAN", "DYNAMIC"};

// Out-of-core settings of a traced run's out-of-core session: a 2 MB page
// cache and a 48 MB statement budget (tiny runs: 1 MB / 4 MB, still below
// their in-memory peak).
std::uint64_t BufferMb(const Options& o) { return o.tiny ? 1 : 2; }
std::uint64_t MemoryMb(const Options& o) { return o.tiny ? 4 : 48; }

struct Fig2Session {
  Dataset data;
  std::unique_ptr<qf::Shell> shell;
};

Fig2Session SetupFig2(const Options& options, const Fig2Shape& shape,
                      Tracer& tracer) {
  Span span(tracer, "setup");
  Fig2Session s;
  {
    Span gen(tracer, "workload.GenerateBaskets+apriori_oracle");
    s.data = MakeDataset(shape, options.seed, options.corrupt_oracle);
  }
  s.shell = std::make_unique<qf::Shell>();
  qf::Database db;
  db.PutRelation(s.data.base);
  s.shell->SeedDatabase(db);
  Must(*s.shell, FlockStatement(shape.support));
  Must(*s.shell, "THREADS 1");
  Must(*s.shell, "SET INCREMENTAL OFF");
  return s;
}

// Runs `n` statements rotating kFig2Modes; returns wall seconds. With
// `split`, odd rotation cycles run under `tracer` (see TraceSplit).
double Fig2Loop(Fig2Session& s, std::size_t n, Tracer& tracer, Tally* tally,
                TraceSplit* split) {
  const std::size_t k = kFig2Modes.size();
  std::uint64_t t0 = NowNs();
  for (std::size_t i = 0; i < n; ++i) {
    const bool traced = split != nullptr && (i / k) % 2 == 1;
    double ms = ShellRun(*s.shell, kFig2Modes[i % k], s.data.oracle,
                         /*record=*/true, i + 1,
                         traced ? tracer : NoTrace(), tally);
    if (split != nullptr && ms >= 0) split->Add(traced, ms);
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// The storage and spill layers of a traced run: the same data written to
// a CHECKPOINTed catalog, reopened by a fresh shell behind the small page
// cache and statement budget, then one RUN DIRECT and one RUN PLAN, both
// checked against the oracle. The data is bigger than the cache and the
// statements' peak is bigger than the budget, so the buffer pool misses
// and the grace-hash kernels spill.
void ProbeOutOfCore(const Options& options, const Fig2Shape& shape,
                    const Dataset& data, Tracer& tracer, Outcome* out) {
  Span span(tracer, "outofcore");
  const std::string dir = options.work_dir + "/outofcore";
  fs::create_directories(dir);
  const std::string tsv = dir + "/base.tsv";
  const std::string catalog = dir + "/catalog";
  if (WriteTsv(*data.base, tsv) < 0) SetupFailed("write " + tsv);
  {
    Span load(tracer, "storage.write_catalog");
    qf::Shell loader;
    Must(loader, "OPEN " + catalog);
    Must(loader, "LOAD b FROM " + tsv);
    Must(loader, "CHECKPOINT");
  }
  std::uint64_t paged_bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(catalog)) {
    if (entry.is_regular_file() && entry.path().extension() == ".qfp") {
      paged_bytes += entry.file_size();
    }
  }
  qf::Shell shell;
  Must(shell, "SET BUFFER " + std::to_string(BufferMb(options)));
  Span open(tracer, "storage.OPEN");
  Must(shell, "OPEN " + catalog);
  const double open_ms = open.Stop();
  Must(shell, "SET MEMORY " + std::to_string(MemoryMb(options)));
  Must(shell, FlockStatement(shape.support));
  Must(shell, "THREADS 1");
  Must(shell, "SET INCREMENTAL OFF");

  const SpillSnapshot spill0 = SpillSnapshot::Of(shell);
  Tally tally;
  for (const char* mode : {"DIRECT", "PLAN"}) {
    ShellRun(shell, mode, data.oracle, /*record=*/true, 0, tracer, &tally);
  }
  const SpillSnapshot spill1 = SpillSnapshot::Of(shell);
  const double stmts = 2;
  AddLayer(out, "relational.spill_activations",
           (spill1.activations - spill0.activations) / stmts);
  AddLayer(out, "relational.spill_partitions",
           (spill1.partitions - spill0.partitions) / stmts);
  AddLayer(out, "relational.spill_bytes_written",
           (spill1.written - spill0.written) / stmts);
  AddLayer(out, "relational.spill_bytes_read",
           (spill1.read - spill0.read) / stmts);
  // The pool is created by OPEN: its counters cover OPEN and both RUNs.
  const qf::BufferPoolStats pool = shell.buffer_pool()->stats();
  const double hits = static_cast<double>(pool.hits);
  const double misses = static_cast<double>(pool.misses);
  AddLayer(out, "storage.open_ms", open_ms);
  AddLayer(out, "storage.pool_hit_rate",
           hits + misses > 0 ? hits / (hits + misses) : 0.0);
  AddLayer(out, "storage.pool_misses", misses);
  AddLayer(out, "storage.pool_evictions", static_cast<double>(pool.evictions));
  const qf::StorageStats& st = shell.catalog()->stats();
  AddLayer(out, "storage.wal_sync_ms",
           static_cast<double>(st.wal_sync_ns) / 1e6 /
               static_cast<double>(std::max<std::uint64_t>(1, st.wal_records)));

  auto& p = out->provenance;
  p["outofcore"] =
      "{\"paged_file_bytes\":" + std::to_string(paged_bytes) +
      ",\"buffer_mb\":" + std::to_string(BufferMb(options)) +
      ",\"memory_mb\":" + std::to_string(MemoryMb(options)) +
      ",\"direct_ms\":" + Num(MedianOf(tally, "DIRECT")) +
      ",\"plan_ms\":" + Num(MedianOf(tally, "PLAN")) + "}";
  out->tally.Merge(tally);
}

}  // namespace

void RunFig2Mine(const Options& options, Outcome* out) {
  const Fig2Shape shape = ShapeFor(options);
  Tracer tracer(options.trace);

  std::vector<double> setup_s;
  Fig2Session s;
  for (int rep = 0; rep < (options.trace ? 1 : kFig2SetupReps); ++rep) {
    s.shell.reset();  // tear the previous repetition down first
    std::uint64_t t0 = NowNs();
    s = SetupFig2(options, shape, tracer);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Tally warm;
  for (const std::string& mode : kFig2Modes) {
    ShellRun(*s.shell, mode, s.data.oracle, false, 0, NoTrace(), &warm);
  }
  const std::size_t k = kFig2Modes.size();
  // A traced run needs at least one cycle with and one without spans.
  const std::size_t n =
      StatementBudget(options, kFig2StmtsPerSecond, options.trace ? 2 * k : k);

  CommonProvenance(options, shape, s.data, out);
  auto& p = out->provenance;
  p["kinds"] = "{\"kind1\":\"RUN pairs DIRECT\",\"kind2\":\"RUN pairs PLAN\","
               "\"extra\":\"RUN pairs DYNAMIC\"}";
  p["flush_policy"] = JsonString(
      options.trace ? "no catalog while timed; the out-of-core session's "
                      "catalog WAL fsyncs per commit"
                    : "no catalog (in-memory session)");

  Tally timed;
  if (!options.trace) {
    double wall = Fig2Loop(s, n, tracer, &timed, nullptr);
    out->Add("setup_s", "s", Median(setup_s));
    out->Add("stmts_per_s", "1/s", Completed(timed) / wall);
    out->Add("peak_rss_mb", "MB", PeakRssMb());
    out->Add("kind1_p50_ms", "ms", MedianOf(timed, "DIRECT"));
    out->Add("kind2_p50_ms", "ms", MedianOf(timed, "PLAN"));
  } else {
    // Rotation cycles alternate with and without spans (the tracing
    // overhead), then the library-level layer probe on the same database
    // and the out-of-core session.
    TraceSplit split;
    double cpu0 = ProcessCpuSeconds();
    double wall = Fig2Loop(s, n, tracer, &timed, &split);
    double cpu_per_wall = (ProcessCpuSeconds() - cpu0) / wall;
    AddLayer(out, "workload.gen_ms", s.data.gen_ms);
    AddLayer(out, "bench.untraced_stmts_per_s", split.Rate(false));
    AddLayer(out, "bench.traced_stmts_per_s", split.Rate(true));
    AddLayer(out, "bench.trace_overhead", split.Overhead());
    AddLayer(out, "thread_pool.cpu_per_wall", cpu_per_wall);
    ProbeInputs probe;
    probe.db = &s.shell->database();
    probe.baskets = &s.data.baskets;
    probe.support = shape.support;
    probe.nproc = Nproc();
    probe.oracle = &s.data.oracle;
    probe.shell = s.shell.get();
    ProbeLayers(probe, tracer, out);
    ProbeOutOfCore(options, shape, s.data, tracer, out);
    FillIdleLayers(out);
  }
  out->tally.Merge(warm);
  out->tally.Merge(timed);
  KindProvenance(timed, out);
  if (options.trace) {
    fs::create_directories(options.trace_dir);
    std::string path = options.trace_dir + "/fig2_mine-seed" +
                       std::to_string(options.seed) + ".jsonl";
    tracer.Write(path);
    p["trace_file"] = JsonString(path);
    p["trace_spans"] = std::to_string(tracer.span_count());
  }
}

// ---------------------------------------------------------- stream_served

namespace {

struct StreamClient {
  qf::Client client;
  std::string catalog;
  std::vector<std::string> deltas;  // delta TSV paths, applied in order
  std::vector<long long> delta_bytes;
  qf::Relation all_deltas;          // every delta row of this client
  std::size_t applied = 0;          // deltas appended so far
  RunAnswer last;                   // answer of the latest RUN
  std::map<std::string, std::size_t> decisions;  // RUN mode tag -> count
  TraceSplit split;
  Tally tally;
};

struct StreamSetup {
  Dataset data;
  std::string dir;
  std::string base_tsv;
  std::unique_ptr<qf::Server> server;
  std::vector<std::unique_ptr<StreamClient>> clients;
  double gen_ms = 0;
};

constexpr int kStreamClients = 2;
constexpr unsigned kStreamExecutors = 2;
constexpr std::size_t kStreamWarmup = 3;

// Client `c`'s delta batches: `count` files of shape.delta_baskets new
// baskets each (basket ids past the base and every other client's).
void MakeDeltas(const Options& options, const Fig2Shape& shape, int c,
                std::size_t count, const std::string& dir, StreamClient* cl) {
  qf::BasketConfig config = shape.config;
  config.n_baskets = static_cast<std::uint32_t>(shape.delta_baskets * count);
  config.seed = options.seed * 7919 + 101 + static_cast<std::uint64_t>(c);
  qf::Relation gen = qf::GenerateBaskets(config);
  const std::int64_t offset =
      shape.config.n_baskets + static_cast<std::int64_t>(c) * config.n_baskets;
  std::vector<qf::Relation> batches(count, qf::Relation("b", gen.schema()));
  cl->all_deltas = qf::Relation("b", gen.schema());
  for (const qf::Tuple& row : gen.rows()) {
    std::int64_t bid = row[0].AsInt();
    qf::Tuple shifted{qf::Value(bid + offset), row[1]};
    batches[static_cast<std::size_t>(bid) / shape.delta_baskets].Add(shifted);
    cl->all_deltas.Add(std::move(shifted));
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::string path = dir + "/delta-c" + std::to_string(c) + "-" +
                       std::to_string(i) + ".tsv";
    long long bytes = WriteTsv(batches[i], path);
    if (bytes < 0) SetupFailed("write " + path);
    cl->deltas.push_back(path);
    cl->delta_bytes.push_back(bytes);
  }
}

// Checks a RUN reply: parses it, and (with `oracle`) compares the answer.
// Without an oracle the answer may only grow: appends only add support.
void CheckRunReply(const qf::Result<std::string>& reply, const PairSet* oracle,
                   StreamClient* cl) {
  if (!reply.ok()) return cl->tally.Fail("RUN: " + reply.status().ToString());
  RunAnswer answer;
  if (!ParseRunOutput(*reply, &answer)) return cl->tally.Fail("RUN: unparsable output");
  if (oracle != nullptr && answer.pairs != *oracle) {
    ++cl->tally.wrong;
    return cl->tally.Fail("RUN: build answer differs from the oracle");
  }
  if (answer.count < cl->last.count) {
    ++cl->tally.wrong;
    return cl->tally.Fail("RUN: answer shrank after an append");
  }
  ++cl->decisions[DecisionOf(answer.mode)];
  cl->last = std::move(answer);
}

void SessionSetup(const StreamSetup& s, const Fig2Shape& shape,
                  std::uint16_t port, StreamClient* cl) {
  qf::ClientOptions copts;
  copts.timeout_ms = 120'000;
  auto client = qf::Client::Connect("127.0.0.1", port, copts);
  if (!client.ok()) SetupFailed("connect: " + client.status().ToString());
  cl->client = std::move(client).value();
  Must(cl->client, "OPEN " + cl->catalog);
  Must(cl->client, "LOAD b FROM " + s.base_tsv);
  Must(cl->client, FlockStatement(shape.support));
  Must(cl->client, "SET INCREMENTAL ON");
  ++cl->tally.attempted;
  CheckRunReply(cl->client.Execute(std::string("RUN pairs") + kAllRows),
                &s.data.oracle, cl);
}

StreamSetup SetupStream(const Options& options, const Fig2Shape& shape,
                        std::size_t deltas, int rep, Tracer& tracer) {
  Span span(tracer, "setup");
  StreamSetup s;
  s.dir = options.work_dir + "/stream-rep" + std::to_string(rep);
  fs::create_directories(s.dir);
  {
    Span gen(tracer, "workload.GenerateBaskets+apriori_oracle+deltas");
    s.data = MakeDataset(shape, options.seed, options.corrupt_oracle);
    s.base_tsv = s.dir + "/base.tsv";
    if (WriteTsv(*s.data.base, s.base_tsv) < 0) SetupFailed("write base");
    double delta_ms = 0;
    for (int c = 0; c < kStreamClients; ++c) {
      auto cl = std::make_unique<StreamClient>();
      cl->catalog = s.dir + "/catalog-c" + std::to_string(c);
      std::uint64_t d0 = NowNs();
      MakeDeltas(options, shape, c, deltas, s.dir, cl.get());
      delta_ms += static_cast<double>(NowNs() - d0) / 1e6;
      s.clients.push_back(std::move(cl));
    }
    s.gen_ms = s.data.gen_ms + delta_ms;
  }
  qf::ServerOptions sopts;
  sopts.executors = kStreamExecutors;
  auto server = qf::Server::Start(std::move(sopts));
  if (!server.ok()) SetupFailed("server: " + server.status().ToString());
  s.server = std::move(server).value();
  // Both sessions load the base and build their incremental state at once,
  // as two clients arriving together would.
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kStreamClients);
  for (int c = 0; c < kStreamClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        SessionSetup(s, shape, s.server->port(), s.clients[c].get());
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  return s;
}

void TeardownStream(StreamSetup* s) {
  for (auto& cl : s->clients) cl->client.Close();
  if (s->server != nullptr) s->server->Shutdown();
  s->server.reset();
  s->clients.clear();
}

// Every client appends its next `iters` deltas, each followed by a RUN,
// in a closed loop on its own thread. Returns the wall seconds. With a
// `tracer`, odd iterations run under it (see TraceSplit).
double StreamPhase(StreamSetup& s, std::size_t iters, bool record,
                   Tracer* tracer) {
  std::uint64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (auto& owned : s.clients) {
    StreamClient* cl = owned.get();
    threads.emplace_back([cl, iters, record, tracer] {
      for (std::size_t i = 0; i < iters; ++i) {
        const std::uint64_t stmt = cl->applied + 1;
        const bool traced = tracer != nullptr && i % 2 == 1;
        Tracer& t = traced ? *tracer : NoTrace();
        double iteration_ms = 0;
        {
          ++cl->tally.attempted;
          Span span(t, "network.Client.Execute LOAD APPEND", stmt);
          auto reply = cl->client.Execute("LOAD b APPEND FROM " +
                                          cl->deltas[cl->applied]);
          double ms = span.Stop();
          iteration_ms += ms;
          if (!reply.ok()) {
            cl->tally.Fail("APPEND: " + reply.status().ToString());
          } else if (record) {
            cl->tally.ms["APPEND"].push_back(ms);
          }
          ++cl->applied;
        }
        ++cl->tally.attempted;
        Span span(t, "network.Client.Execute RUN", stmt);
        auto reply = cl->client.Execute(std::string("RUN pairs") + kAllRows);
        double ms = span.Stop();
        CheckRunReply(reply, nullptr, cl);
        if (reply.ok() && record) cl->tally.ms["RUN"].push_back(ms);
        if (tracer != nullptr) cl->split.Add(traced, iteration_ms + ms, 2);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// The from-scratch answer over the base plus `cl`'s applied deltas.
PairSet FromScratch(const Dataset& data, const StreamClient& cl,
                    std::size_t support, std::size_t delta_baskets,
                    std::int64_t first_bid) {
  qf::Relation b = *data.base;
  const std::int64_t limit =
      first_bid + static_cast<std::int64_t>(cl.applied * delta_baskets);
  for (const qf::Tuple& row : cl.all_deltas.rows()) {
    if (row[0].AsInt() < limit) b.Add(row);
  }
  b.Dedup();
  qf::Database db;
  db.PutRelation(std::move(b));
  auto result = qf::EvaluateFlock(PairFlock(support), db);
  if (!result.ok()) return {};
  return PairsOf(*result);
}

}  // namespace

void RunStreamServed(const Options& options, Outcome* out) {
  const Fig2Shape shape = ShapeFor(options);
  Tracer tracer(options.trace);
  const std::size_t iters =
      StatementBudget(options, kStreamItersPerSecond, options.trace ? 2 : 1);
  const std::size_t deltas = kStreamWarmup + iters;

  std::vector<double> setup_s;
  StreamSetup s;
  for (int rep = 0; rep < (options.trace ? 1 : kStreamSetupReps); ++rep) {
    if (s.server != nullptr) {
      TeardownStream(&s);
      fs::remove_all(s.dir);
    }
    std::uint64_t t0 = NowNs();
    s = SetupStream(options, shape, deltas, rep, tracer);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  StreamPhase(s, kStreamWarmup, false, nullptr);

  CommonProvenance(options, shape, s.data, out);
  auto& p = out->provenance;
  p["clients"] = std::to_string(kStreamClients);
  p["executors"] = std::to_string(kStreamExecutors);
  p["iterations_per_client"] = std::to_string(iters);
  p["delta_baskets"] = std::to_string(shape.delta_baskets);
  p["kinds"] = "{\"kind1\":\"RUN pairs (incremental, over TCP)\","
               "\"kind2\":\"LOAD b APPEND FROM <delta> (over TCP)\"}";
  p["flush_policy"] = JsonString(
      "catalog WAL fsync per commit before the reply, on every served session "
      "and on the in-process replay");

  // Timed phase: untraced for end-to-end numbers; a traced run alternates
  // iterations with and without spans.
  double cpu0 = ProcessCpuSeconds();
  const double wall =
      StreamPhase(s, iters, true, options.trace ? &tracer : nullptr);
  const double cpu_per_wall = (ProcessCpuSeconds() - cpu0) / wall;

  // Final check: each client's latest answer against a from-scratch
  // EvaluateFlock over the base plus that client's deltas.
  {
    std::vector<PairSet> expected(kStreamClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kStreamClients; ++c) {
      threads.emplace_back([&, c] {
        const std::int64_t first_bid =
            shape.config.n_baskets +
            static_cast<std::int64_t>(c * shape.delta_baskets * deltas);
        expected[c] = FromScratch(s.data, *s.clients[c], shape.support,
                                  shape.delta_baskets, first_bid);
        if (options.corrupt_oracle) CorruptAnswer(&expected[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (int c = 0; c < kStreamClients; ++c) {
      StreamClient& cl = *s.clients[c];
      ++cl.tally.attempted;
      if (expected[c].empty() || cl.last.pairs != expected[c]) {
        ++cl.tally.wrong;
        cl.tally.Fail("final RUN of client " + std::to_string(c) +
                      " differs from the from-scratch EvaluateFlock");
      }
    }
  }
  Tally all;
  std::map<std::string, std::size_t> decisions;
  TraceSplit split;  // per-client closed loops: their rates add up
  double untraced_rate = 0, traced_rate = 0;
  for (auto& cl : s.clients) {
    all.Merge(cl->tally);
    for (const auto& [tag, n] : cl->decisions) decisions[tag] += n;
    if (options.trace) {
      split.Merge(cl->split);
      untraced_rate += cl->split.Rate(false);
      traced_rate += cl->split.Rate(true);
    }
  }
  std::string tags = "{";
  for (const auto& [tag, n] : decisions) {
    if (tags.size() > 1) tags += ",";
    tags += JsonString(tag) + ":" + std::to_string(n);
  }
  p["run_decisions"] = tags + "}";
  const qf::ServerStats server_stats = s.server->stats();
  p["server_statements_failed"] = std::to_string(server_stats.statements_failed);
  // Client 0's applied deltas and final answer outlive the server, which
  // is shut down here so its sessions' memory is free for the replay.
  const std::size_t c0_applied = s.clients[0]->applied;
  const PairSet c0_answer = s.clients[0]->last.pairs;
  std::vector<std::string> c0_deltas = s.clients[0]->deltas;
  std::vector<long long> c0_bytes = s.clients[0]->delta_bytes;
  TeardownStream(&s);

  if (!options.trace) {
    out->Add("setup_s", "s", Median(setup_s));
    out->Add("stmts_per_s", "1/s", Completed(all) / wall);
    out->Add("peak_rss_mb", "MB", PeakRssMb());
    out->Add("kind1_p50_ms", "ms", MedianOf(all, "RUN"));
    out->Add("kind2_p50_ms", "ms", MedianOf(all, "APPEND"));
  } else {
    AddLayer(out, "workload.gen_ms", s.gen_ms);
    AddLayer(out, "bench.untraced_stmts_per_s", untraced_rate);
    AddLayer(out, "bench.traced_stmts_per_s", traced_rate);
    AddLayer(out, "bench.trace_overhead", split.Overhead());
    AddLayer(out, "thread_pool.cpu_per_wall", cpu_per_wall);
    AddLayer(out, "network.shed",
             static_cast<double>(server_stats.sessions_shed +
                                 server_stats.shed_queue_full +
                                 server_stats.shed_quota +
                                 server_stats.shed_draining));
    AddLayer(out, "network.replayed",
             static_cast<double>(server_stats.replayed_replies));

    // In-process replay of client 0's statement sequence on a fresh shell
    // with its own durable catalog: the same work minus the network.
    qf::Shell replay;
    Span open(tracer, "storage.OPEN");
    Must(replay, "OPEN " + s.dir + "/catalog-replay");
    double open_ms = open.Stop();
    Must(replay, "LOAD b FROM " + s.base_tsv);
    Must(replay, FlockStatement(shape.support));
    Must(replay, "SET INCREMENTAL ON");
    Must(replay, std::string("RUN pairs") + kAllRows);
    const qf::StorageStats st0 = replay.catalog()->stats();
    std::vector<double> run_ms, append_ms;
    std::size_t served_from_state = 0;
    double user_bytes = 0;
    RunAnswer answer;
    Tally replay_tally;
    for (std::size_t i = 0; i < c0_applied; ++i) {
      const bool timed = i >= kStreamWarmup;
      ++replay_tally.attempted;
      Span a(tracer, "shell.Execute LOAD APPEND", i + 1);
      auto appended = replay.Execute("LOAD b APPEND FROM " + c0_deltas[i]);
      double ams = a.Stop();
      if (!appended.ok()) replay_tally.Fail("replay APPEND: " + appended.status().ToString());
      user_bytes += static_cast<double>(c0_bytes[i]);
      ++replay_tally.attempted;
      Span r(tracer, "shell.Execute RUN", i + 1);
      auto ran = replay.Execute(std::string("RUN pairs") + kAllRows);
      double rms = r.Stop();
      if (!ran.ok() || !ParseRunOutput(*ran, &answer)) {
        replay_tally.Fail("replay RUN failed");
        continue;
      }
      const std::string decision = DecisionOf(answer.mode);
      if (decision == "INCREMENTAL:delta" || decision == "INCREMENTAL:cached") {
        ++served_from_state;
      }
      if (timed) {
        run_ms.push_back(rms);
        append_ms.push_back(ams);
      }
    }
    ++replay_tally.attempted;
    if (answer.pairs != c0_answer) {
      ++replay_tally.wrong;
      replay_tally.Fail("in-process replay answer differs from client 0's");
    }
    const qf::StorageStats st1 = replay.catalog()->stats();
    const double appends = static_cast<double>(std::max<std::size_t>(1, c0_applied));
    AddLayer(out, "storage.open_ms", open_ms);
    AddLayer(out, "storage.wal_sync_ms",
             static_cast<double>(st1.wal_sync_ns - st0.wal_sync_ns) / 1e6 / appends);
    AddLayer(out, "storage.fsyncs_per_append",
             static_cast<double>(st1.fsyncs - st0.fsyncs) / appends);
    AddLayer(out, "storage.wal_bytes_per_user_byte",
             static_cast<double>(st1.wal_bytes - st0.wal_bytes) / user_bytes);
    AddLayer(out, "mining.delta_ms", Median(run_ms));
    AddLayer(out, "mining.delta_frac",
             static_cast<double>(served_from_state) / appends);
    const auto* state = replay.incremental().state("pairs");
    AddLayer(out, "mining.state_bytes",
             state != nullptr ? static_cast<double>(state->ApproxBytes()) : 0.0);
    AddLayer(out, "network.overhead_ms", MedianOf(all, "RUN") - Median(run_ms));
    p["replay_p50_ms"] = "{\"RUN\":" + Num(Median(run_ms)) +
                         ",\"APPEND\":" + Num(Median(append_ms)) + "}";
    out->tally.Merge(replay_tally);

    ProbeInputs probe;
    qf::Database base_db;
    base_db.PutRelation(s.data.base);
    probe.db = &base_db;
    probe.baskets = &s.data.baskets;
    probe.support = shape.support;
    probe.nproc = Nproc();
    probe.oracle = &s.data.oracle;
    // Shell dispatch cost: RUN DIRECT through a plain shell over the base.
    qf::Shell plain;
    plain.SeedDatabase(base_db);
    Must(plain, FlockStatement(shape.support));
    Must(plain, "SET INCREMENTAL OFF");
    probe.shell = &plain;
    ProbeLayers(probe, tracer, out);
    FillIdleLayers(out);
  }
  out->tally.Merge(all);
  KindProvenance(all, out);
  if (options.trace) {
    fs::create_directories(options.trace_dir);
    std::string path = options.trace_dir + "/stream_served-seed" +
                       std::to_string(options.seed) + ".jsonl";
    tracer.Write(path);
    p["trace_file"] = JsonString(path);
    p["trace_spans"] = std::to_string(tracer.span_count());
  }
}

}  // namespace qfbench
