// qfserverd — the query-flocks network server.
//
//   ./qfserverd [--port N] [--host A] [--executors N] [--max-queue N]
//               [--quota N] [--max-sessions N] [--preload <dir>]
//               [--init <script.qf>] [--trace <path>]
//               [--idle-timeout-ms N] [--resume-timeout-ms N]
//               [--fault SPEC]
//
//   --port N          TCP port (default 7464, "QF" on a phone pad; 0 =
//                     kernel-assigned, printed on stdout)
//   --host A          bind address (default 127.0.0.1)
//   --executors N     concurrent statement workers (default: hardware)
//   --max-queue N     global admitted-statement queue limit (default 64)
//   --quota N         per-session in-flight statement quota (default 8)
//   --max-sessions N  connection cap (default 256)
//   --preload DIR     LOADDB-style TSV directory loaded once into the
//                     shared read-mostly base database every session sees
//   --init FILE       .qf script executed once at startup; the resulting
//                     relations become the shared base database
//   --trace PATH      JSON-lines per-statement spans (TRACE TO format)
//   --idle-timeout-ms N    probe idle connections with HEARTBEAT frames
//                          every N ms (default 0 = never)
//   --resume-timeout-ms N  how long a dropped v2 session stays resumable
//                          (default 30000; 0 disables resumption)
//   --fault SPEC      chaos-test this server's own socket I/O through the
//                     FaultSocketOps seam. SPEC is comma-separated k=v:
//                       kill-at=N      disconnect at socket op N
//                       kill-every=N   disconnect at op N, 2N, 3N, ...
//                       errno-at=N     fail op N with ECONNRESET
//                       corrupt-at=N   flip one byte at op N
//                       chunk=N        cap every op at N bytes
//                     e.g. --fault kill-every=500,chunk=7
//
// Prints "listening on <host>:<port>" once ready. SIGINT/SIGTERM drain
// gracefully: admitted statements finish and are answered, new ones are
// shed with OVERLOADED, then the process exits 0.
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/string_util.h"
#include "network/fault_socket.h"
#include "network/server.h"
#include "relational/tsv.h"
#include "shell/shell.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleStop(int) { g_stop.store(true, std::memory_order_relaxed); }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--host A] [--executors N] "
               "[--max-queue N] [--quota N] [--max-sessions N] "
               "[--preload <dir>] [--init <script.qf>] [--trace <path>] "
               "[--idle-timeout-ms N] [--resume-timeout-ms N] "
               "[--fault SPEC]\n",
               argv0);
  return 2;
}

// Parses a --fault SPEC (comma-separated k=v; see the header comment)
// into a FaultSocketConfig. Returns false on an unknown key or a bad
// number.
bool ParseFaultSpec(const std::string& spec, qf::FaultSocketConfig* config) {
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    std::size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    std::string key = item.substr(0, eq);
    qf::Result<std::int64_t> n = qf::ParseInt64(item.substr(eq + 1));
    if (!n.ok() || *n < 0) return false;
    if (key == "kill-at") {
      config->fault_at_op = static_cast<std::uint64_t>(*n);
      config->fault = qf::SocketFault::kDisconnect;
    } else if (key == "kill-every") {
      config->fault_at_op = static_cast<std::uint64_t>(*n);
      config->repeat_every = static_cast<std::uint64_t>(*n);
      config->fault = qf::SocketFault::kDisconnect;
    } else if (key == "errno-at") {
      config->fault_at_op = static_cast<std::uint64_t>(*n);
      config->fault = qf::SocketFault::kError;
    } else if (key == "corrupt-at") {
      config->fault_at_op = static_cast<std::uint64_t>(*n);
      config->fault = qf::SocketFault::kCorruptByte;
    } else if (key == "chunk") {
      config->max_chunk = static_cast<std::size_t>(*n);
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  qf::ServerOptions options;
  options.port = 7464;
  options.executors = std::thread::hardware_concurrency();
  std::string preload_dir;
  std::string init_script;
  std::string trace_path;
  std::string fault_spec;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    std::string value = argv[++i];
    qf::Result<std::int64_t> n = qf::ParseInt64(value);
    if (flag == "--port" && n.ok() && *n >= 0 && *n <= 65535) {
      options.port = static_cast<std::uint16_t>(*n);
    } else if (flag == "--host") {
      options.host = value;
    } else if (flag == "--executors" && n.ok() && *n >= 1) {
      options.executors = static_cast<unsigned>(*n);
    } else if (flag == "--max-queue" && n.ok() && *n >= 1) {
      options.max_queue = static_cast<std::size_t>(*n);
    } else if (flag == "--quota" && n.ok() && *n >= 1) {
      options.session_quota = static_cast<std::size_t>(*n);
    } else if (flag == "--max-sessions" && n.ok() && *n >= 1) {
      options.max_sessions = static_cast<std::size_t>(*n);
    } else if (flag == "--preload") {
      preload_dir = value;
    } else if (flag == "--init") {
      init_script = value;
    } else if (flag == "--trace") {
      trace_path = value;
    } else if (flag == "--idle-timeout-ms" && n.ok() && *n >= 0) {
      options.idle_timeout_ms = static_cast<int>(*n);
    } else if (flag == "--resume-timeout-ms" && n.ok() && *n >= 0) {
      options.resume_timeout_ms = static_cast<int>(*n);
    } else if (flag == "--fault") {
      fault_spec = value;
    } else {
      return Usage(argv[0]);
    }
  }

  std::unique_ptr<qf::FaultSocketOps> fault_ops;
  if (!fault_spec.empty()) {
    qf::FaultSocketConfig fault_config;
    if (!ParseFaultSpec(fault_spec, &fault_config)) {
      std::fprintf(stderr, "bad --fault spec: %s\n", fault_spec.c_str());
      return Usage(argv[0]);
    }
    fault_ops = std::make_unique<qf::FaultSocketOps>(fault_config);
    options.socket_ops = fault_ops.get();
    std::printf("fault injection armed: %s\n", fault_spec.c_str());
  }

  if (!preload_dir.empty()) {
    qf::Result<qf::Database> loaded = qf::LoadDatabase(preload_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "preload failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    options.base_db = *std::move(loaded);
    std::printf("preloaded %zu relations from %s\n", options.base_db.size(),
                preload_dir.c_str());
  }
  if (!init_script.empty()) {
    std::ifstream in(init_script);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", init_script.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    qf::Shell seed_shell;
    seed_shell.SeedDatabase(options.base_db);
    qf::StatementOutcome out = seed_shell.ExecuteScript(buffer.str());
    std::fputs(out.output.c_str(), stdout);
    if (!out.ok()) {
      std::fflush(stdout);
      std::fprintf(stderr, "init script failed: %s\n",
                   out.status.ToString().c_str());
      return 1;
    }
    options.base_db = seed_shell.database();
  }

  std::unique_ptr<qf::JsonLinesTraceSink> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<qf::JsonLinesTraceSink>(trace_path);
    if (!trace->ok()) {
      std::fprintf(stderr, "cannot open trace file: %s\n", trace_path.c_str());
      return 1;
    }
    options.trace = trace.get();
  }

  std::string host = options.host;
  qf::Result<std::unique_ptr<qf::Server>> server =
      qf::Server::Start(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%u\n", host.c_str(), (*server)->port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  while (!g_stop.load(std::memory_order_relaxed)) {
    ::usleep(50 * 1000);
  }
  std::printf("draining...\n");
  (*server)->Shutdown();
  qf::ServerStats stats = (*server)->stats();
  std::printf("served %llu statements (%llu shed) across %llu sessions\n",
              static_cast<unsigned long long>(stats.statements_executed),
              static_cast<unsigned long long>(stats.shed_queue_full +
                                              stats.shed_quota +
                                              stats.shed_draining),
              static_cast<unsigned long long>(stats.sessions_opened));
  if (stats.sessions_resumed + stats.replayed_replies > 0) {
    std::printf("resumed %llu sessions, replayed %llu replies\n",
                static_cast<unsigned long long>(stats.sessions_resumed),
                static_cast<unsigned long long>(stats.replayed_replies));
  }
  return 0;
}
