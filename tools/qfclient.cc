// qfclient — command-line client for qfserverd.
//
//   ./qfclient [--host A] [--port N] script.qf     # run a .qf script
//   ./qfclient [--host A] [--port N] -e "RUN f;"   # run statements
//   ./qfclient [--host A] [--port N] --stats       # server metrics tree
//   ./qfclient [--host A] [--port N] --ping        # liveness probe
//   ./qfclient [--host A] [--port N]               # statements on stdin
//
// Extra knobs:
//   --timeout-ms N    socket send/receive timeouts; a statement the
//                     server cannot answer within N ms fails with a typed
//                     DEADLINE_EXCEEDED instead of hanging (default 0 =
//                     wait forever)
//   --retries N       redial budget after a connection loss; the client
//                     RESUMEs its session and replays unanswered
//                     statements exactly-once (default 8; 0 disables)
//
// Statements execute in the server session this process holds; output is
// printed as the serial qfshell would print it. The first error stops the
// run and is reported with its typed status, prefixed with the failing
// statement's index and line as qfshell does (exit 1).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "network/client.h"
#include "shell/statement.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host A] [--port N] [--timeout-ms N] "
               "[--retries N] [script.qf | -e \"stmts\" | --stats | --ping]\n",
               argv0);
  return 2;
}

int RunScript(qf::Client& client, const std::string& script) {
  std::vector<std::size_t> lines;
  std::vector<std::string> statements = qf::SplitStatements(script, &lines);
  for (std::size_t i = 0; i < statements.size(); ++i) {
    qf::Result<std::string> output = client.Execute(statements[i]);
    if (!output.ok()) {
      qf::Status error = qf::StatementError(i + 1, lines[i], output.status());
      std::fprintf(stderr, "error: %s\n", error.ToString().c_str());
      return 1;
    }
    std::fputs(output->c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7464;
  qf::ClientOptions client_options;
  std::string script;
  bool have_script = false;
  bool stats = false;
  bool ping = false;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--stats") {
      stats = true;
    } else if (flag == "--ping") {
      ping = true;
    } else if (flag == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (flag == "--port" && i + 1 < argc) {
      qf::Result<std::int64_t> n = qf::ParseInt64(argv[++i]);
      if (!n.ok() || *n < 1 || *n > 65535) return Usage(argv[0]);
      port = static_cast<std::uint16_t>(*n);
    } else if (flag == "--timeout-ms" && i + 1 < argc) {
      qf::Result<std::int64_t> n = qf::ParseInt64(argv[++i]);
      if (!n.ok() || *n < 0) return Usage(argv[0]);
      client_options.timeout_ms = static_cast<int>(*n);
    } else if (flag == "--retries" && i + 1 < argc) {
      qf::Result<std::int64_t> n = qf::ParseInt64(argv[++i]);
      if (!n.ok() || *n < 0) return Usage(argv[0]);
      client_options.max_reconnects = static_cast<int>(*n);
    } else if (flag == "-e" && i + 1 < argc) {
      script = argv[++i];
      have_script = true;
    } else if (!flag.empty() && flag[0] != '-' && !have_script) {
      std::ifstream in(flag);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", flag.c_str());
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      script = buffer.str();
      have_script = true;
    } else {
      return Usage(argv[0]);
    }
  }

  qf::Result<qf::Client> client =
      qf::Client::Connect(host, port, client_options);
  if (!client.ok()) {
    std::fprintf(stderr, "cannot connect to %s:%u: %s\n", host.c_str(), port,
                 client.status().ToString().c_str());
    return 1;
  }

  if (ping) {
    qf::Status s = client->Ping();
    if (!s.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("pong (session %llu)\n",
                static_cast<unsigned long long>(client->session_id()));
    return 0;
  }
  if (stats) {
    qf::Result<std::string> text = client->Stats();
    if (!text.ok()) {
      std::fprintf(stderr, "stats failed: %s\n",
                   text.status().ToString().c_str());
      return 1;
    }
    std::fputs(text->c_str(), stdout);
    return 0;
  }
  if (!have_script) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    script = buffer.str();
  }
  return RunScript(*client, script);
}
