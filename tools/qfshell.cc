// qfshell — the interactive query-flocks processor.
//
//   ./qfshell                 # REPL on stdin
//   ./qfshell script.qf       # execute a script file
//
// See `HELP;` or src/shell/shell.h for the statement language.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "shell/shell.h"

namespace {

// Set by SIGINT; every governed statement polls it and aborts with
// CANCELLED. The REPL clears it after each statement, so one ctrl-C kills
// the running query, not the session.
std::atomic<bool> g_interrupted{false};

void HandleSigint(int) { g_interrupted.store(true, std::memory_order_relaxed); }

int RunScript(qf::Shell& shell, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  qf::StatementOutcome outcome = shell.ExecuteScript(buffer.str());
  g_interrupted.store(false, std::memory_order_relaxed);
  std::fputs(outcome.output.c_str(), stdout);
  if (!outcome.ok()) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", outcome.status.ToString().c_str());
    return 1;
  }
  return 0;
}

int RunRepl(qf::Shell& shell) {
  std::printf("query-flocks shell — statements end with ';', HELP; for "
              "help, ctrl-D to exit\n");
  std::string pending;
  std::string line;
  std::printf("qf> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    pending += line + "\n";
    // Execute once the buffer holds at least one full statement.
    if (line.find(';') != std::string::npos) {
      qf::StatementOutcome outcome = shell.ExecuteScript(pending);
      g_interrupted.store(false, std::memory_order_relaxed);
      std::fputs(outcome.output.c_str(), stdout);
      if (!outcome.ok()) {
        std::printf("error: %s\n", outcome.status.ToString().c_str());
      }
      pending.clear();
    }
    std::printf(pending.empty() ? "qf> " : "  > ");
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  qf::Shell shell;
  shell.set_cancel_flag(&g_interrupted);
  std::signal(SIGINT, HandleSigint);
  if (argc > 1) return RunScript(shell, argv[1]);
  return RunRepl(shell);
}
