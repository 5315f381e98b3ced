// The library entry point for executing shell statements — the one
// dispatch path shared by the qfshell REPL, script execution, and the
// network server (network/server.h). Splitting scripts into statements
// and running one statement are separated here so every front end feeds
// the same parser the same bytes: a statement behaves identically whether
// it arrived from stdin, a .qf file, or a protocol frame.
#ifndef QF_SHELL_STATEMENT_H_
#define QF_SHELL_STATEMENT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "shell/shell.h"

namespace qf {

// Splits `script` into executable statements: '#' comments are stripped
// (quote-aware), statements end at ';' outside quotes, and blank
// statements are dropped. The trailing statement needs no ';'. Statements
// keep their internal whitespace/newlines; surrounding whitespace is
// trimmed. `lines`, when non-null, receives each statement's 1-based
// starting line in `script`.
std::vector<std::string> SplitStatements(
    std::string_view script, std::vector<std::size_t>* lines = nullptr);

// The error of a script's `index`-th statement (1-based), which starts at
// `line`: "statement <index> (line <line>): <message>", keeping the
// status code. Every script front end (qfshell, qfclient) reports a
// failing statement this way.
Status StatementError(std::size_t index, std::size_t line,
                      const Status& status);

// Executes one statement against `shell` (exactly Shell::Execute, in
// outcome form; the output is empty on error). The shell object stays
// usable after errors.
StatementOutcome ExecuteStatement(Shell& shell, std::string_view statement);

}  // namespace qf

#endif  // QF_SHELL_STATEMENT_H_
