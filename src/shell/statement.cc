#include "shell/statement.h"

#include <algorithm>

#include "common/string_util.h"

namespace qf {

std::vector<std::string> SplitStatements(std::string_view script,
                                         std::vector<std::size_t>* lines) {
  // Strip comments (quote-aware), then split on ';' outside quotes.
  std::string cleaned;
  cleaned.reserve(script.size());
  {
    bool in_quote = false;
    char quote = '\0';
    for (std::size_t i = 0; i < script.size(); ++i) {
      char c = script[i];
      if (c == '\'' || c == '"') {
        if (!in_quote) {
          in_quote = true;
          quote = c;
        } else if (c == quote) {
          in_quote = false;
        }
      }
      if (c == '#' && !in_quote) {
        while (i < script.size() && script[i] != '\n') ++i;
        cleaned += '\n';
        continue;
      }
      cleaned += c;
    }
  }

  std::vector<std::string> statements;
  // Comment stripping keeps every newline, so lines of `cleaned` are
  // lines of `script`.
  std::size_t line = 1;
  std::size_t counted = 0;  // newlines before this offset are in `line`
  std::size_t start = 0;
  bool in_quote = false;
  char quote = '\0';
  for (std::size_t i = 0; i <= cleaned.size(); ++i) {
    bool at_end = i == cleaned.size();
    char c = at_end ? ';' : cleaned[i];
    if (!at_end && (c == '\'' || c == '"')) {
      if (!in_quote) {
        in_quote = true;
        quote = c;
      } else if (c == quote) {
        in_quote = false;
      }
    }
    if (c == ';' && !in_quote) {
      std::string_view statement =
          std::string_view(cleaned).substr(start, i - start);
      start = i + 1;
      statement = StripWhitespace(statement);
      if (statement.empty()) continue;
      if (lines != nullptr) {
        std::size_t at =
            static_cast<std::size_t>(statement.data() - cleaned.data());
        line += static_cast<std::size_t>(std::count(
            cleaned.begin() + static_cast<std::ptrdiff_t>(counted),
            cleaned.begin() + static_cast<std::ptrdiff_t>(at), '\n'));
        counted = at;
        lines->push_back(line);
      }
      statements.emplace_back(statement);
    }
  }
  return statements;
}

Status StatementError(std::size_t index, std::size_t line,
                      const Status& status) {
  return Status(status.code(), "statement " + std::to_string(index) +
                                   " (line " + std::to_string(line) +
                                   "): " + status.message());
}

StatementOutcome ExecuteStatement(Shell& shell, std::string_view statement) {
  Result<std::string> result = shell.Execute(statement);
  if (!result.ok()) return {result.status(), ""};
  return {Status::Ok(), *std::move(result)};
}

}  // namespace qf
