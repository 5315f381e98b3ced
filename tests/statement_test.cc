// Tests for the shared statement entry point (shell/statement.h): script
// splitting, ExecuteStatement vs Shell::Execute equivalence, and REPL
// behavior regressions after the dispatch refactor — the same statements
// the qfshell REPL has always accepted must behave identically through
// the library path the network server uses.
#include "shell/statement.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/vfs.h"
#include "shell/shell.h"

namespace qf {
namespace {

std::string MustRun(Shell& shell, const std::string& stmt) {
  Result<std::string> out = shell.Execute(stmt);
  EXPECT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
  return out.ok() ? *out : std::string();
}

// ------------------------------------------------------ SplitStatements

TEST(SplitStatementsTest, SplitsOnSemicolons) {
  std::vector<std::string> stmts = SplitStatements("HELP; SHOW RELATIONS;");
  ASSERT_EQ(stmts.size(), 2u);
  EXPECT_EQ(stmts[0], "HELP");
  EXPECT_EQ(stmts[1], "SHOW RELATIONS");
}

TEST(SplitStatementsTest, TrailingStatementNeedsNoSemicolon) {
  std::vector<std::string> stmts = SplitStatements("HELP; SHOW FLOCKS");
  ASSERT_EQ(stmts.size(), 2u);
  EXPECT_EQ(stmts[1], "SHOW FLOCKS");
}

TEST(SplitStatementsTest, DropsBlankStatementsAndComments) {
  std::vector<std::string> stmts = SplitStatements(
      "# leading comment\n"
      ";;\n"
      "HELP;  # trailing comment\n"
      "   \n"
      "; SHOW RELATIONS ;");
  ASSERT_EQ(stmts.size(), 2u);
  EXPECT_EQ(stmts[0], "HELP");
  EXPECT_EQ(stmts[1], "SHOW RELATIONS");
}

TEST(SplitStatementsTest, SemicolonsAndHashesInsideQuotesAreLiteral) {
  std::vector<std::string> stmts =
      SplitStatements("LOAD r FROM \"dir;x/#f.tsv\"; HELP");
  ASSERT_EQ(stmts.size(), 2u);
  EXPECT_EQ(stmts[0], "LOAD r FROM \"dir;x/#f.tsv\"");
  EXPECT_EQ(stmts[1], "HELP");
}

TEST(SplitStatementsTest, KeepsInternalNewlines) {
  std::vector<std::string> stmts =
      SplitStatements("FLOCK f QUERY\n  answer(B) :- b(B,$1)\nFILTER "
                      "COUNT >= 2;");
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_NE(stmts[0].find('\n'), std::string::npos);
}

TEST(SplitStatementsTest, EmptyScriptYieldsNothing) {
  EXPECT_TRUE(SplitStatements("").empty());
  EXPECT_TRUE(SplitStatements("   \n# only a comment\n;;;").empty());
}

// ---------------------------------------------------- ExecuteStatement

TEST(ExecuteStatementTest, MatchesShellExecuteOnSuccess) {
  Shell a;
  Shell b;
  const std::string gen = "GEN BASKETS x n_baskets=30 n_items=8 seed=4";
  Result<std::string> direct = a.Execute(gen);
  StatementOutcome outcome = ExecuteStatement(b, gen);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*direct, outcome.output);
}

TEST(ExecuteStatementTest, MatchesShellExecuteOnError) {
  Shell a;
  Shell b;
  Result<std::string> direct = a.Execute("RUN missing");
  StatementOutcome outcome = ExecuteStatement(b, "RUN missing");
  ASSERT_FALSE(direct.ok());
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(direct.status().code(), outcome.status.code());
  EXPECT_EQ(direct.status().message(), outcome.status.message());
  EXPECT_TRUE(outcome.output.empty());
}

TEST(StatementErrorTest, NamesTheStatementAndKeepsTheCode) {
  Status error =
      StatementError(2, 7, NotFoundError("no flock named missing"));
  EXPECT_EQ(error.code(), StatusCode::kNotFound);
  EXPECT_EQ(error.message(), "statement 2 (line 7): no flock named missing");
  // The script path and the helper agree on the same failure.
  Shell shell;
  StatementOutcome out = shell.ExecuteScript("HELP;\n\nRUN missing; HELP;");
  EXPECT_EQ(out.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(out.status.message(),
            StatementError(2, 3, NotFoundError("no flock named missing"))
                .message());
}

TEST(ExecuteStatementTest, ShellStaysUsableAfterError) {
  Shell shell;
  EXPECT_FALSE(ExecuteStatement(shell, "NOT A STATEMENT").ok());
  EXPECT_TRUE(ExecuteStatement(shell, "HELP").ok());
}

// ------------------------------------------- REPL behavior regressions

TEST(ReplRegressionTest, ScriptMatchesStatementByStatementExecution) {
  const std::string script =
      "GEN BASKETS b n_baskets=50 n_items=10 seed=3;\n"
      "FLOCK p QUERY answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2 "
      "FILTER COUNT >= 3;\n"
      "SHOW RELATIONS;";
  Shell whole;
  StatementOutcome script_out = whole.ExecuteScript(script);
  ASSERT_TRUE(script_out.ok());

  Shell split;
  std::string stitched;
  for (const std::string& stmt : SplitStatements(script)) {
    StatementOutcome outcome = ExecuteStatement(split, stmt);
    ASSERT_TRUE(outcome.ok()) << stmt;
    stitched += outcome.output;
  }
  EXPECT_EQ(script_out.output, stitched);
}

TEST(ReplRegressionTest, ExecuteScriptStopsAtFirstError) {
  Shell shell;
  StatementOutcome out = shell.ExecuteScript(
      "GEN BASKETS b n_baskets=10 n_items=5 seed=1;\n"
      "FLOCK f QUERY answer(B) :- b(B,$1)\n"
      "  FILTER COUNT >= 1;  # a comment; with a semicolon\n"
      "# a comment line;\n"
      "RUN f LIMIT 1; RUN missing; HELP;");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kNotFound);
  // The statements before the failure were applied, and their output is
  // kept; nothing after the failure ran.
  EXPECT_TRUE(shell.database().Has("b"));
  EXPECT_EQ(out.output.find("generated b: "), 0u) << out.output;
  EXPECT_NE(out.output.find("flock f declared"), std::string::npos);
  EXPECT_NE(out.output.find("f: "), std::string::npos);
  EXPECT_EQ(out.output.find("statements:"), std::string::npos);  // HELP
  // The error names the failing statement (4th) and its starting line
  // (5th: comments and multi-line statements keep the line count).
  EXPECT_EQ(out.status.message(),
            "statement 4 (line 5): no flock named missing");
}

TEST(ReplRegressionTest, OpenCheckpointFlowUnchanged) {
  MemVfs vfs;
  {
    Shell shell;
    shell.set_vfs(&vfs);
    EXPECT_NE(ExecuteStatement(shell, "OPEN cat").output.find("opened cat"),
              std::string::npos);
    ASSERT_TRUE(
        ExecuteStatement(shell,
                         "GEN BASKETS b n_baskets=30 n_items=8 seed=5")
            .ok());
    StatementOutcome cp = ExecuteStatement(shell, "CHECKPOINT");
    ASSERT_TRUE(cp.ok());
    EXPECT_NE(cp.output.find("bytes snapshotted"), std::string::npos);
  }
  Shell shell;
  shell.set_vfs(&vfs);
  StatementOutcome reopened = ExecuteStatement(shell, "OPEN cat");
  ASSERT_TRUE(reopened.ok());
  EXPECT_NE(reopened.output.find("opened cat: 1 relations"),
            std::string::npos);
}

TEST(ReplRegressionTest, SetTimeoutStillTyped) {
  Shell shell;
  MustRun(shell,
          "GEN BASKETS mb n_baskets=2000 n_items=100 avg_size=8 seed=9");
  ASSERT_TRUE(ExecuteStatement(shell, "SET TIMEOUT 1").ok());
  StatementOutcome out = ExecuteStatement(shell, "MAXIMAL mb SUPPORT 5");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(ExecuteStatement(shell, "SET TIMEOUT 0").ok());
  EXPECT_EQ(shell.timeout_ms(), 0);
}

// --------------------------------------------------- SeedDatabase (COW)

TEST(SeedDatabaseTest, SessionsShareBaseRelationsCopyOnWrite) {
  Shell base;
  MustRun(base, "GEN BASKETS shared n_baskets=40 n_items=8 seed=2");
  const Database& base_db = base.database();
  std::shared_ptr<const Relation> payload = base_db.GetShared("shared");
  ASSERT_NE(payload, nullptr);

  Shell a;
  Shell b;
  a.SeedDatabase(base_db);
  b.SeedDatabase(base_db);
  // Seeding shares the payload, not a copy.
  EXPECT_EQ(a.database().GetShared("shared").get(), payload.get());
  EXPECT_EQ(b.database().GetShared("shared").get(), payload.get());

  // A mutation in one session replaces only that session's pointer.
  MustRun(a, "GEN BASKETS shared n_baskets=10 n_items=4 seed=7");
  EXPECT_NE(a.database().GetShared("shared").get(), payload.get());
  EXPECT_EQ(b.database().GetShared("shared").get(), payload.get());
  EXPECT_EQ(base.database().GetShared("shared").get(), payload.get());
}

}  // namespace
}  // namespace qf
