// Backend parity: a forked child driven over the pipe protocol must be
// observationally identical to the embedded in-process engine — same
// executed / rejected / crash stream for the same test cases. This is the
// contract that makes campaign and triage results backend-agnostic.
//
// Coverage parity holds for parse-normal test cases (anything that came
// from SQL text). Raw generated ASTs can differ from their own printed
// form in literal representation — e.g. Literal(-12) prints as "-12" and
// re-parses as unary-minus over Literal(12) — so the forked child, which
// executes the wire-format SQL text, can touch a small superset of eval
// edges. The first suite pins the strict statement-outcome parity on raw
// cases; the second pins *full* parity (coverage included) on normalized
// cases, proving the pipe protocol itself loses nothing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/backend.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "lego/lego_fuzzer.h"
#include "minidb/database.h"
#include "minidb/profile.h"

namespace lego::fuzz {
namespace {

constexpr int kCases = 200;

struct ParityOptions {
  /// Re-parse each generated case from its own SQL before running it, so
  /// both backends execute structurally identical statements.
  bool normalize = false;
  /// Also require identical coverage feedback (normalized cases only).
  bool compare_coverage = false;
};

/// Drives kCases fuzzer-generated test cases through an in-process harness
/// and a forked harness in lockstep, comparing every ExecResult field that
/// campaigns and triage consume. The fuzzer's feedback loop is fed from the
/// in-process results, so both harnesses see the identical case stream.
void ExpectParity(const std::string& profile_name, uint64_t seed,
                  const ParityOptions& popt) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName(profile_name);
  ASSERT_NE(profile, nullptr);

  core::LegoOptions options;
  options.rng_seed = seed;
  core::LegoFuzzer fuzzer(*profile, options);

  ExecutionHarness inproc(*profile);
  BackendOptions forked_options;
  forked_options.kind = BackendKind::kForked;
  ExecutionHarness forked(*profile, forked_options);

  fuzzer.Prepare(&inproc);
  for (int i = 0; i < kCases; ++i) {
    TestCase generated = fuzzer.Next();
    TestCase tc = generated.Clone();
    if (popt.normalize) {
      auto reparsed = TestCase::FromSql(generated.ToSql());
      // Print→parse is a guaranteed fixed point for printed output, but a
      // raw generated AST may not re-parse (dialect-invalid constructs are
      // part of the fuzzing diet) — skip those for the normalized suite.
      if (!reparsed.ok()) continue;
      tc = std::move(*reparsed);
    }

    ExecResult a = inproc.Run(tc);
    ExecResult b = forked.Run(tc);

    const std::string sql = tc.ToSql();
    EXPECT_EQ(a.executed, b.executed) << "case " << i << ":\n" << sql;
    EXPECT_EQ(a.errors, b.errors) << "case " << i << ":\n" << sql;
    EXPECT_EQ(a.crashed, b.crashed) << "case " << i << ":\n" << sql;
    if (a.crashed && b.crashed) {
      EXPECT_EQ(a.crash.bug_id, b.crash.bug_id) << "case " << i;
      EXPECT_EQ(a.crash.stack_hash, b.crash.stack_hash) << "case " << i;
      EXPECT_EQ(a.crash.component, b.crash.component) << "case " << i;
    }
    EXPECT_FALSE(b.hang) << "case " << i;
    if (popt.compare_coverage) {
      EXPECT_EQ(a.new_coverage, b.new_coverage)
          << "case " << i << ":\n" << sql;
      EXPECT_EQ(a.total_edges, b.total_edges) << "case " << i << ":\n" << sql;
    }

    if (a.executed != b.executed || a.errors != b.errors ||
        a.crashed != b.crashed) {
      return;  // first divergence pinpointed; later cases only add noise
    }
    fuzzer.OnResult(tc, a);
  }
}

TEST(BackendParityTest, Pglite) { ExpectParity("pglite", 11, {}); }
TEST(BackendParityTest, Mylite) { ExpectParity("mylite", 12, {}); }
TEST(BackendParityTest, Marialite) { ExpectParity("marialite", 13, {}); }
TEST(BackendParityTest, Comdlite) { ExpectParity("comdlite", 14, {}); }

TEST(BackendParityTest, PgliteNormalizedCoverage) {
  ExpectParity("pglite", 21, {/*normalize=*/true, /*compare_coverage=*/true});
}
TEST(BackendParityTest, MarialiteNormalizedCoverage) {
  ExpectParity("marialite", 23,
               {/*normalize=*/true, /*compare_coverage=*/true});
}

// --- child deaths keep run coverage exact ------------------------------------
//
// A forked child that dies mid-run may have been killed inside a coverage
// probe, so that run's FinishRun and the next child's Reset scan the whole
// shared map instead of its touched-edge list. Observably, the dying run must
// report exactly the coverage of the statements before the death, and the
// next run must start from a clean map: both classified maps equal the
// in-process ones byte for byte.

/// RAII around the planted real-defect switches (DROP TABLE aborts, VACUUM
/// spins forever) so a failing assertion cannot leak them into later tests.
class PlantedDefects {
 public:
  PlantedDefects() {
    minidb::testing::SetPlantedAbortForTesting(true);
    minidb::testing::SetPlantedHangForTesting(true);
  }
  ~PlantedDefects() {
    minidb::testing::SetPlantedAbortForTesting(false);
    minidb::testing::SetPlantedHangForTesting(false);
  }
};

/// Runs one session of `sql` on `backend`; returns its classified map and
/// the last statement's outcome.
std::vector<uint8_t> RunSession(DbBackend* backend, const std::string& sql,
                                StmtOutcome* last) {
  auto tc = TestCase::FromSql(sql);
  EXPECT_TRUE(tc.ok()) << sql;
  backend->Reset();
  if (tc.ok()) {
    for (const sql::StmtPtr& stmt : tc->statements()) {
      *last = backend->Execute(*stmt, /*want_rows=*/false);
      if (last->server_died()) break;
    }
  }
  const cov::CoverageMap& map = backend->FinishRun();
  return std::vector<uint8_t>(map.data(), map.data() + cov::CoverageMap::kSize);
}

TEST(BackendParityTest, ChildDeathKeepsCoverageOfDyingAndNextRun) {
  // Armed before the forked backend spawns, so its children inherit the
  // defects; the in-process backend never runs a trigger statement.
  PlantedDefects plant;
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);
  BackendOptions forked_options;
  forked_options.kind = BackendKind::kForked;
  forked_options.max_stmt_ms = 150;
  std::unique_ptr<DbBackend> forked = MakeBackend(*profile, forked_options);
  std::unique_ptr<DbBackend> inproc = MakeBackend(*profile, BackendOptions{});
  const std::string setup = "CREATE TABLE s (k INT); INSERT INTO s VALUES (7);";
  forked->set_setup_script(setup);
  inproc->set_setup_script(setup);

  const std::string prefix =
      "CREATE TABLE t0 (a INT, b TEXT); "
      "INSERT INTO t0 VALUES (1, 'x'), (2, 'y'), (3, NULL); "
      "SELECT a, b FROM t0 WHERE a > 1 ORDER BY a; ";
  struct Death {
    std::string trigger;
    StmtOutcome::Status status;
    std::string bug_id;
  };
  const std::vector<Death> deaths = {
      {"DROP TABLE t0;", StmtOutcome::Status::kCrash, "REAL-SIGABRT"},
      {"VACUUM;", StmtOutcome::Status::kHang, "HANG"},
  };
  const std::vector<std::string> normal_cases = {
      "CREATE TABLE u (c INT); INSERT INTO u VALUES (5); "
      "SELECT c FROM u WHERE c = 5;",
      "CREATE TABLE v (d TEXT); INSERT INTO v VALUES ('q'); "
      "UPDATE v SET d = 'r'; DELETE FROM v; SELECT d FROM v;",
  };

  for (const Death& death : deaths) {
    for (const std::string& normal : normal_cases) {
      SCOPED_TRACE(death.trigger + " then " + normal);
      StmtOutcome forked_last;
      StmtOutcome inproc_last;
      std::vector<uint8_t> died =
          RunSession(forked.get(), prefix + death.trigger, &forked_last);
      EXPECT_EQ(forked_last.status, death.status);
      EXPECT_EQ(forked_last.crash.bug_id, death.bug_id);
      EXPECT_FALSE(forked->FinishRun().has_touched_list());
      EXPECT_EQ(died, RunSession(inproc.get(), prefix, &inproc_last));

      std::vector<uint8_t> next =
          RunSession(forked.get(), normal, &forked_last);
      EXPECT_FALSE(forked_last.server_died());
      EXPECT_TRUE(forked->FinishRun().has_touched_list());
      EXPECT_EQ(next, RunSession(inproc.get(), normal, &inproc_last));
    }
  }
}

}  // namespace
}  // namespace lego::fuzz
