#include <gtest/gtest.h>

#include "baselines/sqlancer_like.h"
#include "baselines/sqlsmith_like.h"
#include "baselines/squirrel_like.h"
#include "fuzz/campaign.h"
#include "fuzz/harness.h"
#include "fuzz/seeds.h"
#include "lego/lego_fuzzer.h"

namespace lego {
namespace {

using fuzz::CampaignOptions;
using fuzz::CampaignResult;
using fuzz::ExecutionHarness;
using fuzz::RunCampaign;
using minidb::DialectProfile;

CampaignResult RunSmall(fuzz::Fuzzer* fuzzer, const DialectProfile& profile,
                        int executions) {
  ExecutionHarness harness(profile);
  CampaignOptions options;
  options.max_executions = executions;
  options.snapshot_every = executions / 4;
  return RunCampaign(fuzzer, &harness, options);
}

TEST(HarnessTest, SeedScriptsExecuteCleanly) {
  // Every built-in seed must parse and run without statement errors —
  // otherwise the mutation-based fuzzers start from broken corpora.
  for (const auto* profile : DialectProfile::All()) {
    minidb::Database db(profile);
    for (const std::string& script : fuzz::SeedScriptsFor(profile->name)) {
      db.ResetAll();
      auto result = db.ExecuteScript(script);
      ASSERT_TRUE(result.ok())
          << profile->name << ": " << result.status().ToString();
      EXPECT_EQ(result->errors, 0) << profile->name << " seed:\n" << script;
    }
  }
}

TEST(HarnessTest, RunDetectsNewCoverageThenPlateaus) {
  ExecutionHarness harness(DialectProfile::PgLite());
  auto tc = fuzz::TestCase::FromSql(
      "CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT * FROM t;");
  ASSERT_TRUE(tc.ok());
  fuzz::ExecResult first = harness.Run(*tc);
  EXPECT_TRUE(first.new_coverage);
  EXPECT_GT(first.total_edges, 0u);
  fuzz::ExecResult second = harness.Run(*tc);
  EXPECT_FALSE(second.new_coverage);
  EXPECT_EQ(second.total_edges, first.total_edges);
}

TEST(HarnessTest, EachTestCaseSeesFreshDatabase) {
  ExecutionHarness harness(DialectProfile::PgLite());
  auto create = fuzz::TestCase::FromSql("CREATE TABLE once (x INT);");
  ASSERT_TRUE(create.ok());
  EXPECT_EQ(harness.Run(*create).errors, 0);
  // Re-running must succeed again: state does not leak across runs.
  EXPECT_EQ(harness.Run(*create).errors, 0);
}

TEST(LegoFuzzerTest, DiscoversAffinitiesAndSynthesizes) {
  core::LegoOptions options;
  options.rng_seed = 42;
  core::LegoFuzzer lego(DialectProfile::PgLite(), options);
  CampaignResult result = RunSmall(&lego, DialectProfile::PgLite(), 1500);
  EXPECT_GT(lego.affinities().Count(), 20u);
  EXPECT_GT(lego.stats().sequences_total, 100u);
  EXPECT_GT(result.edges, 200u);
  EXPECT_GT(lego.corpus_size(), 5u);
}

TEST(LegoFuzzerTest, LegoMinusDiscoversNoAffinities) {
  core::LegoOptions options;
  options.sequence_algorithms_enabled = false;
  options.rng_seed = 42;
  core::LegoFuzzer lego_minus(DialectProfile::PgLite(), options);
  EXPECT_EQ(lego_minus.name(), "lego-");
  CampaignResult result =
      RunSmall(&lego_minus, DialectProfile::PgLite(), 800);
  EXPECT_EQ(lego_minus.affinities().Count(), 0u);
  EXPECT_GT(result.edges, 0u);
}

TEST(LegoFuzzerTest, FindsSeedCoveredBugsQuickly) {
  // marialite seeds contain eight bug-triggering sequences; LEGO replays
  // seeds first, so those bugs surface almost immediately.
  core::LegoOptions options;
  options.rng_seed = 7;
  core::LegoFuzzer lego(DialectProfile::MariaLite(), options);
  CampaignResult result = RunSmall(&lego, DialectProfile::MariaLite(), 200);
  EXPECT_GE(result.bug_ids.size(), 8u);
}

TEST(SqlsmithTest, GeneratesOnlySingleSelects) {
  baselines::SqlsmithLikeFuzzer sqlsmith(DialectProfile::PgLite());
  ExecutionHarness harness(DialectProfile::PgLite());
  sqlsmith.Prepare(&harness);
  for (int i = 0; i < 20; ++i) {
    fuzz::TestCase tc = sqlsmith.Next();
    ASSERT_EQ(tc.size(), 1u);
    EXPECT_EQ(tc.statements()[0]->type(), sql::StatementType::kSelect);
  }
}

TEST(SqlsmithTest, FindsNoBugs) {
  baselines::SqlsmithLikeFuzzer sqlsmith(DialectProfile::PgLite());
  CampaignResult result =
      RunSmall(&sqlsmith, DialectProfile::PgLite(), 1500);
  EXPECT_TRUE(result.bug_ids.empty());
  EXPECT_GT(result.edges, 0u);
  // Single-statement test cases contain no adjacent type pairs.
  EXPECT_TRUE(result.affinities.empty());
}

TEST(SqlancerTest, TemplateOrderIsFixed) {
  // Rule-based generation: statements always appear in the template's
  // stage order, so only a bounded set of type sequences is reachable.
  static const std::vector<sql::StatementType> kStageOrder = {
      sql::StatementType::kSet,        sql::StatementType::kCreateTable,
      sql::StatementType::kComment,    sql::StatementType::kCreateIndex,
      sql::StatementType::kCreateView, sql::StatementType::kInsert,
      sql::StatementType::kUpdate,     sql::StatementType::kInsert,
      sql::StatementType::kSelect,     sql::StatementType::kDelete};
  baselines::SqlancerLikeFuzzer sqlancer(DialectProfile::MyLite());
  ExecutionHarness harness(DialectProfile::MyLite());
  sqlancer.Prepare(&harness);
  for (int i = 0; i < 50; ++i) {
    fuzz::TestCase tc = sqlancer.Next();
    auto types = tc.TypeSequence();
    ASSERT_GE(types.size(), 3u);
    // Every generated sequence must be an order-preserving walk of the
    // stage list (with repetition inside the INSERT/SELECT blocks).
    size_t stage = 0;
    for (sql::StatementType t : types) {
      while (stage < kStageOrder.size() && kStageOrder[stage] != t) {
        ++stage;
      }
      ASSERT_LT(stage, kStageOrder.size())
          << "statement out of template order at iteration " << i;
      if (t != sql::StatementType::kInsert &&
          t != sql::StatementType::kSelect) {
        ++stage;  // non-repeating stage consumed
      }
    }
  }
}

TEST(SqlancerTest, FindsNoBugsOnAnyProfile) {
  for (const auto* profile : DialectProfile::All()) {
    baselines::SqlancerLikeFuzzer sqlancer(*profile);
    CampaignResult result = RunSmall(&sqlancer, *profile, 800);
    EXPECT_TRUE(result.bug_ids.empty())
        << profile->name << " found: "
        << (result.bug_ids.empty() ? "" : *result.bug_ids.begin());
  }
}

TEST(SquirrelTest, NeverChangesSeedTypeSequences) {
  baselines::SquirrelLikeFuzzer squirrel(DialectProfile::MariaLite());
  ExecutionHarness harness(DialectProfile::MariaLite());
  squirrel.Prepare(&harness);
  std::set<std::vector<sql::StatementType>> seed_sequences;
  for (const std::string& script :
       fuzz::SeedScriptsFor("marialite")) {
    auto tc = fuzz::TestCase::FromSql(script);
    ASSERT_TRUE(tc.ok());
    seed_sequences.insert(tc->TypeSequence());
  }
  // Drive a small loop: every generated test case's type sequence must be
  // one of the seeds' (intra-statement mutation preserves sequences).
  for (int i = 0; i < 200; ++i) {
    fuzz::TestCase tc = squirrel.Next();
    EXPECT_TRUE(seed_sequences.count(tc.TypeSequence()))
        << "squirrel changed a type sequence at iteration " << i;
    squirrel.OnResult(tc, harness.Run(tc));
  }
}

TEST(SquirrelTest, FindsSeedBugsOnMariaButNotPg) {
  baselines::SquirrelLikeFuzzer maria(DialectProfile::MariaLite());
  CampaignResult maria_result =
      RunSmall(&maria, DialectProfile::MariaLite(), 600);
  EXPECT_GE(maria_result.bug_ids.size(), 8u);

  baselines::SquirrelLikeFuzzer pg(DialectProfile::PgLite());
  CampaignResult pg_result = RunSmall(&pg, DialectProfile::PgLite(), 600);
  EXPECT_TRUE(pg_result.bug_ids.empty());
}

TEST(ComparisonTest, LegoBeatsBaselinesOnCoverageAndAffinities) {
  const auto& profile = DialectProfile::MyLite();
  const int kBudget = 2500;

  core::LegoOptions options;
  options.rng_seed = 3;
  core::LegoFuzzer lego(profile, options);
  CampaignResult lego_result = RunSmall(&lego, profile, kBudget);

  baselines::SquirrelLikeFuzzer squirrel(profile);
  CampaignResult squirrel_result = RunSmall(&squirrel, profile, kBudget);

  baselines::SqlancerLikeFuzzer sqlancer(profile);
  CampaignResult sqlancer_result = RunSmall(&sqlancer, profile, kBudget);

  // The paper's headline ordering (Fig. 9 / Tables II-III).
  EXPECT_GT(lego_result.edges, squirrel_result.edges);
  EXPECT_GT(lego_result.edges, sqlancer_result.edges);
  EXPECT_GT(lego_result.affinities.size(), squirrel_result.affinities.size());
  EXPECT_GT(lego_result.affinities.size(), sqlancer_result.affinities.size());
  EXPECT_GE(lego_result.bug_ids.size(), squirrel_result.bug_ids.size());
}

}  // namespace
}  // namespace lego
