#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/corpus_file.h"
#include "fuzz/distill.h"
#include "fuzz/harness.h"
#include "fuzz/state.h"
#include "lego/lego_fuzzer.h"
#include "minidb/profile.h"

namespace lego::fuzz {
namespace {

std::unique_ptr<core::LegoFuzzer> MakeLego(
    uint64_t seed,
    const minidb::DialectProfile& profile = minidb::DialectProfile::PgLite()) {
  core::LegoOptions options;
  options.rng_seed = seed;
  return std::make_unique<core::LegoFuzzer>(profile, options);
}

/// A realistic donor corpus: whatever a short campaign accumulates.
std::vector<TestCase> DonorCorpus(
    uint64_t seed, int executions,
    const minidb::DialectProfile& profile = minidb::DialectProfile::PgLite()) {
  auto fuzzer = MakeLego(seed, profile);
  ExecutionHarness harness(profile);
  CampaignOptions options;
  options.max_executions = executions;
  options.export_corpus = true;
  CampaignResult result = RunCampaign(fuzzer.get(), &harness, options);
  return std::move(result.corpus_export);
}

/// Exact identity of a case: its structural serialization (ToSql is lossy).
std::string Bytes(const TestCase& tc) {
  persist::StateWriter w;
  SaveTestCase(tc, &w);
  return w.buffer();
}

/// The three-pass distill DistillCorpus replaced, kept as the reference its
/// pools must equal: solo replays measure each footprint, a second replay
/// in largest-first order keeps the cases that still add coverage, and a
/// third replays the kept subset for kept_edges.
std::vector<TestCase> ThreePassDistill(const std::vector<TestCase>& cases,
                                       ExecutionHarness* harness,
                                       DistillStats* stats) {
  DistillStats local;
  local.original_cases = cases.size();
  std::vector<size_t> solo_edges(cases.size(), 0);
  for (size_t i = 0; i < cases.size(); ++i) {
    harness->ResetCoverage();
    harness->Run(cases[i]);
    ++local.replays;
    solo_edges[i] = harness->CoveredEdges();
  }
  std::vector<size_t> order(cases.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return solo_edges[a] > solo_edges[b];
  });
  std::vector<bool> keep(cases.size(), false);
  harness->ResetCoverage();
  for (size_t i : order) {
    keep[i] = harness->Run(cases[i]).new_coverage;
    ++local.replays;
  }
  local.original_edges = harness->CoveredEdges();
  std::vector<TestCase> kept;
  harness->ResetCoverage();
  for (size_t i = 0; i < cases.size(); ++i) {
    if (!keep[i]) continue;
    harness->Run(cases[i]);
    ++local.replays;
    kept.push_back(cases[i].Clone());
  }
  local.kept_edges = harness->CoveredEdges();
  local.kept_cases = kept.size();
  harness->ResetCoverage();
  *stats = local;
  return kept;
}

std::vector<TestCase> Concat(
    std::initializer_list<const std::vector<TestCase>*> parts) {
  std::vector<TestCase> out;
  for (const auto* part : parts) {
    for (const TestCase& tc : *part) out.push_back(tc.Clone());
  }
  return out;
}

/// Distills `input` with DistillCorpus and `reference_input` with the
/// three-pass reference, and requires the same kept cases in the same
/// order with the same edge counts.
void ExpectSameAsThreePass(const minidb::DialectProfile& profile,
                           const std::vector<TestCase>& input,
                           const std::vector<TestCase>& reference_input) {
  ExecutionHarness h_new(profile);
  ExecutionHarness h_ref(profile);
  DistillStats s_new, s_ref;
  std::vector<TestCase> k_new = DistillCorpus(input, &h_new, &s_new);
  std::vector<TestCase> k_ref =
      ThreePassDistill(reference_input, &h_ref, &s_ref);

  EXPECT_EQ(s_new.replays, input.size());
  EXPECT_EQ(s_new.original_cases, input.size());
  EXPECT_EQ(s_new.kept_cases, k_new.size());
  EXPECT_GT(s_new.original_edges, 0u);
  EXPECT_EQ(s_new.original_edges, s_ref.original_edges);
  EXPECT_EQ(s_new.kept_edges, s_ref.kept_edges);
  EXPECT_EQ(s_new.kept_edges, s_new.original_edges);
  ASSERT_EQ(k_new.size(), k_ref.size());
  for (size_t i = 0; i < k_new.size(); ++i) {
    EXPECT_EQ(Bytes(k_new[i]), Bytes(k_ref[i])) << "kept case " << i;
  }
}

TEST(CorpusFileTest, SaveLoadRoundTripsEveryCase) {
  std::vector<TestCase> donor = DonorCorpus(3, 1500);
  ASSERT_FALSE(donor.empty());
  const std::string path =
      (std::filesystem::temp_directory_path() / "lego_corpus_rt.bin").string();
  ASSERT_TRUE(SaveCorpusFile(donor, path).ok());
  auto loaded = LoadCorpusFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), donor.size());
  for (size_t i = 0; i < donor.size(); ++i) {
    EXPECT_EQ((*loaded)[i].ToSql(), donor[i].ToSql()) << "case " << i;
  }
  std::filesystem::remove(path);
}

TEST(CorpusFileTest, CorruptedFileIsRejected) {
  std::vector<TestCase> donor = DonorCorpus(3, 400);
  const std::string path =
      (std::filesystem::temp_directory_path() / "lego_corpus_bad.bin")
          .string();
  ASSERT_TRUE(SaveCorpusFile(donor, path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(40);
    byte ^= 0x20;
    f.write(&byte, 1);
  }
  EXPECT_FALSE(LoadCorpusFile(path).ok());
  std::filesystem::remove(path);
}

TEST(CorpusDistillTest, KeepsAllEdgesWithStrictlyFewerCases) {
  std::vector<TestCase> donor = DonorCorpus(7, 3000);
  ASSERT_GT(donor.size(), 10u);

  ExecutionHarness harness(minidb::DialectProfile::PgLite());
  DistillStats stats;
  std::vector<TestCase> kept = DistillCorpus(donor, &harness, &stats);

  EXPECT_EQ(stats.original_cases, donor.size());
  EXPECT_EQ(stats.kept_cases, kept.size());
  // The acceptance bar: strictly smaller, identical edge union.
  EXPECT_LT(kept.size(), donor.size());
  EXPECT_GT(stats.original_edges, 0u);
  EXPECT_EQ(stats.kept_edges, stats.original_edges);

  // Independent check on a fresh harness: the kept subset alone reaches
  // the full union.
  ExecutionHarness fresh(minidb::DialectProfile::PgLite());
  for (const TestCase& tc : kept) fresh.Run(tc);
  EXPECT_EQ(fresh.CoveredEdges(), stats.original_edges);
}

TEST(CorpusDistillTest, DistillationIsDeterministic) {
  std::vector<TestCase> donor = DonorCorpus(11, 1200);
  ExecutionHarness h1(minidb::DialectProfile::PgLite());
  ExecutionHarness h2(minidb::DialectProfile::PgLite());
  DistillStats s1, s2;
  std::vector<TestCase> k1 = DistillCorpus(donor, &h1, &s1);
  std::vector<TestCase> k2 = DistillCorpus(donor, &h2, &s2);
  ASSERT_EQ(k1.size(), k2.size());
  for (size_t i = 0; i < k1.size(); ++i) {
    EXPECT_EQ(Bytes(k1[i]), Bytes(k2[i]));
  }
  EXPECT_EQ(s1.kept_edges, s2.kept_edges);
}

TEST(CorpusDistillTest, SinglePassMatchesThreePassOnEveryProfile) {
  for (const char* name : {"pglite", "marialite", "mylite", "comdlite"}) {
    SCOPED_TRACE(name);
    const minidb::DialectProfile* profile =
        minidb::DialectProfile::ByName(name);
    ASSERT_NE(profile, nullptr);
    std::vector<TestCase> donor = DonorCorpus(5, 1500, *profile);
    ASSERT_GT(donor.size(), 10u);
    ExpectSameAsThreePass(*profile, donor, donor);
  }
}

TEST(CorpusDistillTest, DuplicatesAndTrimmedPoolMatchThreePass) {
  // The fleet's old merge input: the pool, the pool again (re-exported by
  // a shard that imported it), then that shard's own seeds.
  const minidb::DialectProfile& profile = minidb::DialectProfile::MariaLite();
  std::vector<TestCase> donor = DonorCorpus(13, 1500, profile);
  ExecutionHarness pool_harness(profile);
  DistillStats pool_stats;
  std::vector<TestCase> pool = DistillCorpus(donor, &pool_harness, &pool_stats);
  ASSERT_FALSE(pool.empty());
  std::vector<TestCase> fresh = DonorCorpus(17, 1500, profile);
  ASSERT_FALSE(fresh.empty());

  const std::vector<TestCase> untrimmed = Concat({&pool, &pool, &fresh});
  {
    SCOPED_TRACE("pool, pool, new");
    ExpectSameAsThreePass(profile, untrimmed, untrimmed);
  }
  {
    // What shards ship now: the trimmed merge keeps the same pool.
    SCOPED_TRACE("pool, new against pool, pool, new");
    ExpectSameAsThreePass(profile, Concat({&pool, &fresh}), untrimmed);
  }
}

TEST(CorpusDistillTest, ImportedCorpusAcceleratesFreshCampaign) {
  // Cross-campaign reuse: a fresh campaign seeded with a donor's distilled
  // corpus must reach more coverage than the same budget from scratch.
  std::vector<TestCase> donor = DonorCorpus(7, 3000);
  ExecutionHarness distill_harness(minidb::DialectProfile::PgLite());
  DistillStats stats;
  std::vector<TestCase> kept =
      DistillCorpus(donor, &distill_harness, &stats);

  CampaignOptions options;
  options.max_executions = 600;

  auto cold = MakeLego(21);
  ExecutionHarness cold_harness(minidb::DialectProfile::PgLite());
  CampaignResult from_scratch = RunCampaign(cold.get(), &cold_harness,
                                            options);

  options.import_seeds = &kept;
  auto warm = MakeLego(21);
  ExecutionHarness warm_harness(minidb::DialectProfile::PgLite());
  CampaignResult with_import = RunCampaign(warm.get(), &warm_harness,
                                           options);

  EXPECT_GT(with_import.edges, from_scratch.edges);
  EXPECT_GE(with_import.fuzzer_stats.corpus_seeds, kept.size());
}

}  // namespace
}  // namespace lego::fuzz
