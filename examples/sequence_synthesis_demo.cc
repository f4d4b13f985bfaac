// Walks through LEGO's two core algorithms on the paper's own examples:
//
//  1. Type-affinity analysis (Algorithm 2) over the Fig. 5 running example;
//  2. Progressive sequence synthesis (Algorithm 3) when a new affinity is
//     discovered (Fig. 6), including instantiation of a synthesized
//     sequence into executable SQL.
//
//   ./examples/sequence_synthesis_demo

#include <cstdint>
#include <cstdio>

#include "fuzz/testcase.h"
#include "lego/affinity.h"
#include "lego/ast_library.h"
#include "lego/instantiator.h"
#include "lego/synthesis.h"
#include "minidb/database.h"

int main() {
  using namespace lego;  // NOLINT(build/namespaces)
  using sql::StatementType;

  // ---- Algorithm 2: affinity analysis on the Fig. 5 original seed --------
  auto seed = fuzz::TestCase::FromSql(
      "CREATE TABLE t1 (v1 INT, v2 INT);\n"
      "INSERT INTO t1 VALUES (1, 1);\n"
      "INSERT INTO t1 VALUES (2, 1);\n"
      "UPDATE t1 SET v1 = 1;\n"
      "SELECT * FROM t1 ORDER BY v1;\n");
  if (!seed.ok()) return 1;

  core::TypeAffinityMap affinities;
  auto discovered = affinities.Analyze(seed->TypeSequence());
  std::printf("Affinities from the Fig. 5 seed (%zu found):\n",
              discovered.size());
  for (const auto& [t1, t2] : discovered) {
    std::printf("  %s -> %s\n",
                std::string(sql::StatementTypeName(t1)).c_str(),
                std::string(sql::StatementTypeName(t2)).c_str());
  }

  // ---- Algorithm 3: progressive synthesis on a new affinity --------------
  core::SequenceSynthesizer synthesizer(/*max_len=*/4);
  size_t before = 0;
  for (const auto& [t1, t2] : affinities.All()) {
    synthesizer.AddStartType(t1);
    synthesizer.AddStartType(t2);
    before += synthesizer.OnNewAffinity(t1, t2, SIZE_MAX).size();
  }

  // The Fig. 5 substitution discovers INSERT -> DELETE; only sequences
  // containing the new affinity are enumerated.
  synthesizer.AddStartType(StatementType::kDelete);
  auto fresh = synthesizer.OnNewAffinity(StatementType::kInsert,
                                         StatementType::kDelete, SIZE_MAX);
  std::printf(
      "\nNew affinity INSERT -> DELETE: %zu new sequences "
      "(S grew %zu -> %zu):\n",
      fresh.size(), before, before + fresh.size());
  size_t shown = 0;
  for (const auto& seq : fresh) {
    if (shown++ >= 6) break;
    std::printf("  ");
    for (auto t : seq) {
      std::printf("[%s] ", std::string(sql::StatementTypeName(t)).c_str());
    }
    std::printf("\n");
  }

  // ---- Instantiation: sequence -> executable test case -------------------
  Rng rng(99);
  core::AstLibrary library;
  library.AddTestCase(*seed);  // donate the seed's AST skeletons
  core::Instantiator instantiator(&minidb::DialectProfile::PgLite(), &library,
                                  &rng);
  std::vector<StatementType> target = {
      StatementType::kCreateTable, StatementType::kInsert,
      StatementType::kDelete, StatementType::kSelect};
  fuzz::TestCase tc = instantiator.Instantiate(target);
  std::printf("\nInstantiated [CREATE TABLE][INSERT][DELETE][SELECT]:\n%s",
              tc.ToSql().c_str());

  // Prove it executes against a fresh database.
  minidb::Database db(&minidb::DialectProfile::PgLite());
  auto run = db.ExecuteScript(tc.ToSql());
  if (run.ok()) {
    std::printf("\nexecuted: %d ok, %d errors\n", run->executed,
                run->errors);
  }
  return 0;
}
