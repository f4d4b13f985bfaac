#include "fuzz/distill.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "coverage/coverage.h"

namespace lego::fuzz {

std::vector<TestCase> DistillCorpus(const std::vector<TestCase>& cases,
                                    ExecutionHarness* harness,
                                    DistillStats* stats) {
  DistillStats local;
  local.original_cases = cases.size();

  // The one replay pass: record each case's classified run map as sparse
  // (edge, bucket bits) pairs; case i owns entries [begin[i], begin[i+1]).
  // The harness map accumulates the corpus union on the way.
  std::vector<uint16_t> edges;
  std::vector<uint8_t> bits;
  std::vector<size_t> begin(cases.size() + 1, 0);
  harness->ResetCoverage();
  for (size_t i = 0; i < cases.size(); ++i) {
    harness->Run(cases[i]);
    ++local.replays;
    const cov::CoverageMap& run = harness->last_run_coverage();
    const uint8_t* data = run.data();
    run.ForEachTouched([&](size_t e) {
      if (data[e] == 0) return;
      edges.push_back(static_cast<uint16_t>(e));
      bits.push_back(data[e]);
    });
    begin[i + 1] = edges.size();
  }
  local.original_edges = harness->CoveredEdges();
  harness->ResetCoverage();

  // Largest-footprint-first is the classic cmin greedy: big cases swallow
  // the common edges early, so small cases only survive on genuinely rare
  // coverage. Stable tie-break on input order keeps the result
  // deterministic.
  std::vector<size_t> order(cases.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return begin[a + 1] - begin[a] > begin[b + 1] - begin[b];
  });

  // Greedy set cover in that order: keep a case iff it adds a bucket bit
  // nothing before it did — the test GlobalCoverage::MergeDetectNew makes.
  std::vector<uint8_t> virgin(cov::CoverageMap::kSize, 0);
  std::vector<bool> keep(cases.size(), false);
  for (size_t i : order) {
    for (size_t k = begin[i]; k < begin[i + 1]; ++k) {
      uint8_t& v = virgin[edges[k]];
      if ((bits[k] & ~v) != 0) {
        v |= bits[k];
        keep[i] = true;
      }
    }
  }

  // Only a kept case ever sets a virgin bit, so the map now holds exactly
  // the kept subset's union.
  local.kept_edges = static_cast<size_t>(
      std::count_if(virgin.begin(), virgin.end(),
                    [](uint8_t v) { return v != 0; }));

  std::vector<TestCase> kept;
  for (size_t i = 0; i < cases.size(); ++i) {
    if (keep[i]) kept.push_back(cases[i].Clone());
  }
  local.kept_cases = kept.size();

  if (stats != nullptr) *stats = local;
  return kept;
}

}  // namespace lego::fuzz
