#ifndef LEGO_FUZZ_DISTILL_H_
#define LEGO_FUZZ_DISTILL_H_

#include <cstddef>
#include <vector>

#include "fuzz/harness.h"
#include "fuzz/testcase.h"

namespace lego::fuzz {

/// Bookkeeping from one DistillCorpus run.
struct DistillStats {
  size_t original_cases = 0;
  size_t kept_cases = 0;
  /// Distinct edges covered by the full input corpus (replay union).
  size_t original_edges = 0;
  /// Distinct edges covered by the kept subset alone, from the recorded
  /// run maps. Equal to original_edges by construction; `corpus_cli
  /// distill` re-checks it by replaying the kept subset on a fresh harness.
  size_t kept_edges = 0;
  /// Total Run() calls spent: one per input case.
  size_t replays = 0;
};

/// Greedy corpus minimization (afl-cmin style): replays every case through
/// `harness` and keeps a subset that covers exactly the same edge set.
///
/// Algorithm: one pass replays each case once and records its classified
/// run map as sparse (edge, bucket bits) pairs; the cases are then ranked
/// largest footprint first (ties broken by input order) and a greedy cover
/// over the recorded maps keeps only those that still contribute a new
/// edge or hit-count bucket. Replaying through the real backend rather
/// than trusting bitmaps recorded by the donor campaign means distillation
/// holds for the engine as built today, not the one that produced the
/// corpus. Exact duplicates never survive past their first occurrence.
///
/// The kept cases are returned in their original input order. The
/// harness's accumulated coverage is clobbered (reset before/after use) —
/// pass a dedicated harness, not one mid-campaign. Requires a
/// deterministic backend (both built-in backends are).
std::vector<TestCase> DistillCorpus(const std::vector<TestCase>& cases,
                                    ExecutionHarness* harness,
                                    DistillStats* stats);

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_DISTILL_H_
