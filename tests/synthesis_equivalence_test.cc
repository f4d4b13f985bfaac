// Equivalence gate for the lazy progressive synthesizer (Alg. 3).
//
// Reference: a copy of the materialized synthesizer the fuzzer used before
// (every sequence stored in S, a prefix index PS, a 200 000-sequence cap),
// followed by the fuzzer's former consumption step: stable-sort the new
// sequences by length and take the first 96. Both are fed the affinity
// stream of a LEN = 5 lego campaign on each dialect profile, and compared
// per affinity until the reference reaches its cap.
//
// The rule, per affinity:
//  - Both take the same number of sequences.
//  - For every length the reference took completely, both took the same
//    set of sequences of that length. Within a length the order differs on
//    purpose: the reference walks prefixes (the part before the first
//    t1 -> t2) in the order they entered S, the lazy synthesizer in
//    StatementType order. Among sequences with the same prefix, the order
//    (the depth-first order of listSeq) must be the same.
//  - At the length the cut of 96 falls in, the lazy synthesizer's
//    sequences must all be sequences of that length the reference made.
//
// The reference is fed one affinity at a time: the map grows by that pair,
// then Alg. 3 runs, as the paper states it. The fuzzer used to analyze a
// whole test case first, so when one case brought several new affinities
// the reference's first call already expanded with the later ones and the
// later calls emitted those walks again. The lazy synthesizer emits every
// walk once, under the last of its affinities, whatever the batching.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "fuzz/harness.h"
#include "lego/affinity.h"
#include "lego/lego_fuzzer.h"
#include "lego/synthesis.h"
#include "minidb/profile.h"

namespace lego::core {
namespace {

using sql::StatementType;
using Sequence = std::vector<StatementType>;
using Affinity = TypeAffinityMap::Affinity;

/// The former SequenceSynthesizer, kept verbatim in behaviour.
class MaterializedSynthesizer {
 public:
  static constexpr size_t kMaxSequences = 200000;

  explicit MaterializedSynthesizer(int max_len) : max_len_(max_len) {}

  void AddStartType(StatementType t) {
    if (prefix_.count({t, 1})) return;
    Record({t});
  }

  std::vector<Sequence> OnNewAffinity(StatementType t1, StatementType t2,
                                      const TypeAffinityMap& affinities) {
    std::vector<Sequence> out;
    size_t first_new = sequences_.size();
    for (int level = 1; level <= max_len_ - 1; ++level) {
      auto it = prefix_.find({t1, level});
      if (it == prefix_.end() || it->second.empty()) continue;
      std::vector<size_t> prefix_indexes = it->second;
      for (size_t seq_index : prefix_indexes) {
        if (seq_index >= first_new) continue;
        Sequence seq = sequences_[seq_index];
        seq.push_back(t2);
        if (!Record(seq)) return out;
        out.push_back(seq);
        ListSeq(level + 1, t2, &seq, affinities, &out);
        if (sequences_.size() >= kMaxSequences) return out;
      }
    }
    return out;
  }

  size_t dropped() const { return dropped_; }

 private:
  bool Record(const Sequence& seq) {
    if (sequences_.size() >= kMaxSequences) {
      ++dropped_;
      return false;
    }
    sequences_.push_back(seq);
    prefix_[{seq.back(), static_cast<int>(seq.size())}].push_back(
        sequences_.size() - 1);
    return true;
  }

  void ListSeq(int level, StatementType node_type, Sequence* seq,
               const TypeAffinityMap& affinities, std::vector<Sequence>* out) {
    if (level >= max_len_) return;
    // Ascending StatementType order, as the former std::set iteration.
    for (int t = 0; t < sql::kNumStatementTypes; ++t) {
      auto next = static_cast<StatementType>(t);
      if (!affinities.Contains(node_type, next)) continue;
      if (sequences_.size() >= kMaxSequences) return;
      seq->push_back(next);
      ListSeq(level + 1, next, seq, affinities, out);
      if (Record(*seq)) out->push_back(*seq);
      seq->pop_back();
    }
  }

  int max_len_;
  size_t dropped_ = 0;
  std::vector<Sequence> sequences_;
  std::map<std::pair<StatementType, int>, std::vector<size_t>> prefix_;
};

constexpr int kLen = 5;
constexpr size_t kTake = 96;

/// Affinities in the order a LEN = 5 lego campaign discovers them: each
/// new-coverage test case is analyzed (Alg. 2) exactly as the fuzzer's
/// OnResult does.
std::vector<Affinity> RecordAffinityStream(
    const minidb::DialectProfile& profile, int executions) {
  LegoOptions options;
  options.max_sequence_length = kLen;
  options.rng_seed = 1000;
  LegoFuzzer fuzzer(profile, options);
  fuzz::ExecutionHarness harness(profile);
  fuzzer.Prepare(&harness);
  TypeAffinityMap seen;
  std::vector<Affinity> stream;
  for (int i = 0; i < executions; ++i) {
    fuzz::TestCase tc = fuzzer.Next();
    fuzz::ExecResult result = harness.Run(tc);
    if (result.new_coverage || result.new_rules) {
      for (const Affinity& a : seen.Analyze(tc.TypeSequence())) {
        stream.push_back(a);
      }
    }
    fuzzer.OnResult(tc, result);
  }
  EXPECT_EQ(seen.All(), fuzzer.affinities().All());
  return stream;
}

/// Prefix of `seq` up to and including the first t1 of a t1 -> t2 step.
Sequence PrefixOf(const Sequence& seq, const Affinity& a) {
  for (size_t i = 0; i + 1 < seq.size(); ++i) {
    if (seq[i] == a.first && seq[i + 1] == a.second) {
      return Sequence(seq.begin(), seq.begin() + static_cast<long>(i) + 1);
    }
  }
  ADD_FAILURE() << "sequence without its affinity";
  return {};
}

std::vector<Sequence> OfLength(const std::vector<Sequence>& list,
                               size_t length) {
  std::vector<Sequence> out;
  for (const Sequence& seq : list) {
    if (seq.size() == length) out.push_back(seq);
  }
  return out;
}

/// Checks one affinity by the rule in the file comment; returns whether
/// the two lists are also identical in order.
bool CheckAffinity(const Affinity& a, const std::vector<Sequence>& reference,
                   const std::vector<Sequence>& lazy) {
  std::vector<Sequence> taken(
      reference.begin(),
      reference.begin() + static_cast<long>(std::min(kTake, reference.size())));
  EXPECT_EQ(lazy.size(), taken.size());
  size_t cumulative = 0;
  for (size_t length = 2; length <= kLen; ++length) {
    std::vector<Sequence> made = OfLength(reference, length);
    std::vector<Sequence> want = OfLength(taken, length);
    std::vector<Sequence> got = OfLength(lazy, length);
    cumulative += made.size();
    EXPECT_EQ(got.size(), want.size()) << "length " << length;
    if (cumulative <= kTake) {
      EXPECT_EQ(std::set<Sequence>(got.begin(), got.end()),
                std::set<Sequence>(want.begin(), want.end()))
          << "length " << length;
      std::map<Sequence, std::vector<Sequence>> by_prefix_want, by_prefix_got;
      for (const Sequence& s : want) by_prefix_want[PrefixOf(s, a)].push_back(s);
      for (const Sequence& s : got) by_prefix_got[PrefixOf(s, a)].push_back(s);
      EXPECT_EQ(by_prefix_got, by_prefix_want) << "length " << length;
    } else {
      std::set<Sequence> all(made.begin(), made.end());
      for (const Sequence& s : got) EXPECT_TRUE(all.count(s));
    }
  }
  return lazy == taken;
}

class SynthesisEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SynthesisEquivalenceTest, LazyMatchesMaterializedBeforeTheCap) {
  const minidb::DialectProfile& profile =
      *minidb::DialectProfile::ByName(GetParam());
  std::vector<Affinity> stream = RecordAffinityStream(profile, 3000);
  ASSERT_GT(stream.size(), 50u);

  MaterializedSynthesizer reference(kLen);
  SequenceSynthesizer lazy(kLen);
  for (StatementType t : profile.EnabledTypes()) {
    reference.AddStartType(t);
    lazy.AddStartType(t);
  }
  TypeAffinityMap map;
  size_t compared = 0;
  size_t identical = 0;
  for (const Affinity& a : stream) {
    map.Add(a.first, a.second);
    std::vector<Sequence> made = reference.OnNewAffinity(a.first, a.second, map);
    if (reference.dropped() > 0) break;
    std::stable_sort(made.begin(), made.end(),
                     [](const Sequence& x, const Sequence& y) {
                       return x.size() < y.size();
                     });
    std::vector<Sequence> got = lazy.OnNewAffinity(a.first, a.second, kTake);
    identical += CheckAffinity(a, made, got) ? 1 : 0;
    ++compared;
    if (HasFailure()) {
      FAIL() << GetParam() << ": affinity #" << compared << " "
             << sql::StatementTypeName(a.first) << " -> "
             << sql::StatementTypeName(a.second);
    }
  }
  EXPECT_GT(compared, 50u);
  std::printf("%s: %zu affinities compared, %zu identical in order\n",
              GetParam(), compared, identical);
}

INSTANTIATE_TEST_SUITE_P(Profiles, SynthesisEquivalenceTest,
                         ::testing::Values("pglite", "marialite", "mylite",
                                           "comdlite"));

}  // namespace
}  // namespace lego::core
