#ifndef LEGO_LEGO_SYNTHESIS_H_
#define LEGO_LEGO_SYNTHESIS_H_

#include <cstdint>
#include <vector>

#include "lego/affinity.h"
#include "persist/io.h"
#include "sql/statement_type.h"

namespace lego::core {

/// Progressive sequence synthesis (paper §III-B, Algorithm 3), enumerated
/// lazily.
///
/// The paper's S — every synthesized SQL Type Sequence of length <= LEN — is
/// implicit: it is the set of walks over the synthesized affinities that
/// begin at a start type. When affinity t1 -> t2 is synthesized, the new
/// sequences are the walks that contain it: a known prefix ending in t1 (the
/// PS lookup), then t2, then every expansion with known affinities (listSeq).
/// Each walk is new exactly once, under the last of its affinities to be
/// synthesized. OnNewAffinity enumerates only the first `limit` of them, so
/// its work and memory are O(limit * LEN + LEN * (LEN + kNumStatementTypes))
/// however long LEN is and however dense the affinities are.
class SequenceSynthesizer {
 public:
  explicit SequenceSynthesizer(int max_len) : max_len_(max_len) {}

  /// Registers a type that may begin a sequence.
  void AddStartType(sql::StatementType t) {
    start_types_ |= uint64_t{1} << static_cast<int>(t);
  }

  /// Algorithm 3: records affinity t1 -> t2 and returns at most `limit` of
  /// the sequences it makes new (each of length in [2, LEN]). They come
  /// shortest first; within a length by prefix length, then prefix, then
  /// expansion, each compared in StatementType order — Alg. 3's depth-first
  /// order, with prefixes of one length taken lexicographically rather than
  /// in the order they were synthesized. Returns nothing if the affinity
  /// was already synthesized.
  std::vector<std::vector<sql::StatementType>> OnNewAffinity(
      sql::StatementType t1, sql::StatementType t2, size_t limit);

  /// Affinities synthesized so far (S is every walk over these).
  const TypeAffinityMap& synthesized() const { return synthesized_; }

  /// Checkpointing: the synthesized affinities round-trip; start types and
  /// max_len are configuration (max_len is verified).
  Status SaveState(persist::StateWriter* w) const;
  Status LoadState(persist::StateReader* r);

 private:
  int max_len_;
  uint64_t start_types_ = 0;
  TypeAffinityMap synthesized_;
};

}  // namespace lego::core

#endif  // LEGO_LEGO_SYNTHESIS_H_
