#ifndef LEGO_LEGO_AFFINITY_H_
#define LEGO_LEGO_AFFINITY_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "persist/io.h"
#include "sql/statement_type.h"

namespace lego::core {

/// A type-affinity is a chronological relation (t1, t2): statements of type
/// t2 may meaningfully follow statements of type t1 (paper §III-A1). This
/// map is the paper's `T`, stored as one successor bitmask per t1.
class TypeAffinityMap {
 public:
  using Affinity = std::pair<sql::StatementType, sql::StatementType>;
  static_assert(sql::kNumStatementTypes <= 64, "successor sets are uint64_t");

  /// Paper Algorithm 2: scans the type sequence of a test case and records
  /// every adjacent pair with differing types. Returns the affinities that
  /// were new to this map, in discovery order.
  std::vector<Affinity> Analyze(
      const std::vector<sql::StatementType>& type_sequence);

  /// Adds one affinity; returns true if it was new.
  bool Add(sql::StatementType t1, sql::StatementType t2);

  /// True if (t1, t2) is known.
  bool Contains(sql::StatementType t1, sql::StatementType t2) const {
    return (successors_[static_cast<size_t>(t1)] >> static_cast<int>(t2)) & 1;
  }

  /// Successors of `t1`: bit t is set for every known affinity t1 -> t.
  uint64_t SuccessorMask(sql::StatementType t1) const {
    return successors_[static_cast<size_t>(t1)];
  }

  /// Total number of (t1, t2) pairs — the paper's Table II metric.
  size_t Count() const { return count_; }

  /// All affinities in key order.
  std::vector<Affinity> All() const;

  void Clear();

  /// Checkpointing: the full pair set round-trips (key order); Count() is
  /// restored implicitly by re-adding.
  Status SaveState(persist::StateWriter* w) const;
  Status LoadState(persist::StateReader* r);

 private:
  std::array<uint64_t, sql::kNumStatementTypes> successors_{};
  size_t count_ = 0;
};

}  // namespace lego::core

#endif  // LEGO_LEGO_AFFINITY_H_
