#ifndef LEGO_COVERAGE_COVERAGE_H_
#define LEGO_COVERAGE_COVERAGE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>

#include "util/hash.h"
#include "util/status.h"

namespace lego::persist {
class StateWriter;
class StateReader;
}  // namespace lego::persist

namespace lego::cov {

namespace detail {

/// AFL hit-count buckets: 1,2,3,4-7,8-15,16-31,32-127,128+ -> single bits.
constexpr uint8_t HitCountBucket(uint8_t count) {
  if (count == 0) return 0;
  if (count == 1) return 1;
  if (count == 2) return 2;
  if (count == 3) return 4;
  if (count <= 7) return 8;
  if (count <= 15) return 16;
  if (count <= 31) return 32;
  if (count <= 127) return 64;
  return 128;
}

/// HitCountBucket() for every counter value, built at compile time.
inline constexpr std::array<uint8_t, 256> kHitCountBuckets = [] {
  std::array<uint8_t, 256> table{};
  for (size_t c = 0; c < table.size(); ++c) {
    table[c] = HitCountBucket(static_cast<uint8_t>(c));
  }
  return table;
}();

}  // namespace detail

/// AFL-style edge-coverage map for one execution. Probes report a location
/// id; the map records the (prev >> 1) ^ cur edge and bumps an 8-bit
/// saturating counter. After a run, ClassifyCounts() folds raw counts into
/// AFL's hit-count buckets so "same edge, new hit-count magnitude" also
/// registers as new coverage.
///
/// A run hits a few thousand of the 65,536 edges, so Hit() also appends
/// each edge's index to a touched list on its first hit (0 -> 1). Reset,
/// ClassifyCounts, CopyFrom and the global merges walk that list instead of
/// the whole map. A run that touches more than kMaxTouched distinct edges
/// overflows the list, and every one of those steps then falls back to the
/// full map until the next Reset. The map stays one trivially copyable
/// struct: the forked backend shares it with its child as raw bytes.
class CoverageMap {
 public:
  static constexpr size_t kSize = 1 << 16;
  /// Touched-list capacity (8 KiB of indices).
  static constexpr size_t kMaxTouched = 4096;

  /// Writes the counters once; the touched list needs no initialization.
  CoverageMap() {
    map_.fill(0);
    prev_loc_ = 0;
    num_touched_ = 0;
  }

  /// Clears all counters and the edge-chain state.
  void Reset() {
    if (has_touched_list()) {
      for (uint16_t e : touched_edges()) map_[e] = 0;
    } else {
      map_.fill(0);
    }
    prev_loc_ = 0;
    num_touched_ = 0;
  }

  /// Records a hit of probe `loc` (called via LEGO_COV()).
  void Hit(uint64_t loc) {
    size_t edge = static_cast<size_t>((prev_loc_ ^ loc) & (kSize - 1));
    uint8_t& count = map_[edge];
    if (count == 0) {
      if (num_touched_ < kMaxTouched) {
        touched_[num_touched_] = static_cast<uint16_t>(edge);
      }
      ++num_touched_;
    }
    if (count != 0xff) ++count;
    prev_loc_ = loc >> 1;
  }

  /// Folds raw hit counts into AFL bucket bitmasks (1,2,3,4-7,8-15,16-31,
  /// 32-127,128+ -> single bits).
  void ClassifyCounts() {
    ForEachTouched([this](size_t e) { map_[e] = Bucket(map_[e]); });
  }

  /// Makes this map equal to `src` (counters, chain state and touched
  /// list), writing only the edges either map touched.
  void CopyFrom(const CoverageMap& src) {
    if (src.has_touched_list()) {
      Reset();
      for (size_t i = 0; i < src.num_touched_; ++i) {
        const uint16_t e = src.touched_[i];
        map_[e] = src.map_[e];
        touched_[i] = e;
      }
    } else {
      map_ = src.map_;
    }
    prev_loc_ = src.prev_loc_;
    num_touched_ = src.num_touched_;
  }

  /// Forgets the touched list, so every step takes the full-map path until
  /// the next Reset. For a map whose writer may have died inside Hit(),
  /// after bumping a counter but before listing its edge.
  void DropTouchedList() { num_touched_ = kMaxTouched + 1; }

  /// True while touched_edges() lists every nonzero counter.
  bool has_touched_list() const { return num_touched_ <= kMaxTouched; }

  /// The edges hit since Reset, in first-hit order. Only meaningful while
  /// has_touched_list().
  std::span<const uint16_t> touched_edges() const {
    return {touched_.data(), has_touched_list() ? num_touched_ : 0};
  }

  /// Calls f(edge) for every edge whose counter may be nonzero: the
  /// touched list when it is complete, otherwise every edge in a nonzero
  /// 8-byte word of the map.
  template <typename F>
  void ForEachTouched(F&& f) const {
    if (has_touched_list()) {
      for (uint16_t e : touched_edges()) f(static_cast<size_t>(e));
      return;
    }
    for (size_t i = 0; i < kSize; i += sizeof(uint64_t)) {
      uint64_t word;
      std::memcpy(&word, map_.data() + i, sizeof(word));
      if (word == 0) continue;
      for (size_t j = i; j < i + sizeof(word); ++j) f(j);
    }
  }

  /// Number of edges with any hits.
  size_t CountNonZero() const {
    size_t n = 0;
    for (uint8_t c : map_) n += (c != 0);
    return n;
  }

  const uint8_t* data() const { return map_.data(); }

  /// AFL hit-count bucket of a raw counter value.
  static constexpr uint8_t Bucket(uint8_t count) {
    return detail::kHitCountBuckets[count];
  }

 private:
  std::array<uint8_t, kSize> map_;
  uint64_t prev_loc_;
  /// Distinct edges hit since Reset; above kMaxTouched the list overflowed.
  uint32_t num_touched_;
  std::array<uint16_t, kMaxTouched> touched_;
};

/// Accumulated ("virgin") coverage across a whole campaign. Merging a
/// classified run map reports whether the run contributed any new edge or
/// new hit-count bucket.
class GlobalCoverage {
 public:
  GlobalCoverage() { Reset(); }

  void Reset() {
    virgin_.fill(0);
    covered_edges_ = 0;
  }

  /// Merges `run` (must already be classified); returns true if any new
  /// coverage bit appeared. Only the run's touched edges are visited.
  bool MergeDetectNew(const CoverageMap& run) {
    bool new_cov = false;
    const uint8_t* rd = run.data();
    run.ForEachTouched([&](size_t j) {
      uint8_t bits = rd[j];
      if (bits == 0) return;
      uint8_t& v = virgin_[j];
      if ((bits & ~v) != 0) {
        if (v == 0) ++covered_edges_;
        v |= bits;
        new_cov = true;
      }
    });
    return new_cov;
  }

  /// Number of distinct edges ever covered ("branches" in the paper's
  /// terminology).
  size_t CoveredEdges() const { return covered_edges_; }

  /// Unions another accumulated bitmap into this one — the fleet
  /// coordinator folds per-worker shard coverage into a campaign-wide map
  /// this way. The edge counter is recomputed from the merged bitmap.
  void MergeFrom(const GlobalCoverage& other) {
    covered_edges_ = 0;
    for (size_t i = 0; i < virgin_.size(); ++i) {
      virgin_[i] |= other.virgin_[i];
      covered_edges_ += (virgin_[i] != 0);
    }
  }

  /// Checkpointing: the full virgin bitmap round-trips; the edge counter is
  /// recomputed on load (it is derived state).
  Status SaveState(persist::StateWriter* w) const;
  Status LoadState(persist::StateReader* r);

 private:
  std::array<uint8_t, CoverageMap::kSize> virgin_;
  size_t covered_edges_;
};

/// Campaign-global coverage shared by parallel workers: a GlobalCoverage
/// whose merge is an atomic OR, so any number of harnesses can publish
/// classified run maps concurrently. Each byte's 0 -> nonzero transition is
/// observed by exactly one fetch_or caller, so the edge counter is exact
/// regardless of interleaving; at any synchronization point the bitmap holds
/// precisely the union of all maps merged so far.
class SharedCoverage {
 public:
  SharedCoverage() { Reset(); }

  /// Not thread-safe; call only while no worker is merging.
  void Reset() {
    for (auto& v : virgin_) v.store(0, std::memory_order_relaxed);
    covered_edges_.store(0, std::memory_order_relaxed);
  }

  /// Merges `run` (must already be classified); returns true if any bit was
  /// new to the shared map. Safe to call from many threads at once. Only the
  /// run's touched edges are visited, and atomics are only touched for bytes
  /// with coverage.
  bool MergeDetectNew(const CoverageMap& run) {
    bool new_cov = false;
    const uint8_t* rd = run.data();
    run.ForEachTouched([&](size_t j) {
      uint8_t bits = rd[j];
      if (bits == 0) return;
      uint8_t prev = virgin_[j].fetch_or(bits, std::memory_order_relaxed);
      if ((bits & ~prev) != 0) {
        if (prev == 0) {
          covered_edges_.fetch_add(1, std::memory_order_relaxed);
        }
        new_cov = true;
      }
    });
    return new_cov;
  }

  size_t CoveredEdges() const {
    return covered_edges_.load(std::memory_order_relaxed);
  }

  /// Checkpointing. Like Reset(), these are not thread-safe: call only at a
  /// synchronization point while no worker is merging (the parallel
  /// campaign's round barrier guarantees this).
  Status SaveState(persist::StateWriter* w) const;
  Status LoadState(persist::StateReader* r);

 private:
  std::array<std::atomic<uint8_t>, CoverageMap::kSize> virgin_;
  std::atomic<size_t> covered_edges_;
};

/// Process-wide sink the LEGO_COV() probes write into. The execution harness
/// points this at a fresh CoverageMap around each test-case execution.
class CoverageRuntime {
 public:
  static void SetActiveMap(CoverageMap* map) { active_ = map; }
  static CoverageMap* active_map() { return active_; }

  static void Hit(uint64_t id) {
    if (active_ != nullptr) active_->Hit(id);
  }

 private:
  static thread_local CoverageMap* active_;
};

/// RAII scope that routes probe hits into `map` for its lifetime.
class CoverageScope {
 public:
  explicit CoverageScope(CoverageMap* map)
      : saved_(CoverageRuntime::active_map()) {
    CoverageRuntime::SetActiveMap(map);
  }
  ~CoverageScope() { CoverageRuntime::SetActiveMap(saved_); }

  CoverageScope(const CoverageScope&) = delete;
  CoverageScope& operator=(const CoverageScope&) = delete;

 private:
  CoverageMap* saved_;
};

}  // namespace lego::cov

/// Instrumentation probe: drop one at each interesting control-flow point in
/// the target engine. The id is a compile-time hash of file:line, so probe
/// identity is stable across runs.
#define LEGO_COV()                                                       \
  do {                                                                   \
    constexpr uint64_t _lego_cov_id =                                    \
        ::lego::HashMix(::lego::Fnv1a64(__FILE__), __LINE__);            \
    ::lego::cov::CoverageRuntime::Hit(_lego_cov_id);                     \
  } while (0)

/// Probe variant keyed by a runtime value (e.g. statement type), so distinct
/// dispatch targets at one source line count as distinct branches.
#define LEGO_COV_KEYED(key)                                              \
  do {                                                                   \
    constexpr uint64_t _lego_cov_id =                                    \
        ::lego::HashMix(::lego::Fnv1a64(__FILE__), __LINE__);            \
    ::lego::cov::CoverageRuntime::Hit(                                   \
        ::lego::HashMix(_lego_cov_id, static_cast<uint64_t>(key)));      \
  } while (0)

#endif  // LEGO_COVERAGE_COVERAGE_H_
