#include "coverage/coverage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

namespace lego::cov {
namespace {

TEST(CoverageMapTest, RecordsEdges) {
  CoverageMap map;
  EXPECT_EQ(map.CountNonZero(), 0u);
  map.Hit(0x1234);
  EXPECT_EQ(map.CountNonZero(), 1u);
  map.Hit(0x5678);  // edge (0x1234>>1) ^ 0x5678
  EXPECT_EQ(map.CountNonZero(), 2u);
}

TEST(CoverageMapTest, EdgeIdentityDependsOnPredecessor) {
  CoverageMap a;
  a.Hit(1);
  a.Hit(2);
  CoverageMap b;
  b.Hit(3);
  b.Hit(2);
  a.ClassifyCounts();
  b.ClassifyCounts();
  // Same probe (2) reached from different predecessors yields different
  // edges, so the union covers more than either alone.
  GlobalCoverage global;
  global.MergeDetectNew(a);
  EXPECT_TRUE(global.MergeDetectNew(b));
}

TEST(CoverageMapTest, ResetClears) {
  CoverageMap map;
  map.Hit(1);
  map.Hit(2);
  map.Reset();
  EXPECT_EQ(map.CountNonZero(), 0u);
}

TEST(CoverageMapTest, BucketBoundaries) {
  EXPECT_EQ(CoverageMap::Bucket(0), 0);
  EXPECT_EQ(CoverageMap::Bucket(1), 1);
  EXPECT_EQ(CoverageMap::Bucket(2), 2);
  EXPECT_EQ(CoverageMap::Bucket(3), 4);
  EXPECT_EQ(CoverageMap::Bucket(4), 8);
  EXPECT_EQ(CoverageMap::Bucket(7), 8);
  EXPECT_EQ(CoverageMap::Bucket(8), 16);
  EXPECT_EQ(CoverageMap::Bucket(15), 16);
  EXPECT_EQ(CoverageMap::Bucket(16), 32);
  EXPECT_EQ(CoverageMap::Bucket(31), 32);
  EXPECT_EQ(CoverageMap::Bucket(32), 64);
  EXPECT_EQ(CoverageMap::Bucket(127), 64);
  EXPECT_EQ(CoverageMap::Bucket(128), 128);
  EXPECT_EQ(CoverageMap::Bucket(255), 128);
}

TEST(CoverageMapTest, CounterSaturatesWithoutWrapping) {
  CoverageMap map;
  for (int i = 0; i < 1000; ++i) {
    map.Hit(7);
    map.Hit(7);  // same edge after the first alternation settles
  }
  EXPECT_GT(map.CountNonZero(), 0u);
  map.ClassifyCounts();
  EXPECT_GT(map.CountNonZero(), 0u);  // classification keeps nonzero
}

TEST(GlobalCoverageTest, DetectsNewEdgesThenPlateaus) {
  GlobalCoverage global;
  CoverageMap run;
  run.Hit(1);
  run.Hit(2);
  run.ClassifyCounts();
  EXPECT_TRUE(global.MergeDetectNew(run));
  size_t edges = global.CoveredEdges();
  EXPECT_GT(edges, 0u);
  EXPECT_FALSE(global.MergeDetectNew(run));
  EXPECT_EQ(global.CoveredEdges(), edges);
}

TEST(GlobalCoverageTest, NewHitCountBucketIsNewCoverage) {
  GlobalCoverage global;
  // Repeated hits of probe 1 from prev=0 land on one edge (1 >> 1 == 0, so
  // the chain state re-enters the same edge each time).
  CoverageMap once;
  once.Hit(1);
  once.ClassifyCounts();
  EXPECT_TRUE(global.MergeDetectNew(once));

  // Same single edge hit five times -> a different hit-count bucket -> new
  // coverage, while the distinct-edge count stays the same (AFL semantics).
  size_t edges = global.CoveredEdges();
  CoverageMap many;
  for (int i = 0; i < 5; ++i) many.Hit(1);
  many.ClassifyCounts();
  EXPECT_TRUE(global.MergeDetectNew(many));
  EXPECT_EQ(global.CoveredEdges(), edges);
}

TEST(CoverageRuntimeTest, ScopeRoutesProbes) {
  CoverageMap map;
  {
    CoverageScope scope(&map);
    LEGO_COV();
    LEGO_COV();
    LEGO_COV_KEYED(3);
  }
  EXPECT_GT(map.CountNonZero(), 0u);
  size_t before = map.CountNonZero();
  LEGO_COV();  // outside any scope: ignored
  EXPECT_EQ(map.CountNonZero(), before);
}

TEST(CoverageRuntimeTest, ScopesNest) {
  CoverageMap outer;
  CoverageMap inner;
  CoverageScope outer_scope(&outer);
  LEGO_COV();
  {
    CoverageScope inner_scope(&inner);
    LEGO_COV();
  }
  LEGO_COV();
  EXPECT_GT(outer.CountNonZero(), 0u);
  EXPECT_GT(inner.CountNonZero(), 0u);
}

TEST(CoverageRuntimeTest, KeyedProbesDistinguishValues) {
  CoverageMap a;
  {
    CoverageScope scope(&a);
    LEGO_COV_KEYED(1);
  }
  CoverageMap b;
  {
    CoverageScope scope(&b);
    LEGO_COV_KEYED(2);
  }
  a.ClassifyCounts();
  b.ClassifyCounts();
  GlobalCoverage global;
  global.MergeDetectNew(a);
  EXPECT_TRUE(global.MergeDetectNew(b));
}

// --- touched-list path against a full-map reference ------------------------

/// The full-map implementation the touched list must reproduce: every step
/// scans all kSize bytes, and buckets come from the original branchy rule.
struct ReferenceMap {
  std::array<uint8_t, CoverageMap::kSize> bytes{};
  uint64_t prev = 0;

  void Reset() {
    bytes.fill(0);
    prev = 0;
  }
  void Hit(uint64_t loc) {
    uint8_t& c = bytes[(prev ^ loc) & (CoverageMap::kSize - 1)];
    if (c != 0xff) ++c;
    prev = loc >> 1;
  }
  static uint8_t Bucket(uint8_t count) {
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
  void Classify() {
    for (uint8_t& c : bytes) c = Bucket(c);
  }
};

struct ReferenceGlobal {
  std::array<uint8_t, CoverageMap::kSize> virgin{};
  size_t edges = 0;

  bool Merge(const ReferenceMap& run) {
    bool new_cov = false;
    for (size_t i = 0; i < CoverageMap::kSize; ++i) {
      const uint8_t bits = run.bytes[i];
      if ((bits & ~virgin[i]) == 0) continue;
      if (virgin[i] == 0) ++edges;
      virgin[i] |= bits;
      new_cov = true;
    }
    return new_cov;
  }
};

bool SameBytes(const CoverageMap& map, const ReferenceMap& ref) {
  return std::memcmp(map.data(), ref.bytes.data(), CoverageMap::kSize) == 0;
}

/// Drives a CoverageMap and a ReferenceMap with the same seeded hit stream.
/// A run hits `distinct` distinct edges (each picked by choosing the probe
/// that lands on it from the current chain state), then re-hits already
/// hit edges so counts cover every bucket, saturation (>= 256) included.
class HitStream {
 public:
  explicit HitStream(uint64_t seed) : rng_(seed), order_(CoverageMap::kSize) {
    std::iota(order_.begin(), order_.end(), 0);
  }

  void Run(size_t distinct, CoverageMap* map, ReferenceMap* ref) {
    std::shuffle(order_.begin(), order_.end(), rng_);
    uint64_t prev = 0;
    auto hit_edge = [&](size_t edge) {
      // High bits vary the chain state without changing the edge.
      const uint64_t loc = ((rng_() & 0xffff) << 16) |
                           ((prev ^ edge) & (CoverageMap::kSize - 1));
      map->Hit(loc);
      ref->Hit(loc);
      prev = loc >> 1;
    };
    for (size_t i = 0; i < distinct; ++i) hit_edge(order_[i]);
    if (distinct == 0) return;
    std::uniform_int_distribution<size_t> pick(0, distinct - 1);
    const size_t repeats = 3 * pick(rng_);
    for (size_t i = 0; i < repeats; ++i) hit_edge(order_[pick(rng_)]);
    // One edge hit far past saturation.
    for (int i = 0; i < 300; ++i) hit_edge(order_[0]);
  }

  size_t PickDistinct() {
    static constexpr size_t kChoices[] = {
        0, 1, 7, 300, 2000, CoverageMap::kMaxTouched - 1,
        CoverageMap::kMaxTouched, CoverageMap::kMaxTouched + 1, 9000};
    return kChoices[std::uniform_int_distribution<size_t>(
        0, std::size(kChoices) - 1)(rng_)];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<size_t> order_;
};

TEST(TouchedListTest, ReusedMapMatchesFullMapReference) {
  HitStream stream(1234);
  CoverageMap map;  // one map reused across every run, as a backend does
  CoverageMap copy;
  GlobalCoverage global;
  SharedCoverage shared;
  ReferenceMap ref;
  ReferenceGlobal ref_global;
  for (int run = 0; run < 120; ++run) {
    const size_t distinct = stream.PickDistinct();
    SCOPED_TRACE("run " + std::to_string(run) + ", " +
                 std::to_string(distinct) + " distinct edges");
    map.Reset();
    ref.Reset();
    ASSERT_EQ(map.CountNonZero(), 0u);
    stream.Run(distinct, &map, &ref);
    // The list holds exactly the distinct edges until it overflows.
    EXPECT_EQ(map.has_touched_list(), distinct <= CoverageMap::kMaxTouched);
    EXPECT_EQ(map.touched_edges().size(),
              map.has_touched_list() ? distinct : 0u);
    ASSERT_TRUE(SameBytes(map, ref));

    copy.CopyFrom(map);  // the forked parent's copy out of shared memory
    ASSERT_TRUE(SameBytes(copy, ref));
    EXPECT_EQ(copy.has_touched_list(), map.has_touched_list());

    map.ClassifyCounts();
    copy.ClassifyCounts();
    ref.Classify();
    ASSERT_TRUE(SameBytes(map, ref));
    ASSERT_TRUE(SameBytes(copy, ref));

    const bool expected = ref_global.Merge(ref);
    EXPECT_EQ(global.MergeDetectNew(map), expected);
    EXPECT_EQ(shared.MergeDetectNew(copy), expected);
    EXPECT_EQ(global.CoveredEdges(), ref_global.edges);
    EXPECT_EQ(shared.CoveredEdges(), ref_global.edges);
  }
}

TEST(TouchedListTest, ListHoldsExactlyCapacityThenOverflows) {
  for (size_t distinct : {CoverageMap::kMaxTouched,
                          CoverageMap::kMaxTouched + 1}) {
    HitStream stream(distinct);
    CoverageMap map;
    ReferenceMap ref;
    stream.Run(distinct, &map, &ref);
    EXPECT_EQ(map.has_touched_list(), distinct == CoverageMap::kMaxTouched);
    map.ClassifyCounts();
    ref.Classify();
    EXPECT_TRUE(SameBytes(map, ref));
    GlobalCoverage global;
    EXPECT_TRUE(global.MergeDetectNew(map));
    EXPECT_EQ(global.CoveredEdges(), distinct);
    // After an overflowed run, Reset clears the whole map and the list
    // works again.
    map.Reset();
    EXPECT_EQ(map.CountNonZero(), 0u);
    EXPECT_TRUE(map.has_touched_list());
    map.Hit(5);
    EXPECT_EQ(map.touched_edges().size(), 1u);
  }
}

TEST(TouchedListTest, DroppedListRecoversUnlistedCounters) {
  // A forked child killed inside Hit() can leave a counter bumped whose
  // edge never reached the list. Dropping the list must make classify,
  // merge, copy and reset see it anyway.
  CoverageMap map;
  map.Hit(1);
  map.Hit(2);
  const size_t unlisted = 40000;
  const_cast<uint8_t*>(map.data())[unlisted] = 3;  // the dead writer's bump
  map.DropTouchedList();
  EXPECT_FALSE(map.has_touched_list());
  EXPECT_TRUE(map.touched_edges().empty());

  CoverageMap copy;
  copy.Hit(9);  // stale bytes the copy must overwrite
  copy.CopyFrom(map);
  EXPECT_EQ(std::memcmp(copy.data(), map.data(), CoverageMap::kSize), 0);

  copy.ClassifyCounts();
  EXPECT_EQ(copy.data()[unlisted], CoverageMap::Bucket(3));
  GlobalCoverage global;
  EXPECT_TRUE(global.MergeDetectNew(copy));
  EXPECT_EQ(global.CoveredEdges(), 3u);

  map.Reset();
  EXPECT_EQ(map.CountNonZero(), 0u);
  EXPECT_TRUE(map.has_touched_list());
}

TEST(TouchedListTest, SharedCoverageConcurrentMergesMatchReference) {
  constexpr int kThreads = 4;
  constexpr int kMapsPerThread = 6;
  HitStream stream(99);
  std::vector<CoverageMap> maps(kThreads * kMapsPerThread);
  ReferenceGlobal ref_global;
  for (CoverageMap& map : maps) {
    ReferenceMap ref;
    stream.Run(stream.PickDistinct(), &map, &ref);
    map.ClassifyCounts();
    ref.Classify();
    ASSERT_TRUE(SameBytes(map, ref));
    ref_global.Merge(ref);
  }

  SharedCoverage shared;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &maps, t] {
      for (int m = 0; m < kMapsPerThread; ++m) {
        shared.MergeDetectNew(
            maps[static_cast<size_t>(t * kMapsPerThread + m)]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(shared.CoveredEdges(), ref_global.edges);
  // The union is complete: no map has anything left to add.
  for (const CoverageMap& map : maps) EXPECT_FALSE(shared.MergeDetectNew(map));
}

}  // namespace
}  // namespace lego::cov
