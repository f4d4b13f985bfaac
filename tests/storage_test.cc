#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "minidb/btree.h"
#include "minidb/heap_table.h"
#include "util/random.h"

namespace lego::minidb {
namespace {

TEST(HeapTableTest, InsertGetDelete) {
  HeapTable heap;
  RowId id = heap.Insert({Value::Int(1), Value::Text("a")});
  ASSERT_NE(heap.Get(id), nullptr);
  EXPECT_EQ((*heap.Get(id))[0].AsInt(), 1);
  EXPECT_EQ(heap.LiveRowCount(), 1u);
  EXPECT_TRUE(heap.Delete(id));
  EXPECT_EQ(heap.Get(id), nullptr);
  EXPECT_FALSE(heap.Delete(id));  // double delete
  EXPECT_EQ(heap.LiveRowCount(), 0u);
}

TEST(HeapTableTest, PagesFillAtCapacity) {
  HeapTable heap;
  for (uint32_t i = 0; i < HeapTable::kRowsPerPage + 1; ++i) {
    heap.Insert({Value::Int(i)});
  }
  EXPECT_EQ(heap.PageCount(), 2u);
  EXPECT_EQ(heap.LiveRowCount(), HeapTable::kRowsPerPage + 1);
}

TEST(HeapTableTest, UpdateInPlace) {
  HeapTable heap;
  RowId id = heap.Insert({Value::Int(1)});
  EXPECT_TRUE(heap.Update(id, {Value::Int(2)}));
  EXPECT_EQ((*heap.Get(id))[0].AsInt(), 2);
  heap.Delete(id);
  EXPECT_FALSE(heap.Update(id, {Value::Int(3)}));
}

TEST(HeapTableTest, ScanVisitsLiveRowsInOrder) {
  HeapTable heap;
  for (int i = 0; i < 10; ++i) heap.Insert({Value::Int(i)});
  heap.Delete(RowId{0, 3});
  std::vector<int64_t> seen;
  heap.Scan([&](RowId, const Row& row) {
    seen.push_back(row[0].AsInt());
    return true;
  });
  EXPECT_EQ(seen.size(), 9u);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 3), 0);
}

TEST(HeapTableTest, ScanEarlyStop) {
  HeapTable heap;
  for (int i = 0; i < 10; ++i) heap.Insert({Value::Int(i)});
  int visited = 0;
  heap.Scan([&](RowId, const Row&) { return ++visited < 3; });
  EXPECT_EQ(visited, 3);
}

TEST(HeapTableTest, VacuumCompactsAndDropsTombstones) {
  HeapTable heap;
  for (uint32_t i = 0; i < 200; ++i) heap.Insert({Value::Int(i)});
  for (uint32_t i = 0; i < 200; i += 2) {
    heap.Delete(RowId{i / HeapTable::kRowsPerPage,
                      i % HeapTable::kRowsPerPage});
  }
  EXPECT_GT(heap.DeadFraction(), 0.0);
  size_t live_before = heap.LiveRowCount();
  heap.Vacuum();
  EXPECT_EQ(heap.LiveRowCount(), live_before);
  EXPECT_EQ(heap.DeadFraction(), 0.0);
  // All survivors are odd.
  heap.Scan([&](RowId, const Row& row) {
    EXPECT_EQ(row[0].AsInt() % 2, 1);
    return true;
  });
}

TEST(BTreeTest, InsertFindErase) {
  BTreeIndex tree;
  tree.Insert(Value::Int(1), RowId{0, 0});
  tree.Insert(Value::Int(1), RowId{0, 1});  // duplicate key
  tree.Insert(Value::Int(2), RowId{0, 2});
  EXPECT_EQ(tree.Find(Value::Int(1)).size(), 2u);
  EXPECT_EQ(tree.Find(Value::Int(3)).size(), 0u);
  EXPECT_EQ(tree.EntryCount(), 3u);
  EXPECT_EQ(tree.KeyCount(), 2u);
  EXPECT_TRUE(tree.Erase(Value::Int(1), RowId{0, 0}));
  EXPECT_EQ(tree.Find(Value::Int(1)).size(), 1u);
  EXPECT_FALSE(tree.Erase(Value::Int(1), RowId{0, 0}));  // already gone
  EXPECT_FALSE(tree.Erase(Value::Int(9), RowId{0, 0}));  // absent key
}

TEST(BTreeTest, SplitsGrowHeight) {
  BTreeIndex tree;
  for (int i = 0; i < 2000; ++i) {
    tree.Insert(Value::Int(i), RowId{0, static_cast<uint32_t>(i)});
  }
  EXPECT_GT(tree.Height(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(tree.Find(Value::Int(i)).size(), 1u) << i;
  }
}

TEST(BTreeTest, RangeQueries) {
  BTreeIndex tree;
  for (int i = 0; i < 100; ++i) {
    tree.Insert(Value::Int(i), RowId{0, static_cast<uint32_t>(i)});
  }
  Value lo = Value::Int(10);
  Value hi = Value::Int(20);
  EXPECT_EQ(tree.Range(&lo, true, &hi, true).size(), 11u);
  EXPECT_EQ(tree.Range(&lo, false, &hi, false).size(), 9u);
  EXPECT_EQ(tree.Range(nullptr, true, &hi, true).size(), 21u);
  EXPECT_EQ(tree.Range(&lo, true, nullptr, true).size(), 90u);
  EXPECT_EQ(tree.Range(nullptr, true, nullptr, true).size(), 100u);
}

TEST(BTreeTest, RangeReturnsKeysInOrder) {
  BTreeIndex tree;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    tree.Insert(Value::Int(static_cast<int64_t>(rng.NextBelow(10000))),
                RowId{0, static_cast<uint32_t>(i)});
  }
  auto rids = tree.Range(nullptr, true, nullptr, true);
  EXPECT_EQ(rids.size(), 500u);
}

TEST(BTreeTest, MixedTypeKeysFollowTotalOrder) {
  BTreeIndex tree;
  tree.Insert(Value::Null(), RowId{0, 0});
  tree.Insert(Value::Bool(true), RowId{0, 1});
  tree.Insert(Value::Int(5), RowId{0, 2});
  tree.Insert(Value::Text("x"), RowId{0, 3});
  EXPECT_TRUE(tree.CheckInvariants());
  Value lo = Value::Int(0);
  // Everything >= Int(0): the int and the text (text sorts above numeric).
  EXPECT_EQ(tree.Range(&lo, true, nullptr, true).size(), 2u);
}

TEST(BTreeTest, CopyIsIndependent) {
  BTreeIndex tree;
  for (int i = 0; i < 300; ++i) {
    tree.Insert(Value::Int(i), RowId{0, static_cast<uint32_t>(i)});
  }
  BTreeIndex copy = tree;
  EXPECT_TRUE(copy.CheckInvariants());
  EXPECT_EQ(copy.EntryCount(), tree.EntryCount());
  copy.Erase(Value::Int(5), RowId{0, 5});
  EXPECT_EQ(tree.Find(Value::Int(5)).size(), 1u);
  EXPECT_EQ(copy.Find(Value::Int(5)).size(), 0u);
  // Leaf chain of the copy must be intact for range scans.
  EXPECT_EQ(copy.Range(nullptr, true, nullptr, true).size(), 299u);
}

// Property sweep: a random operation sequence must agree with a reference
// std::multimap at every checkpoint, across several seeds.
class BTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreePropertyTest, AgreesWithReferenceModel) {
  Rng rng(GetParam());
  BTreeIndex tree;
  std::multimap<int64_t, uint32_t> model;

  for (int step = 0; step < 3000; ++step) {
    int64_t key = static_cast<int64_t>(rng.NextBelow(200));
    if (rng.NextBool(0.6)) {
      uint32_t rid = static_cast<uint32_t>(step);
      tree.Insert(Value::Int(key), RowId{0, rid});
      model.emplace(key, rid);
    } else {
      auto it = model.find(key);
      if (it != model.end()) {
        EXPECT_TRUE(tree.Erase(Value::Int(key), RowId{0, it->second}));
        model.erase(it);
      } else {
        EXPECT_TRUE(tree.Find(Value::Int(key)).empty());
      }
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(tree.CheckInvariants()) << "step " << step;
      ASSERT_EQ(tree.EntryCount(), model.size());
    }
  }
  ASSERT_TRUE(tree.CheckInvariants());
  // Final: every key's posting size matches the model.
  for (int64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(tree.Find(Value::Int(key)).size(), model.count(key)) << key;
  }
  // Range over the whole tree matches the model size.
  EXPECT_EQ(tree.Range(nullptr, true, nullptr, true).size(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 99u));

// Property sweep for the heap: random insert/delete/update vs a model map.
class HeapPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeapPropertyTest, AgreesWithReferenceModel) {
  Rng rng(GetParam());
  HeapTable heap;
  std::map<std::pair<uint32_t, uint32_t>, int64_t> model;

  for (int step = 0; step < 2000; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.5 || model.empty()) {
      RowId id = heap.Insert({Value::Int(step)});
      model[{id.page, id.slot}] = step;
    } else if (dice < 0.8) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(model.size())));
      EXPECT_TRUE(heap.Delete(RowId{it->first.first, it->first.second}));
      model.erase(it);
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(model.size())));
      EXPECT_TRUE(
          heap.Update(RowId{it->first.first, it->first.second},
                      {Value::Int(-step)}));
      it->second = -step;
    }
  }
  EXPECT_EQ(heap.LiveRowCount(), model.size());
  size_t scanned = 0;
  heap.Scan([&](RowId id, const Row& row) {
    auto it = model.find({id.page, id.slot});
    EXPECT_NE(it, model.end());
    if (it != model.end()) {
      EXPECT_EQ(row[0].AsInt(), it->second);
    }
    ++scanned;
    return true;
  });
  EXPECT_EQ(scanned, model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapPropertyTest,
                         ::testing::Values(7u, 8u, 9u));

}  // namespace
}  // namespace lego::minidb
