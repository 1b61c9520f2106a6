// The B+-tree read path (FindLeaf/ScanRange/Lookup) searches pinned pages
// in place. These tests hold it to a std::multimap oracle under churn, pin
// its fetch cost to one fetch per level, and feed it structurally corrupt
// pages, which must surface as kCorruption with no pin left behind.
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/spatial_mapping.h"
#include "index/bptree.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "testing_support.h"

namespace msq {
namespace {

using Key = BpTree::Key;
using Oracle = std::multimap<Key, std::uint32_t>;

BpTreeValue Serial(std::uint32_t serial) {
  return BpTreeValue::Pack(serial);
}

std::vector<std::uint32_t> SerialsOf(const BpTree& tree, Key key) {
  std::vector<BpTree::Item> items;
  EXPECT_TRUE(tree.ScanRange(key, key, &items).ok());
  std::vector<std::uint32_t> serials;
  for (const auto& item : items) {
    serials.push_back(item.second.Unpack<std::uint32_t>());
  }
  return serials;
}

// Every ScanRange over a random range and every Lookup must match the
// oracle exactly, duplicates and their order included.
void ExpectMatchesOracle(const BpTree& tree, const Oracle& oracle,
                         Key key_space, Rng* rng) {
  ASSERT_EQ(tree.size(), oracle.size());
  for (int probe = 0; probe < 40; ++probe) {
    Key lo = rng->NextBounded(key_space + 2);
    Key hi = rng->NextBounded(key_space + 2);
    if (lo > hi) std::swap(lo, hi);
    std::vector<BpTree::Item> items;
    ASSERT_TRUE(tree.ScanRange(lo, hi, &items).ok());
    auto it = oracle.lower_bound(lo);
    const auto end = oracle.upper_bound(hi);
    for (const auto& item : items) {
      ASSERT_NE(it, end) << "extra item in [" << lo << ", " << hi << "]";
      ASSERT_EQ(item.first, it->first);
      ASSERT_EQ(item.second.Unpack<std::uint32_t>(), it->second);
      ++it;
    }
    ASSERT_EQ(it, end) << "missing items in [" << lo << ", " << hi << "]";
  }
  for (Key key = 0; key <= key_space; ++key) {
    BpTreeValue value;
    const StatusOr<bool> found = tree.Lookup(key, &value);
    ASSERT_TRUE(found.ok());
    const auto first = oracle.find(key);
    ASSERT_EQ(*found, first != oracle.end()) << key;
    if (*found) {
      // The first copy in key order.
      ASSERT_EQ(value.Unpack<std::uint32_t>(),
                oracle.lower_bound(key)->second);
    }
  }
}

TEST(BpTreeReadTest, ChurnWithStraddlingDuplicatesMatchesMultimap) {
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 1024);
  BpTree tree(&buffer);
  Oracle oracle;
  Rng rng(2024);
  // A small key space, so copies of one key run past a leaf's capacity
  // and straddle splits; two hot keys get most of the inserts.
  const Key key_space = 96;
  const Key hot[] = {17, 64};
  std::uint32_t serial = 0;
  for (int round = 0; round < 8; ++round) {
    if (round % 3 == 2) {
      // Reload from a strictly increasing set, as BulkLoad requires.
      std::vector<BpTree::Item> items;
      oracle.clear();
      for (Key key = 0; key <= key_space; ++key) {
        if (rng.NextBounded(100) < 60) continue;
        items.emplace_back(key, Serial(serial));
        oracle.emplace(key, serial++);
      }
      tree.BulkLoad(items);
    }
    for (int op = 0; op < 1500; ++op) {
      const std::uint64_t coin = rng.NextBounded(100);
      const Key key = coin < 40 ? hot[coin % 2] : rng.NextBounded(key_space);
      if (rng.NextBounded(100) < 65) {
        tree.Insert(key, Serial(serial));
        oracle.emplace(key, serial++);
        continue;
      }
      // Delete removes an arbitrary copy; find out which one left.
      const std::vector<std::uint32_t> before = SerialsOf(tree, key);
      const StatusOr<bool> removed = tree.Delete(key);
      ASSERT_TRUE(removed.ok());
      ASSERT_EQ(*removed, !before.empty()) << key;
      if (!*removed) continue;
      const std::vector<std::uint32_t> after = SerialsOf(tree, key);
      ASSERT_EQ(after.size() + 1, before.size());
      const std::multiset<std::uint32_t> left(after.begin(), after.end());
      std::uint32_t gone = 0;
      std::size_t gone_count = 0;
      for (const std::uint32_t s : before) {
        if (left.count(s) == 0) {
          gone = s;
          ++gone_count;
        }
      }
      ASSERT_EQ(gone_count, 1u);
      auto [first, last] = oracle.equal_range(key);
      for (; first != last && first->second != gone; ++first) {
      }
      ASSERT_NE(first, last) << "removed serial " << gone << " unknown";
      oracle.erase(first);
    }
    ASSERT_GT(oracle.count(hot[0]), BpTree::LeafCapacity() / 2);
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatchesOracle(tree, oracle, key_space, &rng));
    EXPECT_EQ(buffer.pinned_pages(), 0u);
  }
  EXPECT_GE(tree.height(), 2u);
}

TEST(BpTreeReadTest, ProbeInsideOneLeafCostsOneFetchPerLevel) {
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 2048);
  BpTree tree(&buffer);
  const std::size_t cap = BpTree::LeafCapacity();
  // Enough leaves for a third level.
  const std::size_t n = cap * (BpTree::InternalCapacity() + 1) + cap * 4;
  std::vector<BpTree::Item> items;
  for (std::size_t i = 0; i < n; ++i) items.emplace_back(i * 2, Serial(i));
  tree.BulkLoad(items);
  ASSERT_EQ(tree.height(), 3u);

  // Keys 2 * (3 * cap + 5) .. + 10 sit inside the fourth leaf, away from
  // its separator and its last key.
  const Key lo = 2 * (3 * cap + 5);
  const Key hi = lo + 10;
  auto fetches = [&] {
    const BufferStats stats = buffer.stats();
    return stats.hits + stats.misses;
  };
  std::uint64_t before = fetches();
  std::vector<BpTree::Item> out;
  ASSERT_TRUE(tree.ScanRange(lo, hi, &out).ok());
  EXPECT_EQ(out.size(), 6u);
  EXPECT_EQ(fetches() - before, tree.height());
  EXPECT_EQ(buffer.pinned_pages(), 0u);

  before = fetches();
  BpTreeValue value;
  ASSERT_TRUE(tree.Lookup(lo + 2, &value).value());
  EXPECT_EQ(value.Unpack<std::uint32_t>(), 3 * cap + 6);
  EXPECT_EQ(fetches() - before, tree.height());
  EXPECT_EQ(buffer.pinned_pages(), 0u);
}

// --- corruption -----------------------------------------------------------

enum class Damage { kInternalCount, kLeafCount, kNextLeafToInternal };

// Overwrites structural fields of the tree pages in `buffer`'s disk space.
// The node layout is a 1-byte leaf flag, a 4-byte count at offset 1 and,
// for leaves, a 4-byte next_leaf link at offset 5.
void Corrupt(BufferManager* buffer, Damage damage) {
  std::vector<PageId> internal;
  std::vector<PageId> linked_leaves;  // leaves with a next_leaf link
  std::vector<PageId> leaves;
  for (PageId id = 0; id < buffer->disk()->PageCount(); ++id) {
    PageGuard guard = buffer->Fetch(id).value();
    std::uint8_t flag = 0;
    std::uint32_t next = 0;
    std::memcpy(&flag, guard->data.data(), 1);
    std::memcpy(&next, guard->data.data() + 5, 4);
    if (flag == 0) {
      internal.push_back(id);
    } else {
      leaves.push_back(id);
      if (next != kInvalidPage) linked_leaves.push_back(id);
    }
  }
  ASSERT_FALSE(internal.empty());
  ASSERT_FALSE(linked_leaves.empty());
  auto write_u32 = [&](PageId id, std::size_t offset, std::uint32_t v) {
    PageGuard guard = buffer->Fetch(id, /*mark_dirty=*/true).value();
    std::memcpy(guard->data.data() + offset, &v, 4);
  };
  switch (damage) {
    case Damage::kInternalCount:
      for (const PageId id : internal) {
        write_u32(id, 1,
                  static_cast<std::uint32_t>(BpTree::InternalCapacity() + 1));
      }
      break;
    case Damage::kLeafCount:
      for (const PageId id : leaves) {
        write_u32(id, 1,
                  static_cast<std::uint32_t>(BpTree::LeafCapacity() + 1));
      }
      break;
    case Damage::kNextLeafToInternal:
      for (const PageId id : linked_leaves) write_u32(id, 5, internal[0]);
      break;
  }
}

class BpTreeCorruptionTest : public ::testing::TestWithParam<Damage> {};

TEST_P(BpTreeCorruptionTest, ScanAndLookupReportCorruptionAndUnpin) {
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 256);
  BpTree tree(&buffer);
  const std::size_t cap = BpTree::LeafCapacity();
  std::vector<BpTree::Item> items;
  for (std::size_t i = 0; i < cap * 4; ++i) {
    items.emplace_back(i * 2, Serial(i));
  }
  tree.BulkLoad(items);
  ASSERT_EQ(tree.height(), 2u);
  ASSERT_NO_FATAL_FAILURE(Corrupt(&buffer, GetParam()));
  ASSERT_EQ(buffer.pinned_pages(), 0u);

  std::vector<BpTree::Item> out;
  EXPECT_EQ(tree.ScanRange(0, ~0ull, &out).code(), StatusCode::kCorruption);
  EXPECT_EQ(buffer.pinned_pages(), 0u);
  // 2 * cap - 1 is absent and lies between the first two leaves, so the
  // lookup lands on the first leaf and must follow its next_leaf link.
  BpTreeValue value;
  EXPECT_EQ(tree.Lookup(2 * cap - 1, &value).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(buffer.pinned_pages(), 0u);
}

TEST_P(BpTreeCorruptionTest, ObjectsOnEdgeReportsCorruptionAndUnpins) {
  const RoadNetwork network = testing::MakeGridNetwork(4);
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 256);
  // Every object on edge 0, so one probe spans several leaves.
  const Dist len = network.EdgeAt(0).length;
  std::vector<Location> objects;
  const std::size_t count = BpTree::LeafCapacity() * 3;
  for (std::size_t i = 0; i < count; ++i) {
    objects.push_back({0, len * static_cast<double>(i) /
                              static_cast<double>(count)});
  }
  SpatialMapping mapping(&network, &buffer, objects);
  ASSERT_NO_FATAL_FAILURE(Corrupt(&buffer, GetParam()));

  std::vector<EdgeObject> out = {EdgeObject{}};
  EXPECT_EQ(mapping.ObjectsOnEdge(0, &out).code(), StatusCode::kCorruption);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(buffer.pinned_pages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Damages, BpTreeCorruptionTest,
                         ::testing::Values(Damage::kInternalCount,
                                           Damage::kLeafCount,
                                           Damage::kNextLeafToInternal));

}  // namespace
}  // namespace msq
