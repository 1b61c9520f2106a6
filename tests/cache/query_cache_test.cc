// QueryCache unit tests: both tiers' round trips, LRU-by-bytes eviction at
// source grain, the epoch and budget refusal rules, memo-row growth,
// invalidation, key canonicalization, checkpoint probing math, and the
// cache.* counter discipline (instance stats + per-thread counters).
#include "cache/query_cache.h"

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/network_gen.h"
#include "gen/object_gen.h"
#include "graph/dijkstra.h"
#include "graph/nn_stream.h"
#include "obs/metrics.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "testing_support.h"

namespace msq {
namespace {

struct StreamFixture {
  StreamFixture(RoadNetwork n, std::vector<Location> objs)
      : network(std::move(n)),
        graph_buffer(&graph_disk, 512),
        index_buffer(&index_disk, 512),
        pager(&network, &graph_buffer),
        mapping(&network, &index_buffer, objs) {}

  RoadNetwork network;
  InMemoryDiskManager graph_disk, index_disk;
  BufferManager graph_buffer, index_buffer;
  GraphPager pager;
  SpatialMapping mapping;
};

// Bytes one source entry holding a single memo distance occupies — probed,
// because the accounting constants are private to the implementation.
std::size_t MemoEntryBytes() {
  QueryCache probe;
  probe.StoreDistance(Location{0, 0.0}, 0, 1.0);
  return probe.bytes();
}

TEST(QueryCacheTest, MemoRoundTripCountsHitsAndMisses) {
  QueryCache cache;
  const Location source{3, 0.25};

  EXPECT_FALSE(cache.FindDistance(source, 7).has_value());
  cache.StoreDistance(source, 7, 1.5);
  const auto found = cache.FindDistance(source, 7);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 1.5);
  // Distinct object id on the same source is a different memo line.
  EXPECT_FALSE(cache.FindDistance(source, 8).has_value());

  const QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.memo_misses, 2u);
  EXPECT_EQ(stats.memo_inserts, 1u);
  EXPECT_EQ(stats.wavefront_hits, 0u);
  EXPECT_EQ(stats.wavefront_misses, 0u);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(QueryCacheTest, LayoutEpochMismatchMissesAndDropsEntry) {
  QueryCache cache;
  const Location source{3, 0.25};
  cache.StoreDistance(source, 7, 1.5, /*layout_epoch=*/4);
  ASSERT_TRUE(cache.FindDistance(source, 7, 4).has_value());

  // A find under a different layout epoch is a miss and evicts the entry.
  const std::size_t bytes_before = cache.bytes();
  EXPECT_FALSE(cache.FindDistance(source, 7, 5).has_value());
  EXPECT_LT(cache.bytes(), bytes_before);
  // The entry is gone even for its original epoch.
  EXPECT_FALSE(cache.FindDistance(source, 7, 4).has_value());

  const QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.memo_misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(QueryCacheTest, WavefrontLayoutEpochMismatchMissesAndDrops) {
  StreamFixture f(testing::MakeGridNetwork(4),
                  {Location{0, 0.0}, Location{5, 0.0}});
  QueryCache cache;
  const Location source{0, 0.0};
  NetworkNnStream stream(&f.pager, &f.mapping, source);
  stream.Next();
  cache.StoreWavefront(source, stream.MakeSnapshot(), /*layout_epoch=*/9);
  EXPECT_NE(cache.FindWavefront(source, 9), nullptr);
  EXPECT_EQ(cache.FindWavefront(source, 10), nullptr);
  EXPECT_EQ(cache.FindWavefront(source, 9), nullptr);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(QueryCacheTest, NegativeZeroOffsetSharesEntry) {
  QueryCache cache;
  cache.StoreDistance(Location{2, 0.0}, 4, 2.0);
  const auto found = cache.FindDistance(Location{2, -0.0}, 4);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 2.0);
}

TEST(QueryCacheTest, WavefrontRoundTripResumesIdentically) {
  RoadNetwork network = GenerateNetwork({.node_count = 120,
                                         .edge_count = 170,
                                         .seed = 51});
  auto objects = GenerateObjects(network, 25, 13);
  StreamFixture f(std::move(network), objects);
  const Location source{1, 0.0};

  std::vector<std::pair<ObjectId, Dist>> cold;
  NetworkNnStream warmup(&f.pager, &f.mapping, source);
  for (int i = 0; i < 10; ++i) {
    const auto visit = warmup.Next();
    ASSERT_TRUE(visit.has_value());
    cold.push_back({visit->object, visit->distance});
  }

  QueryCache cache;
  cache.StoreWavefront(source, warmup.MakeSnapshot());
  EXPECT_EQ(cache.stats().wavefront_inserts, 1u);

  const QueryCache::WavefrontPtr snapshot = cache.FindWavefront(source);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(cache.stats().wavefront_hits, 1u);

  // The cached snapshot resumes a stream that replays the cold prefix
  // bitwise.
  NetworkNnStream resumed(&f.pager, &f.mapping, source, snapshot.get());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    const auto visit = resumed.Next();
    ASSERT_TRUE(visit.has_value());
    EXPECT_EQ(visit->object, cold[i].first) << "position " << i;
    EXPECT_EQ(visit->distance, cold[i].second) << "position " << i;
  }

  // A different source is a miss.
  EXPECT_EQ(cache.FindWavefront(Location{0, 0.0}), nullptr);
  EXPECT_EQ(cache.stats().wavefront_misses, 1u);
}

TEST(QueryCacheTest, HeldSnapshotSurvivesInvalidate) {
  RoadNetwork network = testing::MakeGridNetwork(4);
  std::vector<Location> objects = {{0, 0.0}, {5, 0.0}};
  StreamFixture f(std::move(network), objects);
  const Location source{0, 0.0};

  NetworkNnStream stream(&f.pager, &f.mapping, source);
  while (stream.Next()) {
  }
  QueryCache cache;
  cache.StoreWavefront(source, stream.MakeSnapshot());
  cache.StoreDistance(source, 0, 0.5);

  const QueryCache::WavefrontPtr held = cache.FindWavefront(source);
  ASSERT_NE(held, nullptr);
  const std::size_t held_objects = held->object_best.size();

  EXPECT_EQ(cache.epoch(), 0u);
  cache.Invalidate();
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.FindWavefront(source), nullptr);
  EXPECT_FALSE(cache.FindDistance(source, 0).has_value());

  // The reader's shared_ptr keeps the evicted snapshot alive and intact.
  EXPECT_EQ(held->object_best.size(), held_objects);
  EXPECT_EQ(held_objects, 2u);
}

TEST(QueryCacheTest, LruEvictionRespectsByteBudget) {
  const std::size_t entry = MemoEntryBytes();
  QueryCacheConfig config;
  config.shard_count = 1;
  config.max_bytes = entry * 3 + entry / 2;  // room for exactly 3 sources
  QueryCache cache(config);

  // One distance on each of ten sources: ten equal-sized entries.
  for (EdgeId edge = 0; edge < 10; ++edge) {
    cache.StoreDistance(Location{edge, 0.0}, 1, static_cast<Dist>(edge));
  }
  EXPECT_LE(cache.bytes(), config.max_bytes);
  EXPECT_EQ(cache.bytes(), 3 * entry);
  EXPECT_EQ(cache.stats().evictions, 7u);
  EXPECT_EQ(cache.stats().memo_inserts, 10u);

  // The three most recent sources survive; the oldest were the victims.
  EXPECT_TRUE(cache.FindDistance(Location{9, 0.0}, 1).has_value());
  EXPECT_TRUE(cache.FindDistance(Location{8, 0.0}, 1).has_value());
  EXPECT_TRUE(cache.FindDistance(Location{7, 0.0}, 1).has_value());
  EXPECT_FALSE(cache.FindDistance(Location{0, 0.0}, 1).has_value());
  EXPECT_FALSE(cache.FindDistance(Location{6, 0.0}, 1).has_value());
}

TEST(QueryCacheTest, FindRefreshesLruRecency) {
  const std::size_t entry = MemoEntryBytes();
  QueryCacheConfig config;
  config.shard_count = 1;
  config.max_bytes = entry * 3;
  QueryCache cache(config);

  const Location a{0, 0.0}, b{1, 0.0}, c{2, 0.0}, d{3, 0.0};
  cache.StoreDistance(a, 0, 0.0);
  cache.StoreDistance(b, 0, 1.0);
  cache.StoreDistance(c, 0, 2.0);
  // Touch the oldest source, then overflow: the untouched middle source is
  // now least-recently used and must be the victim.
  ASSERT_TRUE(cache.FindDistance(a, 0).has_value());
  cache.StoreDistance(d, 0, 3.0);

  EXPECT_TRUE(cache.FindDistance(a, 0).has_value());
  EXPECT_FALSE(cache.FindDistance(b, 0).has_value());
  EXPECT_TRUE(cache.FindDistance(c, 0).has_value());
  EXPECT_TRUE(cache.FindDistance(d, 0).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(QueryCacheTest, StaleEpochFindDropsSnapshotAndRowTogether) {
  StreamFixture f(testing::MakeGridNetwork(4),
                  {Location{0, 0.0}, Location{5, 0.0}});
  const Location source{0, 0.0};
  NetworkNnStream stream(&f.pager, &f.mapping, source);
  stream.Next();
  const NetworkNnStream::Snapshot snapshot = stream.MakeSnapshot();

  // Through either tier, a find under a newer epoch drops the whole source
  // entry: the other tier misses afterwards even under the old epoch.
  for (const bool via_memo : {true, false}) {
    SCOPED_TRACE(via_memo ? "memo find" : "wavefront find");
    QueryCache cache;
    cache.StoreWavefront(source, snapshot, /*layout_epoch=*/4);
    cache.StoreDistance(source, 1, 0.5, /*layout_epoch=*/4);
    ASSERT_GT(cache.bytes(), 0u);

    if (via_memo) {
      EXPECT_FALSE(cache.FindDistance(source, 1, 5).has_value());
    } else {
      EXPECT_EQ(cache.FindWavefront(source, 5), nullptr);
    }
    EXPECT_EQ(cache.bytes(), 0u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.FindWavefront(source, 4), nullptr);
    EXPECT_FALSE(cache.FindDistance(source, 1, 4).has_value());
    EXPECT_EQ(cache.stats().evictions, 1u);
  }
}

TEST(QueryCacheTest, ReplacingSnapshotKeepsMemoRow) {
  RoadNetwork network = GenerateNetwork({.node_count = 120,
                                         .edge_count = 170,
                                         .seed = 51});
  auto objects = GenerateObjects(network, 25, 13);
  StreamFixture f(std::move(network), objects);
  const Location source{1, 0.0};
  NetworkNnStream stream(&f.pager, &f.mapping, source);

  QueryCache cache;
  stream.Next();
  NetworkNnStream::Snapshot first = stream.MakeSnapshot();
  const std::size_t first_bytes = first.bytes();
  cache.StoreWavefront(source, std::move(first));
  for (ObjectId id = 0; id < 5; ++id) {
    cache.StoreDistance(source, id, static_cast<Dist>(id) + 0.5);
  }
  const std::size_t bytes_before = cache.bytes();

  while (stream.Next()) {
  }
  NetworkNnStream::Snapshot second = stream.MakeSnapshot();
  const std::size_t second_bytes = second.bytes();
  const std::size_t second_settled = second.search.settled_count;
  cache.StoreWavefront(source, std::move(second));

  // The entry swapped its snapshot and nothing else.
  EXPECT_EQ(cache.bytes(), bytes_before - first_bytes + second_bytes);
  const QueryCache::WavefrontPtr held = cache.FindWavefront(source);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->search.settled_count, second_settled);
  for (ObjectId id = 0; id < 5; ++id) {
    const auto found = cache.FindDistance(source, id);
    ASSERT_TRUE(found.has_value()) << "object " << id;
    EXPECT_EQ(*found, static_cast<Dist>(id) + 0.5);
  }
  EXPECT_EQ(cache.stats().wavefront_inserts, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(QueryCacheTest, GrownRowReturnsEveryByteOnInvalidate) {
  QueryCache cache;
  const Location source{4, 0.125};
  // A thousand objects take the row through several doublings; the bytes
  // change only when it doubles.
  std::vector<std::size_t> sizes;
  for (ObjectId id = 0; id < 1000; ++id) {
    cache.StoreDistance(source, id * 7919, static_cast<Dist>(id));
    if (sizes.empty() || sizes.back() != cache.bytes()) {
      ASSERT_TRUE(sizes.empty() || cache.bytes() > sizes.back());
      sizes.push_back(cache.bytes());
    }
  }
  EXPECT_GE(sizes.size(), 5u);
  EXPECT_LE(sizes.size(), 12u);
  for (ObjectId id = 0; id < 1000; ++id) {
    const auto found = cache.FindDistance(source, id * 7919);
    ASSERT_TRUE(found.has_value()) << "object " << id * 7919;
    EXPECT_EQ(*found, static_cast<Dist>(id));
  }
  EXPECT_FALSE(cache.FindDistance(source, 1).has_value());
  EXPECT_EQ(cache.stats().memo_inserts, 1000u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.Invalidate();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.FindDistance(source, 0).has_value());
}

TEST(QueryCacheTest, MemoStoreOverflowingShardBudgetIsRefused) {
  QueryCacheConfig config;
  config.shard_count = 1;
  config.max_bytes = MemoEntryBytes();  // one source, first row size only
  QueryCache cache(config);
  const Location source{2, 0.75};

  // Fill the row until it would have to double past the shard budget.
  ObjectId refused = kInvalidObject;
  std::size_t bytes_before = 0;
  for (ObjectId id = 0; id < 1000 && refused == kInvalidObject; ++id) {
    bytes_before = cache.bytes();
    cache.StoreDistance(source, id, static_cast<Dist>(id));
    if (cache.stats().evictions > 0) refused = id;
  }
  ASSERT_NE(refused, kInvalidObject);
  ASSERT_GT(refused, 0u);

  // The refusal is counted, charges nothing, and keeps the row intact.
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().memo_inserts, refused);
  EXPECT_EQ(cache.bytes(), bytes_before);
  EXPECT_LE(cache.bytes(), config.max_bytes);
  EXPECT_FALSE(cache.FindDistance(source, refused).has_value());
  for (ObjectId id = 0; id < refused; ++id) {
    EXPECT_TRUE(cache.FindDistance(source, id).has_value()) << "object " << id;
  }
  // Re-storing a resident object needs no growth and is accepted.
  cache.StoreDistance(source, 0, 0.0);
  EXPECT_EQ(cache.stats().memo_inserts, refused + 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(QueryCacheTest, ReplacingAnEntryDoesNotLeakBytes) {
  QueryCache cache;
  const Location source{1, 0.5};
  cache.StoreDistance(source, 2, 1.0);
  const std::size_t bytes_after_first = cache.bytes();
  cache.StoreDistance(source, 2, 1.0);
  EXPECT_EQ(cache.bytes(), bytes_after_first);
  EXPECT_EQ(cache.stats().memo_inserts, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(QueryCacheTest, OversizedWavefrontIsRejected) {
  RoadNetwork network = GenerateNetwork({.node_count = 200,
                                         .edge_count = 280,
                                         .seed = 53});
  auto objects = GenerateObjects(network, 40, 19);
  StreamFixture f(std::move(network), objects);
  const Location source{0, 0.0};
  NetworkNnStream stream(&f.pager, &f.mapping, source);
  while (stream.Next()) {
  }
  NetworkNnStream::Snapshot snapshot = stream.MakeSnapshot();

  QueryCacheConfig config;
  config.shard_count = 1;
  config.max_bytes = 256;  // far below any 200-node snapshot
  ASSERT_GT(snapshot.bytes(), config.max_bytes);
  QueryCache cache(config);
  cache.StoreWavefront(source, std::move(snapshot));

  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().wavefront_inserts, 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.FindWavefront(source), nullptr);
}

TEST(QueryCacheTest, ProbeCheckpointBoundsAndExactness) {
  // Line of 5 nodes (4 edges of length 0.25); source sits on node 0.
  RoadNetwork network = testing::MakeLineNetwork(5);
  const Dist len = network.EdgeAt(0).length;
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 512);
  GraphPager pager(&network, &buffer);
  const Location source{0, 0.0};

  DijkstraSearch search(&pager, source);
  search.NextSettled();  // node 0 at 0
  search.NextSettled();  // node 1 at len
  const DijkstraSearch::Checkpoint checkpoint = search.MakeCheckpoint();
  const Dist radius = CheckpointRadius(checkpoint);
  EXPECT_DOUBLE_EQ(radius, 2 * len);  // node 2 is the frontier minimum

  // Both endpoints settled: exact, and the same-edge direct path wins.
  const WavefrontProbe settled = ProbeCheckpoint(
      network, checkpoint, radius, source, Location{0, len * 0.5});
  EXPECT_TRUE(settled.exact);
  EXPECT_DOUBLE_EQ(settled.bound, len * 0.5);

  // One endpoint settled, and its route provably beats anything through
  // the unsettled frontier: still exact.
  const WavefrontProbe one_side = ProbeCheckpoint(
      network, checkpoint, radius, source, Location{1, len * 0.2});
  EXPECT_TRUE(one_side.exact);
  EXPECT_DOUBLE_EQ(one_side.bound, len * 1.2);

  // Both endpoints beyond the frontier: an admissible (non-exact) lower
  // bound derived from the radius.
  const Location far{3, len * 0.4};
  const WavefrontProbe beyond =
      ProbeCheckpoint(network, checkpoint, radius, source, far);
  EXPECT_FALSE(beyond.exact);
  EXPECT_DOUBLE_EQ(beyond.bound, 2 * len + len * 0.4);
  DijkstraSearch oracle(&pager, source);
  EXPECT_LE(beyond.bound, oracle.DistanceTo(far));
}

TEST(QueryCacheTest, ExhaustedCheckpointProbesExactlyEverywhere) {
  RoadNetwork network = GenerateNetwork({.node_count = 80,
                                         .edge_count = 120,
                                         .seed = 59});
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 512);
  GraphPager pager(&network, &buffer);
  const Location source{2, network.EdgeAt(2).length * 0.5};

  DijkstraSearch search(&pager, source);
  while (search.NextSettled()) {
  }
  const DijkstraSearch::Checkpoint checkpoint = search.MakeCheckpoint();
  const Dist radius = CheckpointRadius(checkpoint);
  EXPECT_EQ(radius, kInfDist);

  for (const EdgeId edge : {EdgeId{0}, EdgeId{17}, EdgeId{63}, EdgeId{119}}) {
    const Location target{edge, network.EdgeAt(edge).length * 0.25};
    const WavefrontProbe probe =
        ProbeCheckpoint(network, checkpoint, radius, source, target);
    EXPECT_TRUE(probe.exact) << "edge " << edge;
    EXPECT_EQ(probe.bound, search.DistanceTo(target)) << "edge " << edge;
  }
}

TEST(QueryCacheTest, FindsBumpThreadLocalCounters) {
  QueryCache cache;
  const obs::ThreadCounters before = obs::ThreadLocalCounters();

  cache.FindWavefront(Location{0, 0.0});                 // miss
  cache.StoreDistance(Location{0, 0.0}, 1, 1.0);
  cache.FindDistance(Location{0, 0.0}, 1);               // hit
  cache.FindDistance(Location{0, 0.0}, 2);               // miss

  const obs::ThreadCounters& after = obs::ThreadLocalCounters();
  EXPECT_EQ(after.cache_wavefront_hits - before.cache_wavefront_hits, 0u);
  EXPECT_EQ(after.cache_wavefront_misses - before.cache_wavefront_misses,
            1u);
  EXPECT_EQ(after.cache_memo_hits - before.cache_memo_hits, 1u);
  EXPECT_EQ(after.cache_memo_misses - before.cache_memo_misses, 1u);
}

}  // namespace
}  // namespace msq
