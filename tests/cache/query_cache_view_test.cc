// QueryCache::View, the query-scoped handle the algorithms use: its counts
// match the per-call path over a scripted query, a query sees its own
// stores, and the write-back keeps the insert/grow/refuse/epoch rules —
// after a mid-query eviction, under a refused row growth, during a fault
// unwind, and with two workers writing back overlapping sources at once.
#include "cache/query_cache.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace msq {
namespace {

// Bytes one source entry holding a single memo distance occupies.
std::size_t MemoEntryBytes() {
  QueryCache probe;
  probe.StoreDistance(Location{0, 0.0}, 0, 1.0);
  return probe.bytes();
}

// The exact distance the scripted queries store for (source edge, object):
// any fixed function will do, the cache only keeps what it is given.
Dist DistanceFor(const Location& source, ObjectId object) {
  return static_cast<Dist>(source.edge) * 1000.0 + object + 0.25;
}

struct Step {
  enum Kind { kWavefront, kFind, kStore } kind;
  std::size_t source;
  ObjectId object;
};

// One query over `sources`: per-call or through a view. Returns whether
// each find hit, in step order.
std::vector<bool> RunQuery(QueryCache* cache,
                           const std::vector<Location>& sources,
                           const std::vector<Step>& steps, bool use_view) {
  std::vector<bool> hits;
  if (!use_view) {
    for (const Step& step : steps) {
      const Location& source = sources[step.source];
      switch (step.kind) {
        case Step::kWavefront:
          hits.push_back(cache->FindWavefront(source) != nullptr);
          break;
        case Step::kFind:
          hits.push_back(cache->FindDistance(source, step.object).has_value());
          break;
        case Step::kStore:
          cache->StoreDistance(source, step.object,
                               DistanceFor(source, step.object));
          break;
      }
    }
    return hits;
  }
  QueryCache::View view(cache, sources, 0);
  for (const Step& step : steps) {
    const Location& source = sources[step.source];
    switch (step.kind) {
      case Step::kWavefront:
        hits.push_back(view.Wavefront(step.source) != nullptr);
        break;
      case Step::kFind:
        hits.push_back(view.FindDistance(step.source, step.object).has_value());
        break;
      case Step::kStore:
        view.StoreDistance(step.source, step.object,
                           DistanceFor(source, step.object));
        break;
    }
  }
  return hits;
}

// Every resident entry's memo row, sorted, keyed by source edge.
std::vector<std::pair<EdgeId, std::vector<std::pair<ObjectId, Dist>>>> Rows(
    const QueryCache& cache) {
  std::vector<std::pair<EdgeId, std::vector<std::pair<ObjectId, Dist>>>> rows;
  for (QueryCache::EntryView& view : cache.Entries()) {
    std::sort(view.memo.begin(), view.memo.end());
    rows.emplace_back(view.source.edge, std::move(view.memo));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(QueryCacheViewTest, CountsMatchThePerCallPathOverAScriptedQuery) {
  // Sources 0 and 2 share a location; source 3 has a snapshot.
  const std::vector<Location> sources = {
      {1, 0.5}, {2, 0.0}, {1, 0.5}, {3, 0.0}};
  const std::vector<Step> warm = {{Step::kStore, 0, 4}, {Step::kStore, 0, 5},
                                  {Step::kStore, 1, 4}, {Step::kStore, 3, 9}};
  std::vector<Step> query = {
      {Step::kWavefront, 0, 0}, {Step::kWavefront, 1, 0},
      {Step::kWavefront, 2, 0}, {Step::kWavefront, 3, 0},
      {Step::kFind, 0, 4},      {Step::kFind, 0, 6},
      {Step::kStore, 0, 6},     {Step::kFind, 2, 6},  // via the twin source
      {Step::kFind, 1, 5},      {Step::kStore, 1, 5},
      {Step::kStore, 1, 5},  // a re-store counts as an insert
      {Step::kFind, 1, 5},      {Step::kFind, 3, 9},
      {Step::kStore, 3, 10},    {Step::kFind, 3, 10},
  };
  for (ObjectId id = 20; id < 40; ++id) {  // grows source 1's row twice
    query.push_back({Step::kStore, 1, id});
    query.push_back({Step::kFind, 1, id});
  }

  QueryCache per_call;
  QueryCache viewed;
  for (QueryCache* cache : {&per_call, &viewed}) {
    RunQuery(cache, sources, warm, /*use_view=*/false);
    cache->StoreWavefront(sources[3], NetworkNnStream::Snapshot{});
  }

  const obs::Counters before = obs::ThreadLocalCounters();
  const std::vector<bool> per_call_hits =
      RunQuery(&per_call, sources, query, /*use_view=*/false);
  const obs::Counters middle = obs::ThreadLocalCounters();
  const std::vector<bool> view_hits =
      RunQuery(&viewed, sources, query, /*use_view=*/true);
  const obs::Counters after = obs::ThreadLocalCounters();

  EXPECT_EQ(view_hits, per_call_hits);
  EXPECT_EQ(after - middle, middle - before);
  const QueryCache::Stats a = per_call.stats();
  const QueryCache::Stats b = viewed.stats();
  EXPECT_EQ(b.memo_hits, a.memo_hits);
  EXPECT_EQ(b.memo_misses, a.memo_misses);
  EXPECT_EQ(b.memo_inserts, a.memo_inserts);
  EXPECT_EQ(b.wavefront_hits, a.wavefront_hits);
  EXPECT_EQ(b.wavefront_misses, a.wavefront_misses);
  EXPECT_EQ(b.evictions, a.evictions);
  EXPECT_EQ(a.wavefront_hits, 1u);
  EXPECT_EQ(viewed.bytes(), per_call.bytes());
  EXPECT_EQ(Rows(viewed), Rows(per_call));
}

TEST(QueryCacheViewTest, AQuerySeesItsOwnStoresAndPublishesThemAtTheEnd) {
  QueryCache cache;
  const std::vector<Location> sources = {{4, 0.125}};
  {
    QueryCache::View view(&cache, sources, 0);
    EXPECT_FALSE(view.FindDistance(0, 7).has_value());
    view.StoreDistance(0, 7, 3.5);
    const std::optional<Dist> own = view.FindDistance(0, 7);
    ASSERT_TRUE(own.has_value());
    EXPECT_EQ(*own, 3.5);
    // Private until the write-back: the shared row has no slot yet, and
    // instance stats wait for the query's end.
    EXPECT_TRUE(cache.Entries().empty());
    EXPECT_EQ(cache.stats().memo_hits, 0u);
  }
  const QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.memo_misses, 1u);
  EXPECT_EQ(stats.memo_inserts, 1u);
  EXPECT_EQ(cache.FindDistance(sources[0], 7), std::optional<Dist>(3.5));
}

TEST(QueryCacheViewTest, WriteBackRecreatesAnEntryEvictedMidQuery) {
  QueryCacheConfig config;
  config.shard_count = 1;
  config.max_bytes = 2 * MemoEntryBytes();  // two one-row entries
  QueryCache cache(config);
  const Location a{1, 0.0};
  cache.StoreDistance(a, 1, 1.0);

  {
    const std::vector<Location> sources = {a};
    QueryCache::View view(&cache, sources, 0);
    ASSERT_TRUE(view.FindDistance(0, 1).has_value());  // opens `a`
    // Other queries' stores push `a` out of the shard.
    cache.StoreDistance(Location{2, 0.0}, 1, 2.0);
    cache.StoreDistance(Location{3, 0.0}, 1, 3.0);
    ASSERT_EQ(cache.stats().evictions, 1u);
    ASSERT_FALSE(cache.FindDistance(a, 1).has_value());
    // The view still answers from its copy and takes a new store.
    EXPECT_TRUE(view.FindDistance(0, 1).has_value());
    view.StoreDistance(0, 2, 1.5);
  }
  // The write-back re-creates `a` with the query's store, evicting the
  // least recent entry to fit.
  EXPECT_EQ(cache.FindDistance(a, 2), std::optional<Dist>(1.5));
  EXPECT_FALSE(cache.FindDistance(a, 1).has_value());
  EXPECT_EQ(cache.stats().memo_inserts, 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_LE(cache.bytes(), config.max_bytes);
}

TEST(QueryCacheViewTest, RefusedRowGrowthCountsAsAnEvictionPerStore) {
  QueryCacheConfig config;
  config.shard_count = 1;
  config.max_bytes = MemoEntryBytes();  // one source, first row size only
  const std::vector<Location> sources = {{2, 0.75}};
  std::vector<Step> query;
  for (ObjectId id = 0; id < 20; ++id) query.push_back({Step::kStore, 0, id});

  QueryCache per_call(config);
  RunQuery(&per_call, sources, query, /*use_view=*/false);
  QueryCache viewed(config);
  {
    QueryCache::View view(&viewed, sources, 0);
    for (const Step& step : query) {
      view.StoreDistance(0, step.object, DistanceFor(sources[0], step.object));
    }
    // The private row has no budget: the query sees every store.
    for (const Step& step : query) {
      EXPECT_TRUE(view.FindDistance(0, step.object).has_value());
    }
  }
  const QueryCache::Stats a = per_call.stats();
  const QueryCache::Stats b = viewed.stats();
  ASSERT_GT(a.evictions, 0u);
  EXPECT_EQ(b.evictions, a.evictions);
  EXPECT_EQ(b.memo_inserts, a.memo_inserts);
  EXPECT_EQ(a.memo_inserts + a.evictions, query.size());
  EXPECT_EQ(viewed.bytes(), per_call.bytes());
  EXPECT_EQ(Rows(viewed), Rows(per_call));
}

TEST(QueryCacheViewTest, EpochMismatchDropsTheEntryAtOpen) {
  QueryCache cache;
  const std::vector<Location> sources = {{5, 0.5}};
  cache.StoreDistance(sources[0], 7, 1.5, /*layout_epoch=*/4);
  cache.StoreWavefront(sources[0], NetworkNnStream::Snapshot{}, 4);
  {
    QueryCache::View view(&cache, sources, /*layout_epoch=*/5);
    EXPECT_EQ(view.Wavefront(0), nullptr);
    EXPECT_FALSE(view.FindDistance(0, 7).has_value());
    // Dropped at open, snapshot and row together: one eviction.
    EXPECT_TRUE(cache.Entries().empty());
    EXPECT_EQ(cache.stats().evictions, 1u);
    view.StoreDistance(0, 8, 2.5);
  }
  const std::vector<QueryCache::EntryView> entries = cache.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].layout_epoch, 5u);
  EXPECT_EQ(entries[0].snapshot, nullptr);
  EXPECT_EQ(entries[0].memo.size(), 1u);
  EXPECT_FALSE(cache.FindDistance(sources[0], 7, 5).has_value());
  EXPECT_EQ(cache.FindDistance(sources[0], 8, 5), std::optional<Dist>(2.5));
}

TEST(QueryCacheViewTest, StagedSnapshotIsStoredWithTheRowsAtTheEnd) {
  QueryCache cache;
  const std::vector<Location> sources = {{6, 0.0}, {7, 0.0}};
  {
    QueryCache::View view(&cache, sources, 0);
    EXPECT_EQ(view.Wavefront(1), nullptr);
    view.StoreDistance(1, 3, 0.5);
    view.StoreWavefront(1, NetworkNnStream::Snapshot{});
    EXPECT_EQ(cache.FindWavefront(sources[1]), nullptr);  // not yet
  }
  EXPECT_NE(cache.FindWavefront(sources[1]), nullptr);
  EXPECT_EQ(cache.FindDistance(sources[1], 3), std::optional<Dist>(0.5));
  EXPECT_EQ(cache.stats().wavefront_inserts, 1u);
  // Source 0 was never used: no lock, no entry, no count.
  EXPECT_EQ(cache.Entries().size(), 1u);
  EXPECT_EQ(cache.stats().wavefront_misses, 2u);  // one per lookup
}

TEST(QueryCacheViewTest, WriteBackRunsDuringAFaultUnwind) {
  QueryCache cache;
  const std::vector<Location> sources = {{8, 0.0}};
  try {
    QueryCache::View view(&cache, sources, 0);
    view.StoreDistance(0, 2, 4.0);
    throw StorageFault(Status::IoError("injected"));
  } catch (const StorageFault&) {
  }
  EXPECT_EQ(cache.FindDistance(sources[0], 2), std::optional<Dist>(4.0));
}

TEST(QueryCacheViewTest, NullCacheViewMissesWithoutCounting) {
  const std::vector<Location> sources = {{1, 0.0}};
  const obs::Counters before = obs::ThreadLocalCounters();
  {
    QueryCache::View view(nullptr, sources, 0);
    EXPECT_FALSE(view.enabled());
    EXPECT_EQ(view.Wavefront(0), nullptr);
    view.StoreDistance(0, 1, 1.0);
    EXPECT_FALSE(view.FindDistance(0, 1).has_value());
    view.StoreWavefront(0, NetworkNnStream::Snapshot{});
  }
  EXPECT_EQ(obs::ThreadLocalCounters() - before, obs::Counters{});
}

// Two workers run views over overlapping sources at once (TSan runs this
// suite). Every slot written back must be the exact value stored, and the
// instance counts must add up to the calls made.
TEST(QueryCacheViewTest, TwoWorkersWriteBackOverlappingSourcesConcurrently) {
  QueryCacheConfig config;
  config.shard_count = 2;
  QueryCache cache(config);
  const std::vector<Location> pool = {
      {1, 0.0}, {2, 0.5}, {3, 0.0}, {4, 0.25}, {5, 0.0}};
  constexpr int kQueries = 300;
  constexpr int kWorkers = 2;
  std::uint64_t finds[kWorkers] = {};
  std::uint64_t stores[kWorkers] = {};
  auto worker = [&](int w) {
    Rng rng(77 + w);
    for (int q = 0; q < kQueries; ++q) {
      std::vector<Location> sources;
      for (int s = 0; s < 3; ++s) sources.push_back(pool[rng.NextBounded(pool.size())]);
      QueryCache::View view(&cache, sources, 0);
      for (int k = 0; k < 12; ++k) {
        const std::size_t i = rng.NextBounded(sources.size());
        const ObjectId object = static_cast<ObjectId>(rng.NextBounded(40));
        ++finds[w];
        if (const std::optional<Dist> d = view.FindDistance(i, object)) {
          EXPECT_EQ(*d, DistanceFor(sources[i], object));
        } else {
          view.StoreDistance(i, object, DistanceFor(sources[i], object));
          ++stores[w];
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();

  const QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.memo_hits + stats.memo_misses, finds[0] + finds[1]);
  EXPECT_EQ(stats.memo_inserts, stores[0] + stores[1]);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.memo_hits, 0u);
  for (const QueryCache::EntryView& entry : cache.Entries()) {
    for (const auto& [object, dist] : entry.memo) {
      EXPECT_EQ(dist, DistanceFor(entry.source, object));
    }
  }
}

}  // namespace
}  // namespace msq
