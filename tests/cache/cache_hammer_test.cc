// Cache under concurrency: eight workers sharing one QueryCache must
// produce byte-identical results to sequential cacheless runs, the
// instance-level cache stats must conserve exactly against the per-query
// QueryStats sums, Invalidate racing live queries must stay safe, and
// threads growing the same sources' memo rows while the data epoch moves
// must only ever read what was stored under their own epoch.
// Runs under TSan in CI (tools/check.sh matches "Cache").
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/query_cache.h"
#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "graph/nn_stream.h"
#include "testing_support.h"

namespace msq {
namespace {

constexpr Algorithm kAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                     Algorithm::kLbc};

std::unique_ptr<Workload> SharedWorkload() {
  WorkloadConfig config;
  config.network = NetworkGenConfig{220, 290, 5, 0.0};
  config.object_density = 1.0;
  config.object_seed = 11;
  // Pools small enough that concurrent queries evict each other's pages.
  config.graph_buffer_frames = 32;
  config.index_buffer_frames = 32;
  return std::make_unique<Workload>(config);
}

std::vector<QueryRequest> MixedRequests(const Workload& workload,
                                        std::size_t queries) {
  std::vector<QueryRequest> requests;
  for (std::size_t q = 0; q < queries; ++q) {
    const SkylineQuerySpec spec = workload.SampleQuery(3, 40 + q);
    for (const Algorithm algorithm : kAlgorithms) {
      QueryRequest request;
      request.algorithm = algorithm;
      request.spec = spec;
      requests.push_back(request);
    }
  }
  return requests;
}

TEST(CacheHammerTest, WarmConcurrentBatchesStayByteIdentical) {
  auto workload = SharedWorkload();
  const std::vector<QueryRequest> requests = MixedRequests(*workload, 4);

  std::vector<SkylineResult> expected;
  for (const QueryRequest& request : requests) {
    expected.push_back(
        RunSkylineQuery(request.algorithm, workload->dataset(), request.spec));
    ASSERT_TRUE(expected.back().status.ok());
  }

  QueryExecutor executor(workload->dataset(), /*workers=*/8,
                         QueryCacheConfig{});
  ASSERT_NE(executor.cache(), nullptr);

  std::uint64_t wavefront_hits = 0, wavefront_misses = 0;
  std::uint64_t memo_hits = 0, memo_misses = 0;
  // Three rounds of the same batch: round one populates concurrently
  // (queries sharing sources race to store), later rounds reuse. Whatever
  // the interleaving — partial snapshots, racing stores, evict-while-read —
  // every result must equal the sequential cacheless run bit for bit.
  for (int round = 0; round < 3; ++round) {
    const std::vector<SkylineResult> results = executor.RunBatch(requests);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SkylineResult& got = results[i];
      const SkylineResult& want = expected[i];
      ASSERT_TRUE(got.status.ok()) << "round " << round << " request " << i;
      EXPECT_FALSE(got.truncated);
      ASSERT_EQ(got.skyline.size(), want.skyline.size())
          << "round " << round << " request " << i;
      for (std::size_t j = 0; j < got.skyline.size(); ++j) {
        EXPECT_EQ(got.skyline[j].object, want.skyline[j].object)
            << "round " << round << " request " << i;
        EXPECT_EQ(got.skyline[j].vector, want.skyline[j].vector)
            << "round " << round << " request " << i;
      }
      wavefront_hits += got.stats.counters.cache_wavefront_hits;
      wavefront_misses += got.stats.counters.cache_wavefront_misses;
      memo_hits += got.stats.counters.cache_memo_hits;
      memo_misses += got.stats.counters.cache_memo_misses;
    }
  }

  // Conservation: every cache consultation happens inside exactly one
  // query on exactly one worker thread, so the per-query counters must sum
  // to the instance totals — no lost or double-counted consultations under
  // contention.
  const QueryCache::Stats stats = executor.cache()->stats();
  EXPECT_EQ(stats.wavefront_hits, wavefront_hits);
  EXPECT_EQ(stats.wavefront_misses, wavefront_misses);
  EXPECT_EQ(stats.memo_hits, memo_hits);
  EXPECT_EQ(stats.memo_misses, memo_misses);
  // The warm rounds actually reused: plenty of hits across the run.
  EXPECT_GT(stats.wavefront_hits + stats.memo_hits, 0u);
}

TEST(CacheHammerTest, InvalidateRacingQueriesKeepsResultsExact) {
  auto workload = SharedWorkload();
  const std::vector<QueryRequest> requests = MixedRequests(*workload, 3);

  std::vector<SkylineResult> expected;
  for (const QueryRequest& request : requests) {
    expected.push_back(
        RunSkylineQuery(request.algorithm, workload->dataset(), request.spec));
    ASSERT_TRUE(expected.back().status.ok());
  }

  QueryExecutor executor(workload->dataset(), /*workers=*/8,
                         QueryCacheConfig{});
  // Same dataset throughout, so Invalidate only discards reusable state —
  // queries holding snapshot pointers must keep them alive and correct.
  std::vector<std::future<SkylineResult>> futures;
  for (int round = 0; round < 3; ++round) {
    for (const QueryRequest& request : requests) {
      futures.push_back(executor.Submit(request));
    }
    executor.cache()->Invalidate();
  }

  ASSERT_EQ(futures.size(), 3 * expected.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const SkylineResult got = futures[i].get();
    const SkylineResult& want = expected[i % expected.size()];
    ASSERT_TRUE(got.status.ok()) << "request " << i;
    ASSERT_EQ(got.skyline.size(), want.skyline.size()) << "request " << i;
    for (std::size_t j = 0; j < got.skyline.size(); ++j) {
      EXPECT_EQ(got.skyline[j].object, want.skyline[j].object);
      EXPECT_EQ(got.skyline[j].vector, want.skyline[j].vector);
    }
  }
  EXPECT_GE(executor.cache()->epoch(), 3u);
}

TEST(CacheHammerTest, SharedSourcesUnderMovingEpochReadOnlyTheirEpoch) {
  auto workload = SharedWorkload();
  const Dataset dataset = workload->dataset();
  const std::vector<Location> sources = workload->SampleQuery(3, 17).sources;
  // One snapshot per source, each settled to a different depth so a find
  // can tell which source's snapshot it got.
  std::vector<NetworkNnStream::Snapshot> snapshots;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    NetworkNnStream stream(dataset.graph_pager, dataset.mapping, sources[s]);
    for (std::size_t i = 0; i <= 4 * s; ++i) stream.Next();
    snapshots.push_back(stream.MakeSnapshot());
  }

  QueryCacheConfig config;
  config.shard_count = 2;
  QueryCache cache(config);
  // The distance stored for (source, object) under an epoch: unique per
  // triple, so a value leaking across epochs or sources is caught.
  auto value = [](std::size_t s, ObjectId object, std::uint64_t epoch) {
    return static_cast<Dist>(epoch * 1000000 + s * 10000 + object);
  };

  constexpr int kThreads = 4;
  constexpr int kOps = 6000;
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::uint64_t> wrong_values{0};
  std::atomic<std::uint64_t> wrong_snapshots{0};
  std::atomic<std::uint64_t> memo_finds{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        if (t == 0 && i % 400 == 399) epoch.fetch_add(1);
        const std::uint64_t e = epoch.load();
        const std::size_t s = static_cast<std::size_t>(i + t) % sources.size();
        // Objects spread so every source's row doubles several times per
        // epoch, with threads racing on the same rows.
        const ObjectId object = static_cast<ObjectId>((i * 7 + t) % 700);
        switch (i % 8) {
          case 0:
          case 1:
          case 2:
            cache.StoreDistance(sources[s], object, value(s, object, e), e);
            break;
          case 7:
            if (i % 64 == 7) {
              cache.StoreWavefront(sources[s], snapshots[s], e);
              break;
            }
            if (const QueryCache::WavefrontPtr found =
                    cache.FindWavefront(sources[s], e)) {
              if (found->search.settled_count !=
                  snapshots[s].search.settled_count) {
                wrong_snapshots.fetch_add(1);
              }
            }
            break;
          default:
            memo_finds.fetch_add(1);
            if (const std::optional<Dist> found =
                    cache.FindDistance(sources[s], object, e)) {
              if (*found != value(s, object, e)) wrong_values.fetch_add(1);
            }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong_values.load(), 0u);
  EXPECT_EQ(wrong_snapshots.load(), 0u);
  const QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.memo_hits + stats.memo_misses, memo_finds.load());
  EXPECT_GT(stats.memo_hits, 0u);
  EXPECT_GT(stats.wavefront_hits, 0u);
  EXPECT_LE(cache.bytes(), config.max_bytes);
  // Byte accounting stayed exact under contention: emptying every shard
  // returns the global total to zero.
  cache.Invalidate();
  EXPECT_EQ(cache.bytes(), 0u);
}

}  // namespace
}  // namespace msq
