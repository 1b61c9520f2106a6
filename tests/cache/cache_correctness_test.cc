// Cross-query cache end-to-end guarantees: warm results are byte-identical
// to cold ones for every cached algorithm, under eviction pressure, across
// algorithm mixes, and after invalidation; cache hits reduce page accesses;
// QueryLimits truncation semantics hold on warm queries; and the cache
// counters reconcile exactly across QueryStats, profiles, and instance
// stats.
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cache/query_cache.h"
#include "core/constrained.h"
#include "core/skyline_query.h"
#include "gen/workloads.h"
#include "obs/trace.h"
#include "testing_support.h"

namespace msq {
namespace {

constexpr Algorithm kCachedAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                           Algorithm::kLbc};

std::unique_ptr<Workload> CacheWorkload(std::uint64_t seed = 5) {
  return testing::MakeRandomWorkload(220, 300, 1.0, seed);
}

// Full byte-identity: same objects in the same order with bitwise-equal
// distance vectors.
void ExpectSameSkyline(const SkylineResult& got, const SkylineResult& want,
                       const char* label) {
  ASSERT_TRUE(got.status.ok()) << label;
  ASSERT_TRUE(want.status.ok()) << label;
  ASSERT_EQ(got.skyline.size(), want.skyline.size()) << label;
  for (std::size_t i = 0; i < got.skyline.size(); ++i) {
    EXPECT_EQ(got.skyline[i].object, want.skyline[i].object)
        << label << " entry " << i;
    EXPECT_EQ(got.skyline[i].vector, want.skyline[i].vector)
        << label << " entry " << i;
  }
}

std::uint64_t CacheHits(const QueryStats& stats) {
  return stats.counters.cache_hits();
}

std::uint64_t CacheMisses(const QueryStats& stats) {
  return stats.counters.cache_misses();
}

TEST(CacheCorrectnessTest, WarmRunsAreByteIdenticalAndCheaper) {
  for (const Algorithm algorithm : kCachedAlgorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    auto workload = CacheWorkload();
    const SkylineQuerySpec spec = workload->SampleQuery(3, 77);
    const SkylineResult baseline =
        RunSkylineQuery(algorithm, workload->dataset(), spec);
    ASSERT_TRUE(baseline.status.ok());
    ASSERT_FALSE(baseline.skyline.empty());
    EXPECT_EQ(CacheHits(baseline.stats) + CacheMisses(baseline.stats), 0u);

    QueryCache cache;
    Dataset dataset = workload->dataset();
    dataset.cache = &cache;
    const SkylineResult cold = RunSkylineQuery(algorithm, dataset, spec);
    const SkylineResult warm = RunSkylineQuery(algorithm, dataset, spec);

    // Attaching an empty cache must not perturb the computation, and the
    // warm rerun must reproduce it bit for bit.
    ExpectSameSkyline(cold, baseline, "cold");
    ExpectSameSkyline(warm, baseline, "warm");

    EXPECT_GT(CacheMisses(cold.stats), 0u);
    EXPECT_GT(CacheHits(warm.stats), 0u);
    // The reuse is real: the warm run touches the network pages less.
    EXPECT_LT(warm.stats.network_page_accesses,
              cold.stats.network_page_accesses);
  }
}

TEST(CacheCorrectnessTest, MixedAlgorithmFlowStaysByteIdentical) {
  auto workload = CacheWorkload();
  const SkylineQuerySpec spec = workload->SampleQuery(3, 83);

  std::vector<SkylineResult> baselines;
  for (const Algorithm algorithm : kCachedAlgorithms) {
    baselines.push_back(
        RunSkylineQuery(algorithm, workload->dataset(), spec));
    ASSERT_TRUE(baselines.back().status.ok());
  }

  // The constrained skyline is LBC with a radius, so it reads the same
  // cache: after LBC it must find hits there and still match its cold run.
  constexpr Dist kRadius = 0.5;
  const SkylineResult constrained_baseline =
      RunConstrainedSkylineLbc(workload->dataset(), spec, kRadius);
  ASSERT_FALSE(constrained_baseline.skyline.empty());

  // One cache shared across algorithms, two rounds: CE's harvested
  // distances flow into EDC/LBC and vice versa without changing a byte.
  QueryCache cache;
  Dataset dataset = workload->dataset();
  dataset.cache = &cache;
  std::uint64_t second_round_hits = 0;
  for (int round = 0; round < 2; ++round) {
    const char* label = round == 0 ? "first round" : "second round";
    for (std::size_t a = 0; a < std::size(kCachedAlgorithms); ++a) {
      SCOPED_TRACE(AlgorithmName(kCachedAlgorithms[a]));
      const SkylineResult result =
          RunSkylineQuery(kCachedAlgorithms[a], dataset, spec);
      ExpectSameSkyline(result, baselines[a], label);
      if (round == 1) second_round_hits += CacheHits(result.stats);
    }
    const SkylineResult constrained =
        RunConstrainedSkylineLbc(dataset, spec, kRadius);
    ExpectSameSkyline(constrained, constrained_baseline, label);
    EXPECT_GT(CacheHits(constrained.stats), 0u) << label;
  }
  EXPECT_GT(second_round_hits, 0u);
}

TEST(CacheCorrectnessTest, EvictionPressureNeverChangesResults) {
  auto workload = CacheWorkload();
  const SkylineQuerySpec spec = workload->SampleQuery(3, 91);
  const SkylineResult baseline_ce =
      RunSkylineQuery(Algorithm::kCe, workload->dataset(), spec);
  const SkylineResult baseline_edc =
      RunSkylineQuery(Algorithm::kEdc, workload->dataset(), spec);

  // A budget so tight the memo tier constantly evicts and wavefront
  // snapshots are rejected outright.
  QueryCacheConfig config;
  config.max_bytes = 4096;
  config.shard_count = 1;
  QueryCache cache(config);
  Dataset dataset = workload->dataset();
  dataset.cache = &cache;

  for (int round = 0; round < 2; ++round) {
    ExpectSameSkyline(RunSkylineQuery(Algorithm::kCe, dataset, spec),
                      baseline_ce, "ce under eviction");
    ExpectSameSkyline(RunSkylineQuery(Algorithm::kEdc, dataset, spec),
                      baseline_edc, "edc under eviction");
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.bytes(), config.max_bytes);
}

TEST(CacheCorrectnessTest, InvalidateIsolatesDatasetSwap) {
  auto workload_a = CacheWorkload(5);
  const SkylineQuerySpec spec_a = workload_a->SampleQuery(3, 77);

  QueryCache cache;
  {
    Dataset dataset_a = workload_a->dataset();
    dataset_a.cache = &cache;
    ASSERT_TRUE(
        RunSkylineQuery(Algorithm::kCe, dataset_a, spec_a).status.ok());
  }
  ASSERT_GT(cache.bytes(), 0u);

  // Reload: a different network/object set behind the same cache instance.
  cache.Invalidate();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.epoch(), 1u);

  auto workload_b = testing::MakeRandomWorkload(180, 260, 1.0, 9);
  const SkylineQuerySpec spec_b = workload_b->SampleQuery(3, 55);
  const SkylineResult baseline_b =
      RunSkylineQuery(Algorithm::kCe, workload_b->dataset(), spec_b);
  Dataset dataset_b = workload_b->dataset();
  dataset_b.cache = &cache;
  ExpectSameSkyline(RunSkylineQuery(Algorithm::kCe, dataset_b, spec_b),
                    baseline_b, "after invalidate");
}

TEST(CacheCorrectnessTest, FullyCachedQueryIsNotTruncated) {
  auto workload = CacheWorkload();
  const SkylineQuerySpec spec = workload->SampleQuery(3, 99);
  const SkylineResult unlimited =
      RunSkylineQuery(Algorithm::kCe, workload->dataset(), spec);
  ASSERT_TRUE(unlimited.status.ok());

  SkylineQuerySpec limited = spec;
  limited.limits.max_page_accesses = 64;
  // The budget genuinely bites a cold run of this query...
  const SkylineResult cold_limited =
      RunSkylineQuery(Algorithm::kCe, workload->dataset(), limited);
  ASSERT_TRUE(cold_limited.truncated);
  EXPECT_EQ(cold_limited.truncation_reason, StatusCode::kResourceExhausted);

  // ...but once the wavefronts are cached, the same query re-emits from
  // the snapshots without page traffic: it must complete, un-truncated and
  // byte-identical, rather than report a phantom truncation.
  QueryCache cache;
  Dataset dataset = workload->dataset();
  dataset.cache = &cache;
  ASSERT_TRUE(RunSkylineQuery(Algorithm::kCe, dataset, spec).status.ok());
  const SkylineResult warm_limited =
      RunSkylineQuery(Algorithm::kCe, dataset, limited);
  EXPECT_FALSE(warm_limited.truncated);
  EXPECT_EQ(warm_limited.truncation_reason, StatusCode::kOk);
  ExpectSameSkyline(warm_limited, unlimited, "warm limited");
}

TEST(CacheCorrectnessTest, TruncatedResumesYieldTrueSkylinePrefixes) {
  auto workload = CacheWorkload();
  const SkylineQuerySpec spec = workload->SampleQuery(3, 99);
  const SkylineResult unlimited =
      RunSkylineQuery(Algorithm::kCe, workload->dataset(), spec);
  ASSERT_TRUE(unlimited.status.ok());

  SkylineQuerySpec limited = spec;
  // Small enough that a cold run truncates: CE reads each settled node's
  // adjacency and each occupied edge's middle-layer records once per
  // query, so a full cold run of this query stays under 200 accesses.
  limited.limits.max_page_accesses = 100;

  // Run the budgeted query repeatedly against one cache. Each run resumes
  // the stored wavefronts, pays its page budget on fresh expansion, and
  // checkpoints further progress — so the sequence must terminate with a
  // complete run. Every truncated prefix along the way may only contain
  // confirmed true skyline points, bitwise equal to the unlimited run's.
  QueryCache cache;
  Dataset dataset = workload->dataset();
  dataset.cache = &cache;
  bool completed = false;
  bool saw_truncation = false;
  for (int round = 0; round < 200 && !completed; ++round) {
    const SkylineResult result =
        RunSkylineQuery(Algorithm::kCe, dataset, limited);
    ASSERT_TRUE(result.status.ok()) << "round " << round;
    for (const SkylineEntry& entry : result.skyline) {
      bool found = false;
      for (const SkylineEntry& truth : unlimited.skyline) {
        if (truth.object == entry.object) {
          EXPECT_EQ(entry.vector, truth.vector) << "round " << round;
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "round " << round << " reported non-skyline "
                         << entry.object;
    }
    if (result.truncated) {
      EXPECT_EQ(result.truncation_reason, StatusCode::kResourceExhausted);
      saw_truncation = true;
    } else {
      ExpectSameSkyline(result, unlimited, "final resumed run");
      completed = true;
    }
  }
  EXPECT_TRUE(saw_truncation);  // the budget was small enough to matter
  EXPECT_TRUE(completed);       // and resumption made monotone progress
}

TEST(CacheCorrectnessTest, CacheCountersReconcileExactly) {
  auto workload = CacheWorkload();
  SkylineQuerySpec spec = workload->SampleQuery(3, 77);
  QueryCache cache;
  Dataset dataset = workload->dataset();
  dataset.cache = &cache;

  ASSERT_TRUE(RunSkylineQuery(Algorithm::kCe, dataset, spec).status.ok());

  // Single-threaded: the instance-stats delta across one query must equal
  // that query's QueryStats fields, which must equal the profile totals.
  const QueryCache::Stats before = cache.stats();
  obs::TraceSession trace;
  spec.trace = &trace;
  const SkylineResult warm = RunSkylineQuery(Algorithm::kCe, dataset, spec);
  ASSERT_TRUE(warm.status.ok());
  const QueryCache::Stats after = cache.stats();

  EXPECT_GT(warm.stats.counters.cache_wavefront_hits, 0u);
  EXPECT_EQ(after.wavefront_hits - before.wavefront_hits,
            warm.stats.counters.cache_wavefront_hits);
  EXPECT_EQ(after.wavefront_misses - before.wavefront_misses,
            warm.stats.counters.cache_wavefront_misses);
  EXPECT_EQ(after.memo_hits - before.memo_hits,
            warm.stats.counters.cache_memo_hits);
  EXPECT_EQ(after.memo_misses - before.memo_misses,
            warm.stats.counters.cache_memo_misses);

  ASSERT_TRUE(warm.profile.has_value());
  const obs::Counters totals = warm.profile->TotalCounters();
  EXPECT_EQ(totals.cache_wavefront_hits,
            warm.stats.counters.cache_wavefront_hits);
  EXPECT_EQ(totals.cache_wavefront_misses,
            warm.stats.counters.cache_wavefront_misses);
  EXPECT_EQ(totals.cache_memo_hits, warm.stats.counters.cache_memo_hits);
  EXPECT_EQ(totals.cache_memo_misses, warm.stats.counters.cache_memo_misses);
}

}  // namespace
}  // namespace msq
