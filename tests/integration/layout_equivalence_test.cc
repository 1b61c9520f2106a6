// Oracle equivalence of the graph storage layouts (DESIGN.md §15): the
// seed (Morton + row pages), Hilbert, and Hilbert+CSR layouts must give
// byte-identical skylines for every algorithm — including truncated
// prefixes under QueryLimits — and a Relayout's layout-epoch bump must
// provably cut stale QueryCache entries off.
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cache/query_cache.h"
#include "core/skyline_query.h"
#include "gen/workloads.h"

namespace msq {
namespace {

constexpr GraphLayout kLayouts[] = {GraphLayout::kSeed, GraphLayout::kHilbert,
                                    GraphLayout::kHilbertCsr};

std::unique_ptr<Workload> LayoutWorkload(GraphLayout layout,
                                         std::uint64_t seed = 19) {
  WorkloadConfig config;
  config.network = NetworkGenConfig{280, 360, seed, 0.4};
  config.graph_layout = layout;
  config.object_density = 0.8;
  return std::make_unique<Workload>(config);
}

void ExpectByteIdentical(const SkylineResult& got, const SkylineResult& want,
                         const std::string& label) {
  ASSERT_EQ(got.status.ok(), want.status.ok()) << label;
  EXPECT_EQ(got.truncated, want.truncated) << label;
  ASSERT_EQ(got.skyline.size(), want.skyline.size()) << label;
  for (std::size_t i = 0; i < got.skyline.size(); ++i) {
    EXPECT_EQ(got.skyline[i].object, want.skyline[i].object)
        << label << " entry " << i;
    EXPECT_EQ(got.skyline[i].vector, want.skyline[i].vector)
        << label << " entry " << i;
  }
}

// Node relabeling only renumbers nodes; objects and queries are edge-keyed,
// so every algorithm must produce the same bytes on every layout.
TEST(LayoutEquivalenceTest, AllAlgorithmsByteIdenticalAcrossLayouts) {
  auto seed_workload = LayoutWorkload(GraphLayout::kSeed);
  const Algorithm algorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                  Algorithm::kEdcIncremental, Algorithm::kLbc};
  for (std::uint64_t qseed : {40u, 41u}) {
    const SkylineQuerySpec spec = seed_workload->SampleQuery(3, qseed);
    std::unordered_map<int, SkylineResult> baseline;
    for (const Algorithm algo : algorithms) {
      seed_workload->ResetBuffers();
      baseline[static_cast<int>(algo)] =
          RunSkylineQuery(algo, seed_workload->dataset(), spec);
      ASSERT_TRUE(baseline[static_cast<int>(algo)].status.ok());
    }
    for (const GraphLayout layout :
         {GraphLayout::kHilbert, GraphLayout::kHilbertCsr}) {
      auto workload = LayoutWorkload(layout);
      // Edge-keyed sampling: the same seed gives the same query.
      const SkylineQuerySpec relaid = workload->SampleQuery(3, qseed);
      ASSERT_EQ(relaid.sources.size(), spec.sources.size());
      for (const Algorithm algo : algorithms) {
        workload->ResetBuffers();
        const SkylineResult got =
            RunSkylineQuery(algo, workload->dataset(), relaid);
        ExpectByteIdentical(
            got, baseline[static_cast<int>(algo)],
            GraphLayoutName(layout) + "/" +
                std::string(AlgorithmName(algo)) + " seed " +
                std::to_string(qseed));
      }
    }
  }
}

// Page ACCESSES (buffer lookups) are a function of the traversal, not the
// page packing, so a max_page_accesses budget cuts every layout off at the
// same point: truncated prefixes are byte-identical across layouts too,
// and each is a subset of its own full skyline.
TEST(LayoutEquivalenceTest, TruncatedPrefixByteIdenticalAcrossLayouts) {
  auto seed_workload = LayoutWorkload(GraphLayout::kSeed);
  SkylineQuerySpec spec = seed_workload->SampleQuery(3, 50);
  for (const Algorithm algo : {Algorithm::kCe, Algorithm::kLbc}) {
    seed_workload->ResetBuffers();
    const SkylineResult full =
        RunSkylineQuery(algo, seed_workload->dataset(), spec);
    ASSERT_TRUE(full.status.ok());
    ASSERT_FALSE(full.skyline.empty());
    std::unordered_map<ObjectId, DistVector> full_set;
    for (const SkylineEntry& e : full.skyline) full_set[e.object] = e.vector;

    SkylineQuerySpec limited = spec;
    limited.limits.max_page_accesses = 60;
    std::vector<SkylineResult> truncated;
    for (const GraphLayout layout : kLayouts) {
      auto workload = LayoutWorkload(layout);
      workload->ResetBuffers();
      truncated.push_back(
          RunSkylineQuery(algo, workload->dataset(), limited));
      const SkylineResult& got = truncated.back();
      ASSERT_TRUE(got.status.ok()) << GraphLayoutName(layout);
      EXPECT_TRUE(got.truncated) << GraphLayoutName(layout);
      EXPECT_LT(got.skyline.size(), full.skyline.size());
      // Confirmed prefix: every truncated entry is a true skyline point.
      for (const SkylineEntry& e : got.skyline) {
        const auto it = full_set.find(e.object);
        ASSERT_NE(it, full_set.end()) << GraphLayoutName(layout);
        EXPECT_EQ(it->second, e.vector) << GraphLayoutName(layout);
      }
    }
    for (std::size_t i = 1; i < truncated.size(); ++i) {
      ExpectByteIdentical(truncated[i], truncated[0],
                          "truncated " + GraphLayoutName(kLayouts[i]));
    }
  }
}

// The acceptance-criteria regression: a Relayout bumps the pager's
// layout_epoch, which must make every cache entry built under the old
// epoch unreachable — a stale wavefront snapshot keyed to the old node
// numbering must never be resumed.
TEST(LayoutEquivalenceTest, RelayoutEpochBumpInvalidatesWarmCache) {
  auto workload = LayoutWorkload(GraphLayout::kSeed);
  const SkylineQuerySpec spec = workload->SampleQuery(3, 70);

  workload->ResetBuffers();
  const SkylineResult baseline =
      RunSkylineQuery(Algorithm::kCe, workload->dataset(), spec);
  ASSERT_TRUE(baseline.status.ok());

  QueryCache cache;
  Dataset dataset = workload->dataset();
  dataset.cache = &cache;
  workload->ResetBuffers();
  const SkylineResult cold = RunSkylineQuery(Algorithm::kCe, dataset, spec);
  ExpectByteIdentical(cold, baseline, "cold cached");
  EXPECT_GT(cold.stats.counters.cache_misses(), 0u);

  workload->ResetBuffers();
  const SkylineResult warm = RunSkylineQuery(Algorithm::kCe, dataset, spec);
  ExpectByteIdentical(warm, baseline, "warm cached");
  const std::uint64_t warm_hits = warm.stats.counters.cache_hits();
  EXPECT_GT(warm_hits, 0u);

  // Same workload, same cache, new layout: the epoch bump alone must make
  // every prior entry unreachable.
  workload->Relayout(GraphLayout::kHilbertCsr);
  Dataset relaid = workload->dataset();
  relaid.cache = &cache;
  workload->ResetBuffers();
  const SkylineResult after = RunSkylineQuery(Algorithm::kCe, relaid, spec);
  ExpectByteIdentical(after, baseline, "post-relayout");
  EXPECT_EQ(after.stats.counters.cache_wavefront_hits, 0u);
  EXPECT_EQ(after.stats.counters.cache_memo_hits, 0u);
  EXPECT_GT(after.stats.counters.cache_misses(), 0u);

  // Entries written under the NEW epoch are live again — invalidation was
  // epoch-targeted, not a blanket cache wipe.
  workload->ResetBuffers();
  const SkylineResult rewarm = RunSkylineQuery(Algorithm::kCe, relaid, spec);
  ExpectByteIdentical(rewarm, baseline, "post-relayout warm");
  EXPECT_GT(rewarm.stats.counters.cache_hits(), 0u);
}

}  // namespace
}  // namespace msq
