#include "core/lbc.h"

#include <gtest/gtest.h>

#include "core/ce.h"
#include "core/naive.h"
#include "testing_support.h"

namespace msq {
namespace {

TEST(LbcTest, MatchesNaiveOnRandomWorkloads) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto workload = testing::MakeRandomWorkload(250, 350, 0.4, seed);
    const auto spec = workload->SampleQuery(3, seed);
    const auto expected = RunNaive(workload->dataset(), spec);
    const auto got = RunLbc(workload->dataset(), spec);
    EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected))
        << "seed " << seed;
  }
}

TEST(LbcTest, NoPlbVariantAlsoExact) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto workload = testing::MakeRandomWorkload(220, 310, 0.5, seed + 40);
    const auto spec = workload->SampleQuery(3, seed);
    const auto expected = RunNaive(workload->dataset(), spec);
    const auto got =
        RunLbc(workload->dataset(), spec, LbcOptions{.use_plb = false});
    EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected))
        << "seed " << seed;
  }
}

TEST(LbcTest, PlbSavesNetworkAccess) {
  // The plb early termination must not settle more nodes than the
  // full-distance variant.
  auto workload = testing::MakeRandomWorkload(700, 980, 0.5, 3);
  const auto spec = workload->SampleQuery(4, 2);
  const auto with_plb = RunLbc(workload->dataset(), spec);
  const auto without =
      RunLbc(workload->dataset(), spec, LbcOptions{.use_plb = false});
  EXPECT_EQ(testing::SkylineIds(with_plb), testing::SkylineIds(without));
  EXPECT_LE(with_plb.stats.counters.settled_nodes,
            without.stats.counters.settled_nodes);
}

TEST(LbcTest, VectorsMatchNaive) {
  auto workload = testing::MakeRandomWorkload(200, 270, 0.5, 91);
  const auto spec = workload->SampleQuery(3, 8);
  const auto expected = RunNaive(workload->dataset(), spec);
  const auto got = RunLbc(workload->dataset(), spec);
  ASSERT_EQ(got.skyline.size(), expected.skyline.size());
  for (const auto& entry : got.skyline) {
    bool found = false;
    for (const auto& want : expected.skyline) {
      if (want.object != entry.object) continue;
      found = true;
      for (std::size_t d = 0; d < entry.vector.size(); ++d) {
        EXPECT_NEAR(entry.vector[d], want.vector[d], 1e-9);
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(LbcTest, FirstReportIsSourceNetworkNn) {
  // Section 6.3: "LBC returns the first skyline point immediately since
  // the initial response only involves the source query point and its
  // first network NN is a skyline point."
  auto workload = testing::MakeRandomWorkload(300, 400, 0.5, 55);
  const auto spec = workload->SampleQuery(3, 9);

  std::vector<ObjectId> reported;
  RunLbc(workload->dataset(), spec, LbcOptions{},
         [&](const SkylineEntry& entry) { reported.push_back(entry.object); });
  ASSERT_FALSE(reported.empty());

  // The first reported object must be the network NN of the source.
  const auto vectors = ComputeAllNetworkVectors(workload->dataset(), spec);
  ObjectId nn = kInvalidObject;
  Dist best = kInfDist;
  for (ObjectId id = 0; id < vectors.size(); ++id) {
    if (vectors[id][0] < best) {
      best = vectors[id][0];
      nn = id;
    }
  }
  EXPECT_EQ(reported.front(), nn);
}

TEST(LbcTest, SourceIndexSelectable) {
  auto workload = testing::MakeRandomWorkload(250, 340, 0.5, 77);
  auto spec = workload->SampleQuery(3, 10);
  const auto expected = RunNaive(workload->dataset(), spec);
  for (std::size_t src = 0; src < spec.sources.size(); ++src) {
    spec.lbc_source_index = src;
    const auto got = RunLbc(workload->dataset(), spec);
    EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected))
        << "source " << src;
  }
}

TEST(LbcTest, SingleQueryPointReturnsOnlyNn) {
  auto workload = testing::MakeRandomWorkload(200, 280, 0.5, 15);
  const auto spec = workload->SampleQuery(1, 1);
  const auto result = RunLbc(workload->dataset(), spec);
  const auto expected = RunNaive(workload->dataset(), spec);
  EXPECT_EQ(testing::SkylineIds(result), testing::SkylineIds(expected));
}

TEST(LbcTest, StaticAttributesSupported) {
  for (std::uint64_t seed = 2; seed <= 5; ++seed) {
    auto workload = testing::MakeRandomWorkload(150, 200, 0.5, seed,
                                                /*attr_dims=*/2);
    const auto spec = workload->SampleQuery(2, seed);
    const auto expected = RunNaive(workload->dataset(), spec);
    const auto got = RunLbc(workload->dataset(), spec);
    EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected))
        << "seed " << seed;
  }
}

TEST(LbcTest, CandidateSetSmallerThanCe) {
  // The paper's Figure 4: LBC has a remarkably low candidate ratio; its
  // candidate space is bounded by network skyline points while CE collects
  // everything closer than the first common object.
  std::size_t lbc_smaller = 0, runs = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto workload = testing::MakeRandomWorkload(500, 700, 0.5, seed);
    const auto spec = workload->SampleQuery(4, seed);
    const auto lbc = RunLbc(workload->dataset(), spec);
    const auto ce = RunCe(workload->dataset(), spec);
    ++runs;
    if (lbc.stats.candidate_count <= ce.stats.candidate_count) {
      ++lbc_smaller;
    }
  }
  // Not guaranteed instance-by-instance (no definitive C relation in §5)
  // but must hold in the typical case.
  EXPECT_GE(lbc_smaller * 2, runs);
}

TEST(LbcTest, DisconnectedIslandObjectExcluded) {
  RoadNetwork network;
  network.AddNode({0, 0});
  network.AddNode({0.4, 0});
  network.AddNode({0.6, 0.5});
  network.AddNode({1.0, 0.5});
  const EdgeId mainland = network.AddEdge(0, 1);
  const EdgeId island = network.AddEdge(2, 3);
  network.Finalize();
  auto workload = testing::MakeWorkload(
      std::move(network), {{mainland, 0.2}, {island, 0.2}});
  SkylineQuerySpec spec;
  spec.sources = {{mainland, 0.0}};
  const auto result = RunLbc(workload->dataset(), spec);
  EXPECT_EQ(testing::SkylineIds(result), (std::vector<ObjectId>{0}));
}

TEST(LbcTest, AlternatingSourcesExact) {
  // The §4.3 extension: rotating the discovery source must not change the
  // answer, only the reporting order.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto workload = testing::MakeRandomWorkload(250, 350, 0.5, seed + 60);
    const auto spec = workload->SampleQuery(4, seed);
    const auto expected = RunNaive(workload->dataset(), spec);
    const auto got = RunLbc(workload->dataset(), spec,
                            LbcOptions{.alternate_sources = true});
    EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected))
        << "seed " << seed;
  }
}

TEST(LbcTest, AlternatingSourcesSpreadsEarlyReports) {
  // With alternation the first |Q| reported points are the network NNs of
  // distinct query points (when those NNs are distinct objects).
  auto workload = testing::MakeRandomWorkload(400, 560, 0.5, 71);
  const auto spec = workload->SampleQuery(3, 7);

  std::vector<ObjectId> reported;
  RunLbc(workload->dataset(), spec, LbcOptions{.alternate_sources = true},
         [&](const SkylineEntry& e) { reported.push_back(e.object); });
  ASSERT_GE(reported.size(), 1u);

  // The very first report is the network NN of query point 0.
  const auto vectors = ComputeAllNetworkVectors(workload->dataset(), spec);
  ObjectId nn0 = kInvalidObject;
  Dist best = kInfDist;
  for (ObjectId id = 0; id < vectors.size(); ++id) {
    if (vectors[id][0] < best) {
      best = vectors[id][0];
      nn0 = id;
    }
  }
  EXPECT_EQ(reported.front(), nn0);
}

TEST(LbcTest, AlternatingWithAttributes) {
  auto workload = testing::MakeRandomWorkload(150, 200, 0.5, 81,
                                              /*attr_dims=*/1);
  const auto spec = workload->SampleQuery(3, 2);
  const auto expected = RunNaive(workload->dataset(), spec);
  const auto got = RunLbc(workload->dataset(), spec,
                          LbcOptions{.alternate_sources = true});
  EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected));
}

TEST(LbcTest, AlternatingSingleQueryPointDegenerates) {
  auto workload = testing::MakeRandomWorkload(150, 200, 0.5, 83);
  const auto spec = workload->SampleQuery(1, 1);
  const auto plain = RunLbc(workload->dataset(), spec);
  const auto alt = RunLbc(workload->dataset(), spec,
                          LbcOptions{.alternate_sources = true});
  EXPECT_EQ(testing::SkylineIds(alt), testing::SkylineIds(plain));
}

TEST(LbcTest, EmptyObjectSet) {
  RoadNetwork network = testing::MakeGridNetwork(3);
  auto workload = testing::MakeWorkload(std::move(network), {});
  SkylineQuerySpec spec;
  spec.sources = {{0, 0.0}};
  const auto result = RunLbc(workload->dataset(), spec);
  EXPECT_TRUE(result.skyline.empty());
  EXPECT_EQ(result.stats.candidate_count, 0u);
}

}  // namespace
}  // namespace msq
