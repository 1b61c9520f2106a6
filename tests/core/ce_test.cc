#include "core/ce.h"

#include <gtest/gtest.h>

#include "core/naive.h"
#include "testing_support.h"

namespace msq {
namespace {

TEST(CeTest, SingleQueryPointNearestObjects) {
  RoadNetwork network = testing::MakeLineNetwork(5);
  const Dist len = network.EdgeAt(0).length;
  auto workload = testing::MakeWorkload(
      std::move(network), {{0, len * 0.5}, {2, len * 0.5}});
  SkylineQuerySpec spec;
  spec.sources = {{0, 0.0}};
  const auto result = RunCe(workload->dataset(), spec);
  EXPECT_EQ(testing::SkylineIds(result), (std::vector<ObjectId>{0}));
}

TEST(CeTest, MatchesNaiveOnRandomWorkloads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto workload = testing::MakeRandomWorkload(250, 350, 0.4, seed);
    const auto spec = workload->SampleQuery(3, seed);
    const auto expected = RunNaive(workload->dataset(), spec);
    const auto got = RunCe(workload->dataset(), spec);
    EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected))
        << "seed " << seed;
  }
}

TEST(CeTest, VectorsMatchNaive) {
  auto workload = testing::MakeRandomWorkload(200, 280, 0.5, 42);
  const auto spec = workload->SampleQuery(2, 9);
  const auto expected = RunNaive(workload->dataset(), spec);
  const auto got = RunCe(workload->dataset(), spec);
  ASSERT_EQ(got.skyline.size(), expected.skyline.size());
  for (std::size_t i = 0; i < got.skyline.size(); ++i) {
    // Entries in both results are keyed by object; find matching.
    const auto& entry = got.skyline[i];
    bool found = false;
    for (const auto& want : expected.skyline) {
      if (want.object != entry.object) continue;
      found = true;
      ASSERT_EQ(entry.vector.size(), want.vector.size());
      for (std::size_t d = 0; d < entry.vector.size(); ++d) {
        EXPECT_NEAR(entry.vector[d], want.vector[d], 1e-9);
      }
    }
    EXPECT_TRUE(found) << "object " << entry.object;
  }
}

TEST(CeTest, CandidatesAreSupersetOfSkyline) {
  auto workload = testing::MakeRandomWorkload(300, 420, 0.5, 11);
  const auto spec = workload->SampleQuery(4, 3);
  const auto result = RunCe(workload->dataset(), spec);
  EXPECT_GE(result.stats.candidate_count, result.skyline.size());
  EXPECT_LE(result.stats.candidate_count, workload->objects().size());
}

TEST(CeTest, ProgressiveReportingOrderedBySourceVisits) {
  auto workload = testing::MakeRandomWorkload(200, 260, 0.5, 19);
  const auto spec = workload->SampleQuery(2, 5);
  std::vector<ObjectId> reported;
  const auto result = RunCe(workload->dataset(), spec,
                            [&](const SkylineEntry& entry) {
                              reported.push_back(entry.object);
                            });
  // Progressive reports may include tie-filtered extras but never fewer.
  EXPECT_GE(reported.size(), result.skyline.size());
}

TEST(CeTest, StaticAttributesSupported) {
  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    auto workload = testing::MakeRandomWorkload(150, 200, 0.5, seed,
                                                /*attr_dims=*/1);
    const auto spec = workload->SampleQuery(2, seed);
    const auto expected = RunNaive(workload->dataset(), spec);
    const auto got = RunCe(workload->dataset(), spec);
    EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected))
        << "seed " << seed;
  }
}

TEST(CeTest, DisconnectedComponentHandled) {
  // Query and one object on the mainland, one object on an island.
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
  const auto result = RunCe(workload->dataset(), spec);
  EXPECT_EQ(testing::SkylineIds(result), (std::vector<ObjectId>{0}));
}

TEST(CeTest, InitialResponseNotAfterTotal) {
  auto workload = testing::MakeRandomWorkload(300, 400, 0.5, 33);
  const auto spec = workload->SampleQuery(3, 7);
  const auto result = RunCe(workload->dataset(), spec);
  EXPECT_LE(result.stats.initial_seconds,
            result.stats.total_seconds + 1e-9);
}

TEST(CeTest, FirstReportIsFirstObjectVisitedByAllQueryPoints) {
  // Paper Section 4.1 / Figure 1: the filtering phase ends at the first
  // object visited by ALL query points, and that object is the first
  // skyline point. On a line with queries at both ends and objects at
  // offsets 0.1 / 0.5 / 0.9, the middle object completes first under
  // round-robin expansion.
  RoadNetwork network = testing::MakeLineNetwork(5);
  const Dist len = network.EdgeAt(0).length;  // 0.25
  auto workload = testing::MakeWorkload(
      std::move(network),
      {{0, len * 0.4},    // a: 0.1 from the left end
       {1, len * 1.0},    // b: 0.5 (middle)
       {3, len * 0.6}});  // c: 0.9
  SkylineQuerySpec spec;
  spec.sources = {{0, 0.0}, {3, len}};

  std::vector<ObjectId> reported;
  const auto result = RunCe(workload->dataset(), spec,
                            [&](const SkylineEntry& e) {
                              reported.push_back(e.object);
                            });
  ASSERT_EQ(result.skyline.size(), 3u);  // all three are skyline
  EXPECT_EQ(reported.front(), 1u);       // the middle object b
  // All three objects were candidates: each was visited before the first
  // common visit completed.
  EXPECT_EQ(result.stats.candidate_count, 3u);
}

TEST(CeTest, ObjectsBeyondFilteringCirclesNeverCandidates) {
  // Figure 1's p4: an object farther from every query point than the
  // first common visit is never fetched into C.
  RoadNetwork network = testing::MakeLineNetwork(9);
  const Dist len = network.EdgeAt(0).length;  // 0.125
  auto workload = testing::MakeWorkload(
      std::move(network),
      {{3, len * 0.5},    // near the middle: first common visit
       {7, len * 0.9}});  // far right, outside both circles
  SkylineQuerySpec spec;
  spec.sources = {{2, 0.0}, {4, len}};  // nodes 2 and 5, middle region
  const auto result = RunCe(workload->dataset(), spec);
  EXPECT_EQ(testing::SkylineIds(result), (std::vector<ObjectId>{0}));
  EXPECT_EQ(result.stats.candidate_count, 1u);
}

TEST(CeTest, PageAccessesAtLeastMisses) {
  auto workload = testing::MakeRandomWorkload(300, 400, 0.5, 51);
  workload->ResetBuffers();
  const auto spec = workload->SampleQuery(3, 1);
  const auto result = RunCe(workload->dataset(), spec);
  EXPECT_GE(result.stats.network_page_accesses, result.stats.network_pages);
}

TEST(CeTest, NetworkPagesCounted) {
  auto workload = testing::MakeRandomWorkload(400, 550, 0.5, 21);
  workload->ResetBuffers();
  const auto spec = workload->SampleQuery(2, 2);
  const auto result = RunCe(workload->dataset(), spec);
  EXPECT_GT(result.stats.network_pages, 0u);
  EXPECT_GT(result.stats.counters.settled_nodes, 0u);
}

TEST(CeTest, RefinementTiesJoinOpenListAndArePrunedLater) {
  // Two query points at the ends of edge A-B (length 2) and three spurs,
  // with dyadic lengths so every distance is exact. Distance vectors:
  //   0 F (1, 1)      1 D (1, 1), co-located with F
  //   2 X (1, 3)      3 S (0.5, 2.5)      4 Y (3.5, 1.5)
  // Round-robin emission: q0 S, q1 F, q0 F (F completes, filtering ends),
  // q1 D (exact tie: joins the open list), q0 D (completes, kept as a
  // co-located duplicate), q1 Y (discarded), q0 X (exact tie on q0: joins
  // the open list after filtering), q1 S (completes and prunes X on its
  // partial distance).
  RoadNetwork network;
  const NodeId a = network.AddNode({0.2, 0.5});
  const NodeId b = network.AddNode({0.6, 0.5});
  const NodeId p = network.AddNode({0.2, 0.6});
  const NodeId q = network.AddNode({0.1, 0.5});
  const NodeId r = network.AddNode({0.7, 0.5});
  const EdgeId ab = network.AddEdge(a, b, 2.0);
  const EdgeId ap = network.AddEdge(a, p, 1.0);
  const EdgeId aq = network.AddEdge(a, q, 2.0);
  const EdgeId br = network.AddEdge(b, r, 2.0);
  network.Finalize();
  auto workload = testing::MakeWorkload(
      std::move(network),
      {{ab, 1.0}, {ab, 1.0}, {aq, 1.0}, {ap, 0.5}, {br, 1.5}});
  SkylineQuerySpec spec;
  spec.sources = {{ab, 0.0}, {ab, 2.0}};

  const auto expected = RunNaive(workload->dataset(), spec);
  std::vector<ObjectId> reported;
  const auto got = RunCe(workload->dataset(), spec,
                         [&](const SkylineEntry& e) {
                           reported.push_back(e.object);
                         });
  EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected));
  EXPECT_EQ(reported, (std::vector<ObjectId>{0, 1, 3}));
  // Recorded from the full-object-scan prune loop this replaced: the open
  // list must run the same ProvablyDominates checks.
  EXPECT_EQ(got.stats.candidate_count, 2u);
  EXPECT_EQ(got.stats.counters.bound_pruned, 2u);   // Y discarded, X pruned
  EXPECT_EQ(got.stats.counters.bound_examined, 3u);  // F, D and S completed
  // Tests of the rows each emission check can find in its shortest
  // sorted-column prefix (DESIGN.md §19); the full scans counted 9.
  EXPECT_EQ(got.stats.counters.dominance_tests, 3u);
}

}  // namespace
}  // namespace msq
