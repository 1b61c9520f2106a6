#include "core/edc.h"

#include <gtest/gtest.h>

#include "core/naive.h"
#include "testing_support.h"

namespace msq {
namespace {

TEST(EdcTest, BatchMatchesNaiveOnRandomWorkloads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto workload = testing::MakeRandomWorkload(250, 350, 0.4, seed);
    const auto spec = workload->SampleQuery(3, seed);
    const auto expected = RunNaive(workload->dataset(), spec);
    const auto got = RunEdc(workload->dataset(), spec);
    EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected))
        << "seed " << seed;
  }
}

TEST(EdcTest, IncrementalMatchesBatch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto workload = testing::MakeRandomWorkload(220, 300, 0.5, seed + 10);
    const auto spec = workload->SampleQuery(3, seed);
    const auto batch = RunEdc(workload->dataset(), spec,
                              EdcOptions{.incremental = false});
    const auto inc = RunEdc(workload->dataset(), spec,
                            EdcOptions{.incremental = true});
    EXPECT_EQ(testing::SkylineIds(inc), testing::SkylineIds(batch))
        << "seed " << seed;
  }
}

TEST(EdcTest, SingleQueryPoint) {
  RoadNetwork network = testing::MakeLineNetwork(6);
  const Dist len = network.EdgeAt(0).length;
  auto workload = testing::MakeWorkload(
      std::move(network), {{0, len * 0.5}, {3, len * 0.5}, {4, len * 0.5}});
  SkylineQuerySpec spec;
  spec.sources = {{0, 0.0}};
  const auto result = RunEdc(workload->dataset(), spec);
  EXPECT_EQ(testing::SkylineIds(result), (std::vector<ObjectId>{0}));
}

TEST(EdcTest, CandidateCountAtLeastSkylineSize) {
  auto workload = testing::MakeRandomWorkload(300, 400, 0.5, 13);
  const auto spec = workload->SampleQuery(4, 4);
  const auto result = RunEdc(workload->dataset(), spec);
  EXPECT_GE(result.stats.candidate_count, result.skyline.size());
}

TEST(EdcTest, IncrementalReportsProgressively) {
  auto workload = testing::MakeRandomWorkload(300, 420, 0.6, 29);
  const auto spec = workload->SampleQuery(3, 5);
  std::size_t reported = 0;
  const auto result =
      RunEdc(workload->dataset(), spec, EdcOptions{.incremental = true},
             [&](const SkylineEntry&) { ++reported; });
  EXPECT_EQ(reported, result.skyline.size());
}

TEST(EdcTest, StaticAttributesSupported) {
  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    auto workload = testing::MakeRandomWorkload(150, 200, 0.5, seed,
                                                /*attr_dims=*/1);
    const auto spec = workload->SampleQuery(2, seed);
    const auto expected = RunNaive(workload->dataset(), spec);
    const auto got = RunEdc(workload->dataset(), spec);
    EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected))
        << "seed " << seed;
  }
}

TEST(EdcTest, DenseNetworkSmallCandidateSet) {
  // On a dense grid, Euclidean and network distances are close (δ small),
  // so EDC's candidate set should stay well below |D|.
  auto workload = testing::MakeRandomWorkload(600, 1100, 1.0, 3);
  const auto spec = workload->SampleQuery(3, 1);
  const auto result = RunEdc(workload->dataset(), spec);
  EXPECT_LT(result.stats.candidate_count, workload->objects().size());
}

// A high-detour instance on which the published algorithm is incomplete
// (see EdcOptions::paper_faithful): a network skyline point that is (a) not
// a Euclidean skyline point and (b) outside every shifted hypercube window
// is never fetched. Construction: object e Euclid-dominates o, but a
// winding road makes e network-far from q2 while o has a fast road — o
// becomes an incomparable network skyline point with dE(o,q1) > dN(e,q1),
// placing it outside e's window.
std::unique_ptr<Workload> MakeDetourWorkload(SkylineQuerySpec* spec) {
  RoadNetwork network;
  const NodeId q1_node = network.AddNode({0.0, 0.0});
  const NodeId pe = network.AddNode({0.1, 0.0});
  const NodeId po = network.AddNode({0.0333, 0.1972});
  const NodeId q2_node = network.AddNode({0.6, 0.0});
  const EdgeId q1_pe = network.AddEdge(q1_node, pe, 0.15);    // winding
  const EdgeId pe_q2 = network.AddEdge(pe, q2_node, 9.85);    // very slow
  const EdgeId q1_po = network.AddEdge(q1_node, po, 0.2);
  network.AddEdge(po, q2_node, 0.6);
  network.Finalize();

  // e at node pe (end of the winding road), o at node po.
  spec->sources = {{q1_pe, 0.0}, {pe_q2, 9.85}};  // at q1_node and q2_node
  return testing::MakeWorkload(std::move(network),
                               {{q1_pe, 0.15}, {q1_po, 0.2}});
}

TEST(EdcTest, KnownLimitationPaperFaithfulMissesIncomparablePoint) {
  SkylineQuerySpec spec;
  auto workload = MakeDetourWorkload(&spec);

  // Ground truth: both objects are network skyline points.
  const auto naive = RunNaive(workload->dataset(), spec);
  ASSERT_EQ(testing::SkylineIds(naive), (std::vector<ObjectId>{0, 1}));

  // The published algorithm misses o (object 1).
  const auto faithful = RunEdc(workload->dataset(), spec,
                               EdcOptions{.paper_faithful = true});
  EXPECT_EQ(testing::SkylineIds(faithful), (std::vector<ObjectId>{0}));

  // The default completion pass restores exactness, in both variants.
  const auto completed = RunEdc(workload->dataset(), spec);
  EXPECT_EQ(testing::SkylineIds(completed), (std::vector<ObjectId>{0, 1}));
  const auto completed_inc = RunEdc(workload->dataset(), spec,
                                    EdcOptions{.incremental = true});
  EXPECT_EQ(testing::SkylineIds(completed_inc),
            (std::vector<ObjectId>{0, 1}));
}

// The completion pass runs FetchUndominatedRegion once (DESIGN.md §4b).
// Both variants must still equal the oracle, and fetch and settle exactly
// what the fixpoint loop they replaced did: the candidate counts and
// settled nodes below were recorded with the loop.
TEST(EdcTest, SingleCompletionPassMatchesNaiveAndFixpointCounts) {
  struct Case {
    std::uint64_t seed;
    double curvature;
    std::size_t attr_dims;
    std::size_t batch_candidates, batch_settled;
    std::size_t inc_candidates, inc_settled;
  };
  const Case kCases[] = {
      // {seed, curvature, attr_dims, batch C, batch settled, inc C, inc
      // settled}; curvature 1.5 stretches roads up to 2.5x (high detour).
      {1, 0.0, 0, 20, 80, 20, 80},
      {2, 0.0, 0, 8, 39, 8, 39},
      {3, 0.0, 0, 3, 7, 3, 7},
      {4, 0.0, 0, 18, 50, 18, 50},
      {5, 0.0, 0, 15, 41, 15, 41},
      {6, 0.0, 0, 30, 161, 30, 161},
      {7, 0.0, 0, 23, 143, 23, 143},
      {8, 0.0, 0, 32, 107, 32, 107},
      {9, 0.0, 0, 27, 225, 27, 225},
      {10, 0.0, 0, 5, 24, 5, 24},
      {11, 0.0, 0, 17, 66, 17, 66},
      {12, 0.0, 0, 36, 184, 36, 184},
      {1, 1.5, 0, 48, 279, 48, 279},
      {2, 1.5, 0, 23, 162, 23, 162},
      {3, 1.5, 0, 6, 26, 6, 26},
      {4, 1.5, 0, 45, 209, 45, 209},
      {5, 1.5, 0, 41, 218, 41, 218},
      {6, 1.5, 0, 49, 257, 42, 226},
      {1, 0.0, 1, 28, 189, 28, 189},
      {2, 0.0, 1, 16, 101, 16, 101},
      {3, 0.0, 1, 9, 153, 8, 147},
      {4, 0.0, 1, 25, 114, 25, 114},
  };
  for (const Case& c : kCases) {
    WorkloadConfig config;
    config.network = NetworkGenConfig{250, 350, c.seed, c.curvature};
    config.object_density = 0.4;
    config.object_seed = c.seed * 31 + 7;
    config.static_attr_dims = c.attr_dims;
    Workload workload(config);
    const auto spec = workload.SampleQuery(3, c.seed);
    const auto expected = RunNaive(workload.dataset(), spec);
    const auto batch = RunEdc(workload.dataset(), spec);
    const auto inc = RunEdc(workload.dataset(), spec,
                            EdcOptions{.incremental = true});
    SCOPED_TRACE(::testing::Message() << "seed " << c.seed << " curvature "
                                    << c.curvature << " attrs "
                                    << c.attr_dims);
    EXPECT_EQ(testing::SkylineIds(batch), testing::SkylineIds(expected));
    EXPECT_EQ(testing::SkylineIds(inc), testing::SkylineIds(expected));
    EXPECT_EQ(batch.stats.candidate_count, c.batch_candidates);
    EXPECT_EQ(batch.stats.counters.settled_nodes, c.batch_settled);
    EXPECT_EQ(inc.stats.candidate_count, c.inc_candidates);
    EXPECT_EQ(inc.stats.counters.settled_nodes, c.inc_settled);
  }

  SkylineQuerySpec spec;
  auto workload = MakeDetourWorkload(&spec);
  const auto batch = RunEdc(workload->dataset(), spec);
  const auto inc = RunEdc(workload->dataset(), spec,
                          EdcOptions{.incremental = true});
  EXPECT_EQ(testing::SkylineIds(batch), (std::vector<ObjectId>{0, 1}));
  EXPECT_EQ(testing::SkylineIds(inc), (std::vector<ObjectId>{0, 1}));
  EXPECT_EQ(batch.stats.candidate_count, 2u);
  EXPECT_EQ(batch.stats.counters.settled_nodes, 4u);
  EXPECT_EQ(inc.stats.candidate_count, 2u);
  EXPECT_EQ(inc.stats.counters.settled_nodes, 4u);
}

TEST(EdcTest, PaperFaithfulOftenExactOnLowDetourNetworks) {
  // The published EDC misses incomparable points on many instances (a
  // seed scan of this configuration shows ~half the seeds losing 1-5
  // skyline points); on these fixed seeds it happens to be exact, which
  // pins the faithful mode's behaviour and its agreement with the oracle
  // when the candidate window suffices.
  for (const std::uint64_t seed : {2, 3, 4}) {
    auto workload = testing::MakeRandomWorkload(400, 1000, 0.5, seed);
    const auto spec = workload->SampleQuery(3, seed);
    const auto expected = RunNaive(workload->dataset(), spec);
    const auto faithful = RunEdc(workload->dataset(), spec,
                                 EdcOptions{.paper_faithful = true});
    EXPECT_EQ(testing::SkylineIds(faithful), testing::SkylineIds(expected))
        << "seed " << seed;
  }
}

TEST(EdcTest, UsesAStarNotFullSweep) {
  // EDC's settled-node count must stay below |Q| full network sweeps.
  auto workload = testing::MakeRandomWorkload(800, 1150, 0.3, 37);
  const auto spec = workload->SampleQuery(3, 6);
  const auto result = RunEdc(workload->dataset(), spec);
  EXPECT_LT(result.stats.counters.settled_nodes,
            3 * workload->network().node_count());
}

}  // namespace
}  // namespace msq
