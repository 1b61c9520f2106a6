// Reproductions of the paper's didactic configurations.
//
// Figure 1 (CE): two query points, five objects; p1 is the first object
// visited by all query points and the first skyline point; p4, beyond both
// circles, is never a candidate.
//
// Figure 2 (EDC): Euclidean skyline points are shifted by their network
// distances and the shifted hypercube fetches candidates that can dominate
// them.
//
// The figures are drawn in free space; we realize them on a dense grid
// network where network distances approximate the drawn geometry, then
// assert the structural claims the paper makes about each algorithm.
#include <gtest/gtest.h>

#include "core/ce.h"
#include "core/edc.h"
#include "core/lbc.h"
#include "core/naive.h"
#include "testing_support.h"

namespace msq {
namespace {

// Builds a 9x9 grid network and snaps the given planar points onto it as
// objects, returning the workload.
struct FigureWorld {
  explicit FigureWorld(const std::vector<Point>& object_points) {
    RoadNetwork network = testing::MakeGridNetwork(9);
    std::vector<Location> objects;
    for (const Point& p : object_points) {
      objects.push_back(SnapToNearestEdge(network, p));
    }
    workload = testing::MakeWorkload(std::move(network), objects);
  }

  static Location SnapToNearestEdge(const RoadNetwork& network,
                                    const Point& p) {
    EdgeId best_edge = 0;
    Dist best = kInfDist;
    for (EdgeId e = 0; e < network.edge_count(); ++e) {
      const Dist d = network.EdgeSegment(e).DistanceTo(p);
      if (d < best) {
        best = d;
        best_edge = e;
      }
    }
    return network.SnapToEdge(best_edge, p);
  }

  Location Snap(const Point& p) const {
    return SnapToNearestEdge(workload->network(), p);
  }

  std::unique_ptr<Workload> workload;
};

// Figure 1's layout (coordinates eyeballed from the figure, scaled into
// the unit square): q1 left, q2 right; p1 between them; p2, p3, p5 nearer
// to one query point; p4 far beyond q1's circle.
class Figure1Test : public ::testing::Test {
 protected:
  Figure1Test()
      : world_({{0.50, 0.45},    // p1: central, first common visit
                {0.55, 0.70},    // p2
                {0.60, 0.30},    // p3
                {0.05, 0.95},    // p4: far outside both circles
                {0.30, 0.75}}),  // p5
        spec_() {
    spec_.sources = {world_.Snap({0.25, 0.5}), world_.Snap({0.75, 0.5})};
  }

  FigureWorld world_;
  SkylineQuerySpec spec_;
};

TEST_F(Figure1Test, FirstReportedSkylineIsFirstCommonVisit) {
  std::vector<ObjectId> reported;
  RunCe(world_.workload->dataset(), spec_,
        [&](const SkylineEntry& e) { reported.push_back(e.object); });
  ASSERT_FALSE(reported.empty());
  EXPECT_EQ(reported.front(), 0u);  // p1
}

TEST_F(Figure1Test, FarObjectNeverACandidate) {
  // p4 is dominated by p1 and outside both search circles when the
  // filtering phase ends; CE's candidate set must exclude it, so |C| < |D|.
  const auto result = RunCe(world_.workload->dataset(), spec_);
  EXPECT_LT(result.stats.candidate_count, 5u);
  // And p4 is not in the skyline.
  for (const ObjectId id : testing::SkylineIds(result)) {
    EXPECT_NE(id, 3u);
  }
}

TEST_F(Figure1Test, AllAlgorithmsAgreeWithOracle) {
  const auto expected = RunNaive(world_.workload->dataset(), spec_);
  EXPECT_EQ(testing::SkylineIds(RunCe(world_.workload->dataset(), spec_)),
            testing::SkylineIds(expected));
  EXPECT_EQ(testing::SkylineIds(RunEdc(world_.workload->dataset(), spec_)),
            testing::SkylineIds(expected));
  EXPECT_EQ(testing::SkylineIds(RunLbc(world_.workload->dataset(), spec_)),
            testing::SkylineIds(expected));
}

// Figure 2/3-style configuration: a candidate that is not a Euclidean
// skyline point must still be found as a network skyline point when
// detours make the Euclidean skyline point worse in network distance.
TEST(Figure2Test, NetworkSkylineNotSubsetOfEuclideanSkyline) {
  // A ladder network where the straight rung between the query points is
  // replaced by a long curved road (length clamp exploited via explicit
  // lengths), so the Euclidean-closest object sits on a slow road.
  RoadNetwork network;
  const NodeId a = network.AddNode({0.0, 0.5});
  const NodeId b = network.AddNode({0.5, 0.5});
  const NodeId c = network.AddNode({1.0, 0.5});
  const NodeId d = network.AddNode({0.5, 0.9});
  // Slow direct roads a-b, b-c (length 5x Euclidean), fast detour via d.
  const EdgeId ab = network.AddEdge(a, b, 2.5);
  const EdgeId bc = network.AddEdge(b, c, 2.5);
  network.AddEdge(a, d, 0.65);
  network.AddEdge(d, c, 0.65);
  network.Finalize();

  // Object 0 on the slow road at the exact Euclidean midpoint; object 1 on
  // the fast detour.
  const Dist ad_len = network.EdgeAt(2).length;
  auto workload = testing::MakeWorkload(
      std::move(network), {{ab, 2.5}, {2, ad_len * 0.99}});
  SkylineQuerySpec spec;
  spec.sources = {{ab, 0.0}, {bc, 2.5}};  // at nodes a and c

  // Euclidean skyline: object 0 (midpoint) dominates nothing; both may be
  // Euclidean skyline. But in network distance the detour object is far
  // better to both; object 0's vector is (2.5, 2.5) vs object 1's
  // (~0.64, ~0.66): object 0 is dominated in network space.
  const auto naive = RunNaive(workload->dataset(), spec);
  EXPECT_EQ(testing::SkylineIds(naive), (std::vector<ObjectId>{1}));
  EXPECT_EQ(testing::SkylineIds(RunEdc(workload->dataset(), spec)),
            (std::vector<ObjectId>{1}));
  EXPECT_EQ(testing::SkylineIds(RunLbc(workload->dataset(), spec)),
            (std::vector<ObjectId>{1}));
  EXPECT_EQ(testing::SkylineIds(RunCe(workload->dataset(), spec)),
            (std::vector<ObjectId>{1}));
}

// Section 5 / Figure 3: N(LBC) <= N(CE) — the network nodes accessed by
// LBC are a subset of CE's.
TEST(Figure3Test, LbcNetworkAccessAtMostCe) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto workload = testing::MakeRandomWorkload(600, 840, 0.5, seed);
    const auto spec = workload->SampleQuery(3, seed);
    const auto lbc = RunLbc(workload->dataset(), spec);
    const auto ce = RunCe(workload->dataset(), spec);
    EXPECT_LE(lbc.stats.counters.settled_nodes, ce.stats.counters.settled_nodes)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace msq
