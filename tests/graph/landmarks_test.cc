#include "graph/landmarks.h"

#include <cmath>
#include <queue>
#include <set>

#include <gtest/gtest.h>

#include "core/lbc.h"
#include "core/naive.h"
#include "gen/network_gen.h"
#include "graph/astar.h"
#include "graph/dijkstra.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "testing_support.h"

namespace msq {
namespace {

std::vector<Dist> NodeDistances(const RoadNetwork& network, NodeId from) {
  std::vector<Dist> dist(network.node_count(), kInfDist);
  using Item = std::pair<Dist, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    const auto [d, node] = heap.top();
    heap.pop();
    if (d > dist[node]) continue;
    for (const AdjacencyEntry& adj : network.Adjacent(node)) {
      const Dist nd = d + adj.length;
      if (nd < dist[adj.neighbor]) {
        dist[adj.neighbor] = nd;
        heap.emplace(nd, adj.neighbor);
      }
    }
  }
  return dist;
}

TEST(LandmarkIndexTest, DistancesAreExact) {
  const RoadNetwork network = GenerateNetwork({.node_count = 300,
                                               .edge_count = 420,
                                               .seed = 5});
  const LandmarkIndex index(&network, 4);
  ASSERT_EQ(index.landmark_count(), 4u);
  for (std::size_t i = 0; i < index.landmark_count(); ++i) {
    const auto expected = NodeDistances(network, index.landmark(i));
    for (NodeId v = 0; v < network.node_count(); v += 17) {
      EXPECT_NEAR(index.LandmarkDistance(i, v), expected[v], 1e-9);
    }
  }
}

TEST(LandmarkIndexTest, LandmarksAreDistinctAndSpread) {
  const RoadNetwork network = GenerateNetwork({.node_count = 500,
                                               .edge_count = 700,
                                               .seed = 7});
  const LandmarkIndex index(&network, 6);
  std::set<NodeId> distinct;
  for (std::size_t i = 0; i < index.landmark_count(); ++i) {
    distinct.insert(index.landmark(i));
  }
  EXPECT_EQ(distinct.size(), index.landmark_count());
}

TEST(LandmarkIndexTest, LowerBoundNeverExceedsTrueDistance) {
  // Curved network so Euclidean and landmark bounds differ noticeably.
  const RoadNetwork network = GenerateNetwork({.node_count = 300,
                                               .edge_count = 360,
                                               .seed = 11,
                                               .curvature = 0.8});
  const LandmarkIndex index(&network, 5);
  const auto truth = NodeDistances(network, 0);
  const Location target{0, 0.0};  // on an edge incident to... any edge
  const auto& edge0 = network.EdgeAt(0);
  for (NodeId v = 0; v < network.node_count(); v += 7) {
    const Dist true_dist =
        std::min(truth[edge0.u] /* to offset 0 == node u */,
                 truth[edge0.v] + edge0.length);
    (void)true_dist;
    const Dist lb = index.LowerBound(v, target);
    // dN(v, target) computed from v's perspective:
    const auto from_v = NodeDistances(network, v);
    const Dist exact = std::min(from_v[edge0.u], from_v[edge0.v] + edge0.length);
    EXPECT_LE(lb, exact + 1e-9) << "node " << v;
  }
}

TEST(LandmarkIndexTest, LocationLowerBoundValid) {
  const RoadNetwork network = GenerateNetwork({.node_count = 200,
                                               .edge_count = 260,
                                               .seed = 13,
                                               .curvature = 0.5});
  const LandmarkIndex index(&network, 4);

  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 512);
  GraphPager pager(&network, &buffer);
  for (EdgeId e = 0; e < network.edge_count(); e += 23) {
    const Location a{0, 0.0};
    const Location b{e, network.EdgeAt(e).length * 0.5};
    DijkstraSearch oracle(&pager, a);
    const Dist exact = oracle.DistanceTo(b);
    if (!std::isfinite(exact)) continue;
    EXPECT_LE(index.LowerBound(a, b), exact + 1e-9) << "edge " << e;
  }
}

TEST(LandmarkIndexTest, TighterThanEuclideanOnCurvedNetwork) {
  const RoadNetwork network = GenerateNetwork({.node_count = 400,
                                               .edge_count = 480,
                                               .seed = 17,
                                               .curvature = 1.0});
  const LandmarkIndex index(&network, 8);
  std::size_t tighter = 0, total = 0;
  for (EdgeId e = 5; e < network.edge_count(); e += 29) {
    const Location a{0, 0.0};
    const Location b{e, 0.0};
    const Dist euclid = EuclideanDistance(network.LocationPosition(a),
                                          network.LocationPosition(b));
    if (index.LowerBound(a, b) > euclid + 1e-12) ++tighter;
    ++total;
  }
  // With curvature 1.0 the landmark bound should usually beat Euclidean.
  EXPECT_GT(tighter * 2, total);
}

TEST(LandmarkIndexTest, DisconnectedComponentsHandled) {
  RoadNetwork network;
  network.AddNode({0, 0});
  network.AddNode({0.3, 0});
  network.AddNode({0.7, 0});
  network.AddNode({1.0, 0});
  network.AddEdge(0, 1);
  network.AddEdge(2, 3);
  network.Finalize();
  const LandmarkIndex index(&network, 4);
  EXPECT_GE(index.landmark_count(), 1u);
  // Bound between disconnected locations must still be a valid lower
  // bound of infinity — any finite value qualifies; just must not crash.
  EXPECT_GE(index.LowerBound(Location{0, 0.0}, Location{1, 0.0}), 0.0);
}

TEST(LandmarkIndexTest, AStarWithLandmarksExactAndCheaper) {
  const RoadNetwork network = GenerateNetwork({.node_count = 1500,
                                               .edge_count = 1800,
                                               .seed = 19,
                                               .curvature = 0.8});
  const LandmarkIndex index(&network, 8);
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 1024);
  GraphPager pager(&network, &buffer);

  const Location source{0, 0.0};
  std::size_t plain_settled = 0, alt_settled = 0;
  for (EdgeId e = 100; e < network.edge_count(); e += 171) {
    const Location target{e, 0.0};
    AStarSearch plain(&pager, source);
    AStarSearch alt(&pager, source, &index);
    EXPECT_NEAR(alt.DistanceTo(target), plain.DistanceTo(target), 1e-9);
    plain_settled += plain.settled_count();
    alt_settled += alt.settled_count();
  }
  // The tighter heuristic can only reduce expansions (same tie-breaking).
  EXPECT_LE(alt_settled, plain_settled);
}

TEST(LandmarkIndexTest, LbcWithLandmarksMatchesOracle) {
  WorkloadConfig config;
  config.network = NetworkGenConfig{400, 480, 23, 0.8, 0.0};
  config.object_density = 0.5;
  config.landmark_count = 8;
  Workload workload(config);
  ASSERT_NE(workload.landmarks(), nullptr);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto spec = workload.SampleQuery(3, seed);
    const auto expected = RunNaive(workload.dataset(), spec);
    const auto got = RunLbc(workload.dataset(), spec);
    EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(expected))
        << "seed " << seed;
  }
}

TEST(LandmarkIndexTest, LandmarksReduceLbcNetworkAccess) {
  // On a high-detour network the ALT bounds terminate plb screening
  // earlier than Euclidean bounds.
  WorkloadConfig with;
  with.network = NetworkGenConfig{800, 960, 29, 1.0, 0.0};
  with.object_density = 0.5;
  with.landmark_count = 8;
  Workload workload_with(with);

  WorkloadConfig without = with;
  without.landmark_count = 0;
  Workload workload_without(without);

  std::size_t settled_with = 0, settled_without = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto spec_w = workload_with.SampleQuery(4, seed);
    const auto spec_wo = workload_without.SampleQuery(4, seed);
    workload_with.ResetBuffers();
    settled_with +=
        RunLbc(workload_with.dataset(), spec_w).stats.counters.settled_nodes;
    workload_without.ResetBuffers();
    settled_without += RunLbc(workload_without.dataset(), spec_wo)
                           .stats.counters.settled_nodes;
  }
  EXPECT_LT(settled_with, settled_without);
}

}  // namespace
}  // namespace msq
