#include "graph/dijkstra.h"

#include <queue>

#include <gtest/gtest.h>

#include "gen/network_gen.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "testing_support.h"

namespace msq {
namespace {

// Reference all-distances Dijkstra from a location, on the in-memory
// adjacency (independent of the paged code under test).
std::vector<Dist> ReferenceDistances(const RoadNetwork& network,
                                     const Location& source) {
  std::vector<Dist> dist(network.node_count(), kInfDist);
  using Item = std::pair<Dist, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const auto& e = network.EdgeAt(source.edge);
  const auto [du, dv] = network.EndpointDistances(source);
  dist[e.u] = du;
  dist[e.v] = dv;
  heap.emplace(du, e.u);
  heap.emplace(dv, e.v);
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

struct PagedFixture {
  explicit PagedFixture(RoadNetwork n)
      : network(std::move(n)), buffer(&disk, 512),
        pager(&network, &buffer) {}
  RoadNetwork network;
  InMemoryDiskManager disk;
  BufferManager buffer;
  GraphPager pager;
};

TEST(DijkstraTest, LineNetworkDistances) {
  PagedFixture f(testing::MakeLineNetwork(5));
  // Source at the middle of edge 0 (between nodes 0 and 1).
  const Dist len = f.network.EdgeAt(0).length;
  DijkstraSearch search(&f.pager, Location{0, len / 2});
  EXPECT_DOUBLE_EQ(search.DistanceTo(Location{3, 0.0}), len / 2 + 2 * len);
}

TEST(DijkstraTest, SettlesInAscendingOrder) {
  PagedFixture f(testing::MakeGridNetwork(6));
  DijkstraSearch search(&f.pager, Location{0, 0.0});
  Dist last = 0.0;
  std::size_t count = 0;
  while (const auto settled = search.NextSettled()) {
    EXPECT_GE(settled->distance + 1e-12, last);
    last = settled->distance;
    ++count;
  }
  EXPECT_EQ(count, f.network.node_count());
}

TEST(DijkstraTest, MatchesReferenceOnRandomNetwork) {
  PagedFixture f(GenerateNetwork({.node_count = 400,
                                  .edge_count = 600,
                                  .seed = 17}));
  const Location source{5, f.network.EdgeAt(5).length * 0.3};
  const auto expected = ReferenceDistances(f.network, source);

  DijkstraSearch search(&f.pager, source);
  while (search.NextSettled().has_value()) {
  }
  for (NodeId node = 0; node < f.network.node_count(); ++node) {
    EXPECT_NEAR(search.Label(node), expected[node], 1e-9) << "node " << node;
    EXPECT_TRUE(search.IsSettled(node));
  }
}

// Each settle hands out the adjacency list it decoded to expand the node:
// the same list the pager returns, read with one page access.
TEST(DijkstraTest, SettledCarriesItsDecodedAdjacency) {
  PagedFixture f(GenerateNetwork({.node_count = 300,
                                  .edge_count = 450,
                                  .seed = 23}));
  DijkstraSearch search(&f.pager, Location{3, 0.0});
  std::vector<AdjacencyEntry> want;
  for (;;) {
    f.buffer.ResetStats();
    const auto settled = search.NextSettled();
    if (!settled.has_value()) break;
    ASSERT_EQ(f.buffer.stats().accesses(), 1u);
    ASSERT_TRUE(f.pager.AdjacencyOf(settled->node, &want).ok());
    ASSERT_EQ(settled->adjacency.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(settled->adjacency[k].neighbor, want[k].neighbor);
      EXPECT_EQ(settled->adjacency[k].edge, want[k].edge);
      EXPECT_EQ(settled->adjacency[k].length, want[k].length);
    }
  }
  EXPECT_EQ(search.settled_count(), f.network.node_count());
}

TEST(DijkstraTest, RadiusIsLowerBoundOnUnsettled) {
  PagedFixture f(testing::MakeGridNetwork(5));
  DijkstraSearch search(&f.pager, Location{0, 0.0});
  for (int i = 0; i < 10; ++i) {
    const Dist radius = search.Radius();
    const auto settled = search.NextSettled();
    ASSERT_TRUE(settled.has_value());
    EXPECT_DOUBLE_EQ(settled->distance, radius);
  }
}

TEST(DijkstraTest, SameEdgeDirectDistance) {
  PagedFixture f(testing::MakeLineNetwork(3));
  const Dist len = f.network.EdgeAt(0).length;
  DijkstraSearch search(&f.pager, Location{0, len * 0.2});
  EXPECT_NEAR(search.DistanceTo(Location{0, len * 0.9}), len * 0.7, 1e-12);
}

TEST(DijkstraTest, SameEdgeMayBeBeatenByDetour) {
  // Triangle where the direct edge is long but a two-hop path is shorter:
  // u--v direct length 10 (curved road), u--w--v total 2.4.
  RoadNetwork network;
  const NodeId u = network.AddNode({0, 0});
  const NodeId v = network.AddNode({1, 0});
  const NodeId w = network.AddNode({0.5, 0.1});
  const EdgeId direct = network.AddEdge(u, v, 10.0);
  network.AddEdge(u, w, 1.2);
  network.AddEdge(w, v, 1.2);
  network.Finalize();
  PagedFixture f(std::move(network));

  // From one end of the long edge to the other: going around is shorter
  // than walking the curved edge end-to-end.
  DijkstraSearch search(&f.pager, Location{direct, 0.0});
  EXPECT_NEAR(search.DistanceTo(Location{direct, 10.0}), 2.4, 1e-12);
}

TEST(DijkstraTest, UnreachableTargetIsInfinite) {
  RoadNetwork network;
  network.AddNode({0, 0});
  network.AddNode({1, 0});
  network.AddNode({0, 1});
  network.AddNode({1, 1});
  network.AddEdge(0, 1);
  network.AddEdge(2, 3);
  network.Finalize();
  PagedFixture f(std::move(network));

  DijkstraSearch search(&f.pager, Location{0, 0.0});
  EXPECT_EQ(search.DistanceTo(Location{1, 0.0}), kInfDist);
}

TEST(DijkstraTest, ResumableAcrossDistanceCalls) {
  PagedFixture f(testing::MakeGridNetwork(8));
  DijkstraSearch search(&f.pager, Location{0, 0.0});
  const Dist d1 = search.DistanceTo(Location{3, 0.0});
  const std::size_t settled_after_first = search.settled_count();
  // Second, nearer target must not grow the settled set.
  const Dist d2 = search.DistanceTo(Location{0, 0.0});
  EXPECT_EQ(search.settled_count(), settled_after_first);
  EXPECT_LE(d2, d1);
}

TEST(DijkstraTest, SettledCountTracksExpansion) {
  PagedFixture f(testing::MakeGridNetwork(4));
  DijkstraSearch search(&f.pager, Location{0, 0.0});
  EXPECT_EQ(search.settled_count(), 0u);
  search.NextSettled();
  search.NextSettled();
  EXPECT_EQ(search.settled_count(), 2u);
}

TEST(DijkstraTest, MultipleTargetsOneTraversal) {
  PagedFixture f(GenerateNetwork({.node_count = 300,
                                  .edge_count = 450,
                                  .seed = 23}));
  const Location source{0, 0.0};
  const auto expected = ReferenceDistances(f.network, source);
  DijkstraSearch search(&f.pager, source);
  // Query several targets in arbitrary order; each must be exact.
  for (const EdgeId e : {EdgeId{10}, EdgeId{200}, EdgeId{40}, EdgeId{399}}) {
    const auto& edge = f.network.EdgeAt(e);
    const Dist got = search.DistanceTo(Location{e, 0.0});
    EXPECT_NEAR(got, expected[edge.u], 1e-9);
  }
}

// A search resumed from a mid-expansion checkpoint must settle the exact
// same remaining sequence — same nodes, same order, bitwise-equal
// distances — as the cold search it was taken from. Distance ties are the
// hazard: the (dist, id) heap tie-break must make settle order independent
// of insertion history, which a checkpoint reshuffles.
TEST(DijkstraTest, CheckpointResumeReplaysSettleSequence) {
  // Grid networks maximize equal-distance plateaus.
  PagedFixture f(testing::MakeGridNetwork(8));
  const Location source{0, 0.0};

  std::vector<DijkstraSearch::Settled> cold;
  {
    DijkstraSearch search(&f.pager, source);
    while (const auto settled = search.NextSettled()) {
      cold.push_back(*settled);
    }
  }
  ASSERT_EQ(cold.size(), f.network.node_count());

  for (const std::size_t consume : {std::size_t{0}, cold.size() / 3,
                                    cold.size() - 1, cold.size()}) {
    DijkstraSearch warmup(&f.pager, source);
    for (std::size_t i = 0; i < consume; ++i) warmup.NextSettled();
    const DijkstraSearch::Checkpoint checkpoint = warmup.MakeCheckpoint();
    EXPECT_EQ(checkpoint.settled_count, consume);
    EXPECT_GT(checkpoint.bytes(), 0u);

    DijkstraSearch resumed(&f.pager, source, checkpoint);
    EXPECT_EQ(resumed.settled_count(), consume);
    std::size_t at = consume;
    while (const auto settled = resumed.NextSettled()) {
      ASSERT_LT(at, cold.size());
      EXPECT_EQ(settled->node, cold[at].node) << "position " << at;
      EXPECT_EQ(settled->distance, cold[at].distance) << "position " << at;
      ++at;
    }
    EXPECT_EQ(at, cold.size()) << "consumed " << consume;
  }
}

// Labels of already-settled nodes survive a checkpoint round trip, so
// DistanceTo on a resumed search answers from the copied labels.
TEST(DijkstraTest, CheckpointPreservesLabels) {
  PagedFixture f(GenerateNetwork({.node_count = 200,
                                  .edge_count = 300,
                                  .seed = 41}));
  const Location source{2, 0.0};
  DijkstraSearch search(&f.pager, source);
  while (search.NextSettled()) {
  }
  const DijkstraSearch::Checkpoint checkpoint = search.MakeCheckpoint();

  DijkstraSearch resumed(&f.pager, source, checkpoint);
  for (NodeId node = 0; node < f.network.node_count(); ++node) {
    EXPECT_EQ(resumed.IsSettled(node), search.IsSettled(node));
    EXPECT_EQ(resumed.Label(node), search.Label(node));
  }
}

}  // namespace
}  // namespace msq
