#include "graph/astar.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/network_gen.h"
#include "graph/dijkstra.h"
#include "graph/landmarks.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "testing_support.h"

namespace msq {
namespace {

struct PagedFixture {
  explicit PagedFixture(RoadNetwork n)
      : network(std::move(n)), buffer(&disk, 512),
        pager(&network, &buffer) {}
  RoadNetwork network;
  InMemoryDiskManager disk;
  BufferManager buffer;
  GraphPager pager;
};

TEST(AStarTest, MatchesDijkstraOnRandomNetwork) {
  PagedFixture f(GenerateNetwork({.node_count = 500,
                                  .edge_count = 750,
                                  .seed = 31}));
  const Location source{3, f.network.EdgeAt(3).length * 0.4};
  DijkstraSearch dijkstra(&f.pager, source);
  AStarSearch astar(&f.pager, source);

  for (EdgeId e = 0; e < f.network.edge_count(); e += 37) {
    const Location target{e, f.network.EdgeAt(e).length * 0.6};
    EXPECT_NEAR(astar.DistanceTo(target), dijkstra.DistanceTo(target), 1e-9)
        << "edge " << e;
  }
}

TEST(AStarTest, SettlesFewerNodesThanDijkstra) {
  PagedFixture f(GenerateNetwork({.node_count = 3000,
                                  .edge_count = 4200,
                                  .seed = 5}));
  const Location source{0, 0.0};
  // A target roughly across the network.
  const Location target{
      static_cast<EdgeId>(f.network.edge_count() - 1), 0.0};

  AStarSearch astar(&f.pager, source);
  astar.DistanceTo(target);
  DijkstraSearch dijkstra(&f.pager, source);
  dijkstra.DistanceTo(target);

  // The directional heuristic must not expand more than plain Dijkstra.
  EXPECT_LE(astar.settled_count(), dijkstra.settled_count());
}

TEST(AStarTest, SameEdgeDirect) {
  PagedFixture f(testing::MakeLineNetwork(4));
  const Dist len = f.network.EdgeAt(1).length;
  AStarSearch astar(&f.pager, Location{1, len * 0.1});
  EXPECT_NEAR(astar.DistanceTo(Location{1, len * 0.8}), len * 0.7, 1e-12);
}

TEST(AStarTest, UnreachableTargetInfinite) {
  RoadNetwork network;
  network.AddNode({0, 0});
  network.AddNode({1, 0});
  network.AddNode({0, 1});
  network.AddNode({1, 1});
  network.AddEdge(0, 1);
  network.AddEdge(2, 3);
  network.Finalize();
  PagedFixture f(std::move(network));
  AStarSearch astar(&f.pager, Location{0, 0.0});
  auto probe = astar.NewProbe(Location{1, 0.0});
  EXPECT_EQ(probe.Run(), kInfDist);
  EXPECT_TRUE(probe.done());
  EXPECT_EQ(probe.plb(), kInfDist);
}

TEST(AStarTest, PlbStartsAtEuclideanDistance) {
  PagedFixture f(testing::MakeGridNetwork(6));
  const Location source{0, 0.0};
  const EdgeId last_edge = static_cast<EdgeId>(f.network.edge_count() - 1);
  const Location target{last_edge, f.network.EdgeAt(last_edge).length};
  AStarSearch astar(&f.pager, source);
  auto probe = astar.NewProbe(target);
  const Dist euclid =
      EuclideanDistance(f.network.LocationPosition(source),
                        f.network.LocationPosition(target));
  EXPECT_NEAR(probe.plb(), euclid, 1e-12);
}

TEST(AStarTest, PlbMonotoneNonDecreasingAndBelowDistance) {
  PagedFixture f(GenerateNetwork({.node_count = 800,
                                  .edge_count = 1100,
                                  .seed = 77}));
  const Location source{0, 0.0};
  const Location target{static_cast<EdgeId>(f.network.edge_count() / 2),
                        0.0};
  AStarSearch oracle(&f.pager, source);
  const Dist true_dist = oracle.DistanceTo(target);

  AStarSearch astar(&f.pager, source);
  auto probe = astar.NewProbe(target);
  Dist last = probe.plb();
  while (!probe.done()) {
    const Dist plb = probe.Advance();
    EXPECT_GE(plb + 1e-9, last);
    EXPECT_LE(plb, true_dist + 1e-9);
    last = plb;
  }
  EXPECT_NEAR(probe.distance(), true_dist, 1e-9);
  EXPECT_NEAR(probe.plb(), true_dist, 1e-9);
}

TEST(AStarTest, LabelReuseAcrossTargets) {
  PagedFixture f(testing::MakeGridNetwork(10));
  AStarSearch astar(&f.pager, Location{0, 0.0});
  astar.DistanceTo(Location{50, 0.0});
  const std::size_t settled_first = astar.settled_count();
  // A second target in the already-expanded region costs nothing new.
  astar.DistanceTo(Location{0, 0.0});
  EXPECT_EQ(astar.settled_count(), settled_first);
}

TEST(AStarTest, InterleavedProbesShareLabelsAndStayExact) {
  PagedFixture f(GenerateNetwork({.node_count = 600,
                                  .edge_count = 900,
                                  .seed = 41}));
  const Location source{0, 0.0};
  DijkstraSearch oracle(&f.pager, source);

  AStarSearch astar(&f.pager, source);
  const Location t1{100, 0.0};
  const Location t2{400, 0.0};
  const Location t3{700, 0.0};
  auto p1 = astar.NewProbe(t1);
  auto p2 = astar.NewProbe(t2);
  auto p3 = astar.NewProbe(t3);

  // Round-robin single steps until all done — the LBC access pattern.
  while (!p1.done() || !p2.done() || !p3.done()) {
    p1.Advance();
    p2.Advance();
    p3.Advance();
  }
  EXPECT_NEAR(p1.distance(), oracle.DistanceTo(t1), 1e-9);
  EXPECT_NEAR(p2.distance(), oracle.DistanceTo(t2), 1e-9);
  EXPECT_NEAR(p3.distance(), oracle.DistanceTo(t3), 1e-9);
}

TEST(AStarTest, ProbeAfterCompletedProbeUsesSettledRegion) {
  PagedFixture f(testing::MakeGridNetwork(12));
  AStarSearch astar(&f.pager, Location{0, 0.0});
  astar.DistanceTo(Location{30, 0.0});
  const std::size_t settled = astar.settled_count();

  // New probe toward a target within the settled region: done without any
  // extra expansion.
  auto probe = astar.NewProbe(Location{0, 0.0});
  probe.Run();
  EXPECT_EQ(astar.settled_count(), settled);
}

TEST(AStarTest, AdvanceIdempotentWhenDone) {
  PagedFixture f(testing::MakeLineNetwork(3));
  AStarSearch astar(&f.pager, Location{0, 0.0});
  auto probe = astar.NewProbe(Location{1, 0.0});
  const Dist d = probe.Run();
  const Dist plb_done = probe.plb();
  EXPECT_EQ(probe.Advance(), plb_done);
  EXPECT_EQ(probe.distance(), d);
}

TEST(AStarTest, ManyTargetsMatchReference) {
  PagedFixture f(GenerateNetwork({.node_count = 400,
                                  .edge_count = 520,
                                  .seed = 53}));
  const Location source{7, 0.0};
  DijkstraSearch oracle(&f.pager, source);
  AStarSearch astar(&f.pager, source);
  for (EdgeId e = 0; e < f.network.edge_count(); e += 11) {
    const Location target{e, f.network.EdgeAt(e).length * 0.5};
    EXPECT_NEAR(astar.DistanceTo(target), oracle.DistanceTo(target), 1e-9);
  }
}

// Two live probes on one search, advanced alternately toward different
// targets, so every step re-keys the shared frontier for the other target.
// Successive pairs start from the frontier the previous pair left behind.
void CheckAlternatingProbes(const PagedFixture& f,
                            const LandmarkIndex* landmarks) {
  const Location source{5, f.network.EdgeAt(5).length * 0.3};
  DijkstraSearch oracle(&f.pager, source);
  AStarSearch astar(&f.pager, source, landmarks);
  Rng rng(97);
  for (int pair = 0; pair < 12; ++pair) {
    Location targets[2];
    for (Location& target : targets) {
      const auto edge =
          static_cast<EdgeId>(rng.NextBounded(f.network.edge_count()));
      target = Location{edge, f.network.EdgeAt(edge).length *
                                  rng.NextDouble()};
    }
    const Dist truth[2] = {oracle.DistanceTo(targets[0]),
                           oracle.DistanceTo(targets[1])};
    AStarSearch::Probe probes[2] = {astar.NewProbe(targets[0]),
                                    astar.NewProbe(targets[1])};
    Dist last[2] = {probes[0].plb(), probes[1].plb()};
    while (!probes[0].done() || !probes[1].done()) {
      for (int i = 0; i < 2; ++i) {
        const Dist plb = probes[i].Advance();
        EXPECT_GE(plb + 1e-9, last[i]) << "pair " << pair << " probe " << i;
        EXPECT_LE(plb, truth[i] + 1e-9) << "pair " << pair << " probe " << i;
        last[i] = plb;
      }
    }
    for (int i = 0; i < 2; ++i) {
      EXPECT_NEAR(probes[i].distance(), truth[i], 1e-9)
          << "pair " << pair << " probe " << i;
    }
  }
}

TEST(AStarTest, AlternatingProbesOnOneSearchMatchDijkstra) {
  PagedFixture f(GenerateNetwork({.node_count = 900,
                                  .edge_count = 1300,
                                  .seed = 61}));
  CheckAlternatingProbes(f, nullptr);
}

TEST(AStarTest, AlternatingProbesWithLandmarksMatchDijkstra) {
  PagedFixture f(GenerateNetwork({.node_count = 900,
                                  .edge_count = 1300,
                                  .seed = 61}));
  const LandmarkIndex landmarks(&f.network, 4);
  CheckAlternatingProbes(f, &landmarks);
}

// A long run of probes toward random targets on one search, some abandoned
// part-way (as LBC abandons dominated candidates), each completed one
// checked against a fresh search for its target alone.
TEST(AStarTest, RandomTargetSequenceMatchesFreshSearches) {
  PagedFixture f(GenerateNetwork({.node_count = 700,
                                  .edge_count = 1000,
                                  .seed = 67}));
  const Location source{11, f.network.EdgeAt(11).length * 0.5};
  AStarSearch astar(&f.pager, source);
  Rng rng(71);
  for (int step = 0; step < 300; ++step) {
    const auto edge =
        static_cast<EdgeId>(rng.NextBounded(f.network.edge_count()));
    const Location target{edge, f.network.EdgeAt(edge).length *
                                    rng.NextDouble()};
    auto probe = astar.NewProbe(target);
    if (rng.NextBounded(4) == 0) {
      for (std::uint64_t n = rng.NextBounded(20); n > 0; --n) probe.Advance();
      if (!probe.done()) continue;
    }
    AStarSearch fresh(&f.pager, source);
    EXPECT_NEAR(probe.Run(), fresh.DistanceTo(target), 1e-9)
        << "step " << step;
  }
}

}  // namespace
}  // namespace msq
