#include "graph/nn_stream.h"

#include <algorithm>
#include <bit>
#include <memory>

#include <gtest/gtest.h>

#include "gen/network_gen.h"
#include "gen/object_gen.h"
#include "graph/dijkstra.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "testing_support.h"

namespace msq {
namespace {

struct StreamFixture {
  StreamFixture(RoadNetwork n, std::vector<Location> objs)
      : network(std::move(n)),
        graph_buffer(&graph_disk, 512),
        index_buffer(&index_disk, 512),
        pager(&network, &graph_buffer),
        mapping(&network, &index_buffer, objs) {}

  RoadNetwork network;
  InMemoryDiskManager graph_disk, index_disk;
  BufferManager graph_buffer, index_buffer;
  GraphPager pager;
  SpatialMapping mapping;
};

TEST(NetworkNnStreamTest, EmitsAllObjectsAscending) {
  RoadNetwork network = GenerateNetwork({.node_count = 300,
                                         .edge_count = 420,
                                         .seed = 61});
  auto objects = GenerateObjects(network, 80, 17);
  StreamFixture f(std::move(network), objects);

  const Location source{0, 0.0};
  NetworkNnStream stream(&f.pager, &f.mapping, source);
  Dist last = 0.0;
  std::vector<bool> seen(objects.size(), false);
  std::size_t count = 0;
  while (const auto visit = stream.Next()) {
    EXPECT_GE(visit->distance + 1e-12, last);
    EXPECT_FALSE(seen[visit->object]) << "duplicate emission";
    seen[visit->object] = true;
    last = visit->distance;
    ++count;
  }
  EXPECT_EQ(count, objects.size());  // generated network is connected
}

TEST(NetworkNnStreamTest, DistancesMatchDijkstraOracle) {
  RoadNetwork network = GenerateNetwork({.node_count = 200,
                                         .edge_count = 300,
                                         .seed = 67});
  auto objects = GenerateObjects(network, 40, 23);
  StreamFixture f(std::move(network), objects);

  const Location source{5, 0.0};
  NetworkNnStream stream(&f.pager, &f.mapping, source);
  DijkstraSearch oracle(&f.pager, source);
  while (const auto visit = stream.Next()) {
    EXPECT_NEAR(visit->distance, oracle.DistanceTo(objects[visit->object]),
                1e-9)
        << "object " << visit->object;
  }
}

TEST(NetworkNnStreamTest, SourceEdgeObjectsDirect) {
  RoadNetwork network = testing::MakeLineNetwork(4);
  const Dist len = network.EdgeAt(1).length;
  std::vector<Location> objects = {{1, len * 0.9}, {1, len * 0.1}};
  StreamFixture f(std::move(network), objects);

  NetworkNnStream stream(&f.pager, &f.mapping, Location{1, len * 0.2});
  const auto first = stream.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->object, 1u);
  EXPECT_NEAR(first->distance, len * 0.1, 1e-12);
  const auto second = stream.Next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->object, 0u);
  EXPECT_NEAR(second->distance, len * 0.7, 1e-12);
}

TEST(NetworkNnStreamTest, UnreachableObjectsNeverEmitted) {
  RoadNetwork network;
  network.AddNode({0, 0});
  network.AddNode({1, 0});
  network.AddNode({0, 1});
  network.AddNode({1, 1});
  const EdgeId reachable = network.AddEdge(0, 1);
  const EdgeId island = network.AddEdge(2, 3);
  network.Finalize();
  std::vector<Location> objects = {{reachable, 0.5}, {island, 0.5}};
  StreamFixture f(std::move(network), objects);

  NetworkNnStream stream(&f.pager, &f.mapping, Location{reachable, 0.0});
  const auto visit = stream.Next();
  ASSERT_TRUE(visit.has_value());
  EXPECT_EQ(visit->object, 0u);
  EXPECT_FALSE(stream.Next().has_value());
}

TEST(NetworkNnStreamTest, CoLocatedObjectsBothEmitted) {
  RoadNetwork network = testing::MakeLineNetwork(3);
  const Dist len = network.EdgeAt(0).length;
  std::vector<Location> objects = {{0, len * 0.5}, {0, len * 0.5}};
  StreamFixture f(std::move(network), objects);
  NetworkNnStream stream(&f.pager, &f.mapping, Location{0, 0.0});
  const auto a = stream.Next();
  const auto b = stream.Next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NEAR(a->distance, b->distance, 1e-12);
  EXPECT_NE(a->object, b->object);
}

TEST(NetworkNnStreamTest, NoObjects) {
  RoadNetwork network = testing::MakeGridNetwork(3);
  StreamFixture f(std::move(network), {});
  NetworkNnStream stream(&f.pager, &f.mapping, Location{0, 0.0});
  EXPECT_FALSE(stream.Next().has_value());
}

// Distance-tie regression: several objects at exactly the same distance
// (co-located pairs plus a symmetric twin across the source) must emit in
// ascending object id, independent of heap insertion history.
TEST(NetworkNnStreamTest, EqualDistanceTiesEmitInAscendingObjectId) {
  RoadNetwork network = testing::MakeLineNetwork(5);
  const Dist len = network.EdgeAt(0).length;
  // Source mid-network; objects 0..3 all at distance len * 0.5, placed so
  // discovery order (left/right, co-located duplicates) differs from id
  // order.
  const Location source{1, len * 0.5};
  std::vector<Location> objects = {
      {2, 0.0},          // right of source, on node 2: distance len * 0.5
      {1, 0.0},          // left of source, on node 1: distance len * 0.5
      {2, 0.0},          // co-located duplicate of object 0
      {0, len * 1.0},    // on node 1 via edge 0's far end: also len * 0.5
      {3, len * 0.25},   // strictly farther: len * 1.25
  };
  StreamFixture f(std::move(network), objects);
  NetworkNnStream stream(&f.pager, &f.mapping, source);
  std::vector<ObjectId> order;
  while (const auto visit = stream.Next()) order.push_back(visit->object);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 3u);
  EXPECT_EQ(order[4], 4u);
}

// Zero-length offsets put objects exactly on nodes, so emission distances
// coincide exactly with wavefront radii — the boundary where the strict-<
// emission condition must hold an object back until its distance twins are
// all discovered, on both cold and resumed runs.
TEST(NetworkNnStreamTest, ObjectsOnNodesEmitAtRadiusBoundary) {
  RoadNetwork network = testing::MakeLineNetwork(6);
  const Dist len = network.EdgeAt(0).length;
  std::vector<Location> objects = {
      {0, 0.0}, {1, 0.0}, {2, 0.0}, {3, 0.0}, {4, 0.0},
  };
  StreamFixture f(std::move(network), objects);
  NetworkNnStream stream(&f.pager, &f.mapping, Location{0, 0.0});
  std::vector<std::pair<ObjectId, Dist>> emitted;
  while (const auto visit = stream.Next()) {
    emitted.push_back({visit->object, visit->distance});
  }
  ASSERT_EQ(emitted.size(), 5u);
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    EXPECT_EQ(emitted[i].first, static_cast<ObjectId>(i));
    EXPECT_NEAR(emitted[i].second, len * static_cast<double>(i), 1e-12);
  }
}

// A stream resumed from a snapshot must replay the cold emission sequence
// byte for byte — same objects, same order, bitwise-equal distances —
// regardless of where in the stream the snapshot was taken.
TEST(NetworkNnStreamTest, ResumedStreamReplaysColdSequenceExactly) {
  RoadNetwork network = GenerateNetwork({.node_count = 250,
                                         .edge_count = 360,
                                         .seed = 91});
  auto objects = GenerateObjects(network, 60, 29);
  StreamFixture f(std::move(network), objects);
  const Location source{3, 0.0};

  std::vector<std::pair<ObjectId, Dist>> cold;
  {
    NetworkNnStream stream(&f.pager, &f.mapping, source);
    while (const auto visit = stream.Next()) {
      cold.push_back({visit->object, visit->distance});
    }
  }
  ASSERT_FALSE(cold.empty());

  // Snapshot points: untouched, mid-stream, and fully exhausted.
  for (const std::size_t consume : {std::size_t{0}, cold.size() / 2,
                                    cold.size()}) {
    NetworkNnStream warmup(&f.pager, &f.mapping, source);
    for (std::size_t i = 0; i < consume; ++i) warmup.Next();
    const NetworkNnStream::Snapshot snapshot = warmup.MakeSnapshot();
    EXPECT_GT(snapshot.bytes(), 0u);

    NetworkNnStream resumed(&f.pager, &f.mapping, source, &snapshot);
    std::vector<std::pair<ObjectId, Dist>> warm;
    while (const auto visit = resumed.Next()) {
      warm.push_back({visit->object, visit->distance});
    }
    ASSERT_EQ(warm.size(), cold.size()) << "consumed " << consume;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(warm[i].first, cold[i].first) << "position " << i;
      // Bitwise equality: resumed labels are copies of cold labels.
      EXPECT_EQ(warm[i].second, cold[i].second) << "position " << i;
    }
  }
}

// Resuming from a fully exhausted snapshot must not touch the graph pager
// at all: every emission comes from the snapshot's object distances.
TEST(NetworkNnStreamTest, ExhaustedSnapshotResumeReadsNoPages) {
  RoadNetwork network = GenerateNetwork({.node_count = 150,
                                         .edge_count = 210,
                                         .seed = 97});
  auto objects = GenerateObjects(network, 30, 31);
  StreamFixture f(std::move(network), objects);
  const Location source{2, 0.0};

  NetworkNnStream warmup(&f.pager, &f.mapping, source);
  std::size_t cold_count = 0;
  while (warmup.Next()) ++cold_count;
  const NetworkNnStream::Snapshot snapshot = warmup.MakeSnapshot();

  const std::uint64_t accesses_before = f.graph_buffer.stats().accesses();
  NetworkNnStream resumed(&f.pager, &f.mapping, source, &snapshot);
  std::size_t warm_count = 0;
  while (resumed.Next()) ++warm_count;
  EXPECT_EQ(warm_count, cold_count);
  // The only expansion allowed is the final frontier-exhaustion check,
  // which pops nothing new when the snapshot was exhausted; no adjacency
  // page reads should occur.
  EXPECT_EQ(f.graph_buffer.stats().accesses(), accesses_before);
}

// Streams of one query may share a memo of middle-layer lookups: each then
// emits exactly the (distance, id) sequence it emits with a memo of its
// own, while an occupied edge reached by several wavefronts is read from
// the B+-tree once.
TEST(NetworkNnStreamTest, SharedMemoEmitsWhatPrivateMemosEmit) {
  RoadNetwork network = GenerateNetwork({.node_count = 300,
                                         .edge_count = 420,
                                         .seed = 71});
  auto objects = GenerateObjects(network, 120, 29);
  StreamFixture f(std::move(network), objects);
  const std::vector<Location> sources = {
      {0, 0.0}, {57, 0.0}, {133, 0.0}, {301, 0.0}};

  struct Run {
    std::vector<std::vector<NetworkNnStream::Visit>> emitted;
    std::uint64_t index_accesses = 0;
  };
  // Round-robin over the streams until every one is exhausted, as CE does.
  const auto drain = [&](bool shared) {
    f.index_buffer.ResetStats();
    EdgeObjectMemo memo(&f.mapping);
    std::vector<std::unique_ptr<NetworkNnStream>> streams;
    for (const Location& source : sources) {
      streams.push_back(std::make_unique<NetworkNnStream>(
          &f.pager, &f.mapping, source, nullptr, shared ? &memo : nullptr));
    }
    Run run;
    run.emitted.resize(streams.size());
    std::size_t live = streams.size();
    std::vector<bool> done(streams.size(), false);
    while (live > 0) {
      for (std::size_t q = 0; q < streams.size(); ++q) {
        if (done[q]) continue;
        if (const auto visit = streams[q]->Next()) {
          run.emitted[q].push_back(*visit);
        } else {
          done[q] = true;
          --live;
        }
      }
    }
    run.index_accesses = f.index_buffer.stats().accesses();
    return run;
  };

  const Run own = drain(false);
  const Run shared = drain(true);
  for (std::size_t q = 0; q < sources.size(); ++q) {
    ASSERT_EQ(shared.emitted[q].size(), own.emitted[q].size()) << q;
    EXPECT_EQ(own.emitted[q].size(), objects.size()) << q;
    for (std::size_t k = 0; k < own.emitted[q].size(); ++k) {
      EXPECT_EQ(shared.emitted[q][k].object, own.emitted[q][k].object);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(shared.emitted[q][k].distance),
                std::bit_cast<std::uint64_t>(own.emitted[q][k].distance));
    }
  }
  EXPECT_LT(shared.index_accesses, own.index_accesses);
}

}  // namespace
}  // namespace msq
