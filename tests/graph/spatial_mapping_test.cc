#include "graph/spatial_mapping.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/workloads.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "testing_support.h"

namespace msq {
namespace {

class SpatialMappingTest : public ::testing::Test {
 protected:
  SpatialMappingTest()
      : network_(testing::MakeGridNetwork(4)), buffer_(&disk_, 256) {}

  RoadNetwork network_;
  InMemoryDiskManager disk_;
  BufferManager buffer_;
};

TEST_F(SpatialMappingTest, ObjectsOnTheirEdges) {
  const Dist len = network_.EdgeAt(0).length;
  std::vector<Location> objects = {
      {0, len * 0.25}, {0, len * 0.75}, {3, len * 0.5}};
  SpatialMapping mapping(&network_, &buffer_, objects);
  EXPECT_EQ(mapping.object_count(), 3u);

  std::vector<EdgeObject> on_edge;
  mapping.ObjectsOnEdge(0, &on_edge);
  ASSERT_EQ(on_edge.size(), 2u);
  std::sort(on_edge.begin(), on_edge.end(),
            [](const EdgeObject& a, const EdgeObject& b) {
              return a.dist_u < b.dist_u;
            });
  EXPECT_EQ(on_edge[0].object, 0u);
  EXPECT_DOUBLE_EQ(on_edge[0].dist_u, len * 0.25);
  EXPECT_DOUBLE_EQ(on_edge[0].dist_v, len * 0.75);
  EXPECT_EQ(on_edge[1].object, 1u);

  on_edge.clear();
  mapping.ObjectsOnEdge(1, &on_edge);
  EXPECT_TRUE(on_edge.empty());
}

TEST_F(SpatialMappingTest, EndpointDistancesSumToLength) {
  std::vector<Location> objects;
  for (EdgeId e = 0; e < network_.edge_count(); ++e) {
    objects.push_back({e, network_.EdgeAt(e).length * 0.3});
  }
  SpatialMapping mapping(&network_, &buffer_, objects);
  std::vector<EdgeObject> on_edge;
  for (EdgeId e = 0; e < network_.edge_count(); ++e) {
    on_edge.clear();
    mapping.ObjectsOnEdge(e, &on_edge);
    ASSERT_EQ(on_edge.size(), 1u);
    EXPECT_NEAR(on_edge[0].dist_u + on_edge[0].dist_v,
                network_.EdgeAt(e).length, 1e-12);
  }
}

TEST_F(SpatialMappingTest, ManyObjectsPerEdge) {
  const Dist len = network_.EdgeAt(2).length;
  std::vector<Location> objects;
  for (int i = 0; i < 50; ++i) {
    objects.push_back({2, len * static_cast<double>(i) / 50.0});
  }
  SpatialMapping mapping(&network_, &buffer_, objects);
  std::vector<EdgeObject> on_edge;
  mapping.ObjectsOnEdge(2, &on_edge);
  EXPECT_EQ(on_edge.size(), 50u);
  // Every object id present exactly once.
  std::vector<ObjectId> ids;
  for (const auto& o : on_edge) ids.push_back(o.object);
  std::sort(ids.begin(), ids.end());
  for (ObjectId i = 0; i < 50; ++i) EXPECT_EQ(ids[i], i);
}

TEST_F(SpatialMappingTest, PositionsMatchNetworkInterpolation) {
  const Dist len = network_.EdgeAt(5).length;
  std::vector<Location> objects = {{5, len * 0.5}};
  SpatialMapping mapping(&network_, &buffer_, objects);
  const Point expected = network_.LocationPosition(objects[0]);
  EXPECT_EQ(mapping.ObjectPosition(0), expected);
  EXPECT_EQ(mapping.ObjectLocation(0), objects[0]);
}

TEST_F(SpatialMappingTest, EmptyObjectSet) {
  SpatialMapping mapping(&network_, &buffer_, {});
  EXPECT_EQ(mapping.object_count(), 0u);
  std::vector<EdgeObject> on_edge;
  mapping.ObjectsOnEdge(0, &on_edge);
  EXPECT_TRUE(on_edge.empty());
}

TEST_F(SpatialMappingTest, ProbesGoThroughBuffer) {
  std::vector<Location> objects;
  for (EdgeId e = 0; e < network_.edge_count(); ++e) {
    objects.push_back({e, 0.0});
  }
  SpatialMapping mapping(&network_, &buffer_, objects);
  buffer_.ResetStats();
  std::vector<EdgeObject> on_edge;
  mapping.ObjectsOnEdge(0, &on_edge);
  EXPECT_GT(buffer_.stats().accesses(), 0u);
}

TEST(SpatialMappingFaultTest, ReadFaultMidProbeClearsOutAndUnpins) {
  // One object on edge 0, then enough on edge 1 that its probe spans
  // several leaves. Probing edge 0 leaves the root and the first leaf
  // resident, so the armed fault hits the second leaf of edge 1's probe,
  // after the first leaf's objects were already appended.
  RoadNetwork network = testing::MakeGridNetwork(4);
  const Dist len = network.EdgeAt(1).length;
  std::vector<Location> objects = {{0, 0.0}};
  const std::size_t count = BpTree::LeafCapacity() * 3;
  for (std::size_t i = 0; i < count; ++i) {
    objects.push_back({1, len * static_cast<double>(i) /
                              static_cast<double>(count)});
  }
  WorkloadConfig config;
  config.fault_injection = FaultInjectionConfig{};
  Workload workload(config, std::move(network), std::move(objects));
  const SpatialMapping& mapping = *workload.dataset().mapping;
  BufferManager& index_buffer = workload.index_buffer();

  std::vector<EdgeObject> out;
  ASSERT_TRUE(mapping.ObjectsOnEdge(0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  workload.index_faults()->FailNextReads(1, StatusCode::kIoError);
  const Status status = mapping.ObjectsOnEdge(1, &out);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index_buffer.pinned_pages(), 0u);
  EXPECT_EQ(workload.index_faults()->fault_stats().injected_scripted_faults,
            1u);

  // The fault was transient in effect: the next probe reads every object.
  ASSERT_TRUE(mapping.ObjectsOnEdge(1, &out).ok());
  EXPECT_EQ(out.size(), count);
}


// The occupancy bit agrees with the middle layer on every edge: after the
// build, after each step of a random insert/delete sequence (inserts land
// on a few edges, so edges gain second objects and lose them again), and
// after RebuildIndex.
TEST_F(SpatialMappingTest, OccupancyMatchesMiddleLayerThroughChurn) {
  const auto expect_agreement = [](const SpatialMapping& mapping,
                                   const char* when) {
    std::vector<EdgeObject> on_edge;
    for (EdgeId e = 0; e < mapping.network().edge_count(); ++e) {
      on_edge.clear();
      ASSERT_TRUE(mapping.ObjectsOnEdge(e, &on_edge).ok());
      EXPECT_EQ(mapping.HasObjects(e), !on_edge.empty())
          << when << ", edge " << e;
    }
  };
  const auto random_location = [&](Rng& rng) {
    const auto edge = static_cast<EdgeId>(rng.NextBounded(6));
    return Location{edge, network_.EdgeAt(edge).length * rng.NextDouble()};
  };

  Rng rng(19);
  std::vector<Location> objects;
  for (int i = 0; i < 5; ++i) objects.push_back(random_location(rng));
  SpatialMapping mapping(&network_, &buffer_, objects);
  expect_agreement(mapping, "after build");

  for (int step = 0; step < 200; ++step) {
    if (rng.NextBounded(2) == 0) {
      ASSERT_TRUE(mapping.InsertObject(random_location(rng)).ok());
    } else {
      const auto id =
          static_cast<ObjectId>(rng.NextBounded(mapping.object_count()));
      ASSERT_TRUE(mapping.DeleteObject(id).ok());
    }
    expect_agreement(mapping, "after churn step");
  }
  ASSERT_TRUE(mapping.RebuildIndex().ok());
  expect_agreement(mapping, "after RebuildIndex");
}

// A query's EdgeObjectMemo returns exactly what the middle layer holds on
// every edge, and a repeated Get reads no index page. A memo lives for one
// query, so each "query" below (after the build, an insert, a delete)
// opens a fresh one and sees the mutation.
TEST_F(SpatialMappingTest, EdgeObjectMemoMatchesMiddleLayerAcrossQueries) {
  const auto expect_memo_matches = [&](const SpatialMapping& mapping,
                                       const char* when) {
    EdgeObjectMemo memo(&mapping);
    std::vector<EdgeObject> want;
    for (int pass = 0; pass < 2; ++pass) {
      buffer_.ResetStats();
      for (EdgeId e = 0; e < network_.edge_count(); ++e) {
        const std::uint64_t before = buffer_.stats().accesses();
        const auto got = memo.Get(e);
        ASSERT_TRUE(got.ok()) << when;
        const std::uint64_t read = buffer_.stats().accesses() - before;
        want.clear();
        ASSERT_TRUE(mapping.ObjectsOnEdge(e, &want).ok());
        if (pass == 0) {
          EXPECT_GT(read, 0u) << when << ", edge " << e;
        } else {
          EXPECT_EQ(read, 0u) << when << ", edge " << e;
        }
        ASSERT_EQ(got.value().size(), want.size()) << when << ", edge " << e;
        for (std::size_t k = 0; k < want.size(); ++k) {
          EXPECT_EQ(got.value()[k].object, want[k].object);
          EXPECT_EQ(got.value()[k].dist_u, want[k].dist_u);
          EXPECT_EQ(got.value()[k].dist_v, want[k].dist_v);
        }
      }
    }
  };

  // Several objects on a few edges, none on the rest.
  std::vector<Location> objects;
  for (int i = 0; i < 12; ++i) {
    const auto edge = static_cast<EdgeId>(i % 4);
    objects.push_back({edge, network_.EdgeAt(edge).length * (i + 1) / 13.0});
  }
  SpatialMapping mapping(&network_, &buffer_, objects);
  expect_memo_matches(mapping, "after build");

  const EdgeId empty_edge = 9;
  ASSERT_FALSE(mapping.HasObjects(empty_edge));
  ASSERT_TRUE(
      mapping.InsertObject({empty_edge, network_.EdgeAt(empty_edge).length / 2})
          .ok());
  expect_memo_matches(mapping, "after insert");

  ASSERT_TRUE(mapping.DeleteObject(1).value());
  ASSERT_TRUE(mapping.DeleteObject(5).value());
  expect_memo_matches(mapping, "after delete");
}

}  // namespace
}  // namespace msq
