// QueryCache::Maintain rule tests (DESIGN.md §16) on one hand-built world:
// a keep case and a drop case per rule, every kept distance and resumed
// wavefront checked against a fresh computation on the mutated world, plus
// the step record the Workload mutators fill and the executor hook.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/query_cache.h"
#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "graph/dijkstra.h"
#include "graph/nn_stream.h"

namespace msq {
namespace {

// Edge ids of the world below.
enum : EdgeId { kE0, kE1, kE2, kE3, kE4, kE5, kE6, kE7, kE8 };

// Object ids: kNear on E2, kFar on E7, kOnTop on E4.
enum : ObjectId { kNear, kFar, kOnTop };

// Lengths in brackets (Euclidean where omitted):
//
//   4 --E4[1.8]-- 5 -----E8------ 7
//   |E3           |E5             |E7
//   1 --E1[3.5]-- 2 --E2-- 3 --E6-- 6
//   |E0
//   0
//
// From the source (E0, 0.5): d(1) = 0.5, d(4) = 1.5, d(5) = 3.3 (via E4),
// d(2) = 4.0 (via E1), d(7) = 5.3, d(6) = 6.0. kNear (E2, 0.5) sits at
// 4.5 through E1, kFar (E7, 0.5 from 6) at 5.8 through E4 and E8, and
// kOnTop (E4, 0.9) at 2.4. E1 and E4 are tight (on shortest paths); E5
// is slack (d(5) + 1 > d(2) and d(2) + 1 > d(5)).
std::unique_ptr<Workload> MakeWorld(WorkloadConfig config = {}) {
  RoadNetwork network;
  network.AddNode({0, 0});  // 0, placed under 1
  network.AddNode({0, 1});  // 1
  network.AddNode({1, 1});  // 2
  network.AddNode({2, 1});  // 3
  network.AddNode({0, 2});  // 4
  network.AddNode({1, 2});  // 5
  network.AddNode({3, 1});  // 6
  network.AddNode({3, 2});  // 7
  network.AddEdge(0, 1);        // E0
  network.AddEdge(1, 2, 3.5);   // E1
  network.AddEdge(2, 3);        // E2
  network.AddEdge(1, 4);        // E3
  network.AddEdge(4, 5, 1.8);   // E4
  network.AddEdge(5, 2);        // E5
  network.AddEdge(3, 6);        // E6
  network.AddEdge(6, 7);        // E7
  network.AddEdge(5, 7);        // E8
  network.Finalize();
  std::vector<Location> objects = {{kE2, 0.5}, {kE7, 0.5}, {kE4, 0.9}};
  return std::make_unique<Workload>(config, std::move(network),
                                    std::move(objects));
}

constexpr Location kSource{kE0, 0.5};

std::uint64_t Epoch(Workload& world) {
  return world.dataset().graph_pager->data_epoch();
}

void Maintain(QueryCache& cache, Workload& world) {
  cache.Maintain(*world.dataset().graph_pager, world.mapping());
}

// Exact network distance on the current world, as the algorithms compute
// it.
Dist Exact(Workload& world, const Location& source, ObjectId object) {
  DijkstraSearch search(world.dataset().graph_pager, source);
  return search.DistanceTo(world.mapping().ObjectLocation(object));
}

// Memoizes the exact distance of each object from kSource.
void Memoize(QueryCache& cache, Workload& world,
             const std::vector<ObjectId>& objects) {
  for (const ObjectId id : objects) {
    cache.StoreDistance(kSource, id, Exact(world, kSource, id), Epoch(world));
  }
}

// The memoized distance under the current epoch; a kept slot must equal
// the fresh distance bit for bit.
std::optional<Dist> Kept(QueryCache& cache, Workload& world, ObjectId id) {
  const std::optional<Dist> found =
      cache.FindDistance(kSource, id, Epoch(world));
  if (found.has_value()) {
    EXPECT_EQ(*found, Exact(world, kSource, id)) << "stale slot " << id;
  }
  return found;
}

void Update(Workload& world, EdgeId edge, Dist length) {
  const StatusOr<Dist> applied = world.UpdateEdgeWeight(edge, length);
  ASSERT_TRUE(applied.ok());
  ASSERT_EQ(*applied, length);
}

std::vector<NetworkNnStream::Visit> Drain(NetworkNnStream& stream) {
  std::vector<NetworkNnStream::Visit> visits;
  while (const auto visit = stream.Next()) visits.push_back(*visit);
  return visits;
}

// Snapshot of a stream from kSource after `emissions` Next() calls (all
// of them when negative), stored in the cache.
void StoreSnapshot(QueryCache& cache, Workload& world, int emissions) {
  const Dataset dataset = world.dataset();
  NetworkNnStream stream(dataset.graph_pager, dataset.mapping, kSource);
  for (int i = 0; emissions < 0 || i < emissions; ++i) {
    if (!stream.Next().has_value()) break;
  }
  cache.StoreWavefront(kSource, stream.MakeSnapshot(), Epoch(world));
}

// A kept snapshot must resume into exactly the cold stream's sequence on
// the mutated world.
void ExpectResumesLikeCold(QueryCache& cache, Workload& world) {
  const QueryCache::WavefrontPtr snapshot =
      cache.FindWavefront(kSource, Epoch(world));
  ASSERT_NE(snapshot, nullptr);
  const Dataset dataset = world.dataset();
  NetworkNnStream resumed(dataset.graph_pager, dataset.mapping, kSource,
                          snapshot.get());
  NetworkNnStream cold(dataset.graph_pager, dataset.mapping, kSource);
  const std::vector<NetworkNnStream::Visit> want = Drain(cold);
  const std::vector<NetworkNnStream::Visit> got = Drain(resumed);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].object, want[i].object) << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << i;
  }
}

TEST(CacheMaintainTest, SlackEdgeKeepsSlotUnderIncreaseAndDecrease) {
  for (const Dist length : {3.0, 1.6}) {
    auto world = MakeWorld();
    QueryCache cache;
    Memoize(cache, *world, {kNear});
    Update(*world, kE4, length);
    Maintain(cache, *world);
    EXPECT_TRUE(Kept(cache, *world, kNear).has_value()) << length;
    EXPECT_EQ(cache.stats().carried, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
  }
}

TEST(CacheMaintainTest, TightEdgeDropsSlotUnderIncreaseAndDecrease) {
  // E1 carries kNear's shortest path; E4 becomes a shortcut for it when
  // shortened to 1.0, and already carries kFar's.
  struct Case {
    EdgeId edge;
    Dist length;
    ObjectId object;
  };
  for (const Case c : {Case{kE1, 4.0, kNear}, Case{kE1, 2.0, kNear},
                       Case{kE4, 1.0, kNear}, Case{kE4, 3.0, kFar}}) {
    auto world = MakeWorld();
    QueryCache cache;
    Memoize(cache, *world, {c.object});
    const Dist before = Exact(*world, kSource, c.object);
    Update(*world, c.edge, c.length);
    ASSERT_NE(Exact(*world, kSource, c.object), before);
    Maintain(cache, *world);
    EXPECT_FALSE(Kept(cache, *world, c.object).has_value())
        << "edge " << c.edge << " length " << c.length;
    EXPECT_EQ(cache.stats().evictions, 1u);
  }
}

TEST(CacheMaintainTest, ObjectOnChangedEdgeDropsOnlyItsSlot) {
  auto world = MakeWorld();
  QueryCache cache;
  Memoize(cache, *world, {kNear, kOnTop});
  Update(*world, kE4, 3.0);  // slack for kNear; kOnTop's offset rescales
  Maintain(cache, *world);
  EXPECT_TRUE(Kept(cache, *world, kNear).has_value());
  EXPECT_FALSE(Kept(cache, *world, kOnTop).has_value());
}

TEST(CacheMaintainTest, TrimmedRowGivesItsSlackBack) {
  // Thirty objects behind the tight E1 grow the row to 64 slots; lengthening
  // E1 invalidates all of them, and the row shrinks with its contents.
  auto world = MakeWorld();
  std::vector<ObjectId> behind;
  for (int k = 0; k < 30; ++k) {
    const StatusOr<ObjectId> id =
        world->InsertObject(Location{kE2, 0.01 + 0.03 * k});
    ASSERT_TRUE(id.ok());
    behind.push_back(*id);
  }
  QueryCache cache;
  Memoize(cache, *world, {kOnTop});
  const std::size_t one_slot_bytes = cache.bytes();
  Memoize(cache, *world, behind);
  ASSERT_GT(cache.bytes(), one_slot_bytes);

  Update(*world, kE1, 4.0);
  Maintain(cache, *world);
  for (const ObjectId id : behind) {
    EXPECT_FALSE(Kept(cache, *world, id).has_value()) << id;
  }
  EXPECT_TRUE(Kept(cache, *world, kOnTop).has_value());
  EXPECT_EQ(cache.stats().evictions, behind.size());
  // Back to the first row size: the bytes of a one-slot entry.
  EXPECT_EQ(cache.bytes(), one_slot_bytes);
  // The shrunk row still takes stores.
  Memoize(cache, *world, {kNear});
  EXPECT_TRUE(Kept(cache, *world, kNear).has_value());
}

TEST(CacheMaintainTest, SourceOnChangedEdgeDropsTheEntry) {
  auto world = MakeWorld();
  QueryCache cache;
  const Location on_edge{kE4, 0.9};
  cache.StoreDistance(on_edge, kNear, Exact(*world, on_edge, kNear),
                      Epoch(*world));
  // Control: a source off the edge keeps its (slack) slot.
  Memoize(cache, *world, {kNear});
  Update(*world, kE4, 3.0);
  Maintain(cache, *world);
  EXPECT_FALSE(cache.FindDistance(on_edge, kNear, Epoch(*world)).has_value());
  EXPECT_TRUE(Kept(cache, *world, kNear).has_value());
  EXPECT_EQ(cache.Entries().size(), 1u);
}

TEST(CacheMaintainTest, RowShortcutStillErasesObjectsOnTheEdge) {
  // Reaching E7 from the source costs 5.3 + 1 > the row's largest
  // distance (kFar's 5.8), so the row is kept without a slot scan, but
  // kFar lies on E7 and its distance changes with the rescaled offset.
  auto world = MakeWorld();
  QueryCache cache;
  Memoize(cache, *world, {kNear, kFar});
  const Dist far_before = Exact(*world, kSource, kFar);
  Update(*world, kE7, 2.0);
  ASSERT_NE(Exact(*world, kSource, kFar), far_before);
  Maintain(cache, *world);
  EXPECT_TRUE(Kept(cache, *world, kNear).has_value());
  EXPECT_FALSE(Kept(cache, *world, kFar).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().carried, 1u);
}

TEST(CacheMaintainTest, BothSettledSlackSnapshotIsKept) {
  auto world = MakeWorld();
  QueryCache cache;
  StoreSnapshot(cache, *world, /*emissions=*/-1);
  Update(*world, kE5, 1.5);  // slack under 1.0 and 1.5, no object on it
  Maintain(cache, *world);
  ExpectResumesLikeCold(cache, *world);
}

TEST(CacheMaintainTest, BothSettledTightSnapshotIsDropped) {
  auto world = MakeWorld();
  QueryCache cache;
  StoreSnapshot(cache, *world, /*emissions=*/-1);
  Update(*world, kE1, 4.0);  // d(2) ran through E1
  Maintain(cache, *world);
  EXPECT_EQ(cache.FindWavefront(kSource, Epoch(*world)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheMaintainTest, BothSettledSlackEdgeCarryingAnObjectIsDropped) {
  // E5 is slack, but the snapshot's estimate for the object on it was
  // offered at the old offset.
  auto world = MakeWorld();
  ASSERT_TRUE(world->InsertObject({kE5, 0.5}).ok());
  QueryCache cache;
  StoreSnapshot(cache, *world, /*emissions=*/-1);
  Update(*world, kE5, 1.5);
  Maintain(cache, *world);
  EXPECT_EQ(cache.FindWavefront(kSource, Epoch(*world)), nullptr);
}

TEST(CacheMaintainTest, NeitherSettledSnapshotIsKeptOneSettledIsDropped) {
  // One emission (kOnTop at 2.4) settles nodes 0, 1 and 4 only.
  {
    auto world = MakeWorld();
    QueryCache cache;
    StoreSnapshot(cache, *world, /*emissions=*/1);
    Update(*world, kE8, 3.0);  // 5 and 7 unsettled
    Maintain(cache, *world);
    ExpectResumesLikeCold(cache, *world);
  }
  {
    auto world = MakeWorld();
    QueryCache cache;
    StoreSnapshot(cache, *world, /*emissions=*/1);
    Update(*world, kE1, 4.0);  // 1 settled, 2 labeled through E1
    Maintain(cache, *world);
    EXPECT_EQ(cache.FindWavefront(kSource, Epoch(*world)), nullptr);
  }
  {
    // Three emissions (kFar at 5.8 through 7) settle 7 but not 6: only
    // E7's second endpoint is settled.
    auto world = MakeWorld();
    QueryCache cache;
    StoreSnapshot(cache, *world, /*emissions=*/3);
    Update(*world, kE7, 2.0);
    Maintain(cache, *world);
    EXPECT_EQ(cache.FindWavefront(kSource, Epoch(*world)), nullptr);
  }
}

TEST(CacheMaintainTest, InsertNextToSettledNodeDropsSnapshotOnlyThere) {
  {
    auto world = MakeWorld();
    QueryCache cache;
    StoreSnapshot(cache, *world, /*emissions=*/1);
    Memoize(cache, *world, {kNear});
    ASSERT_TRUE(world->InsertObject({kE3, 0.5}).ok());  // 1 and 4 settled
    Maintain(cache, *world);
    EXPECT_EQ(cache.FindWavefront(kSource, Epoch(*world)), nullptr);
    EXPECT_TRUE(Kept(cache, *world, kNear).has_value());  // rows stay
  }
  {
    auto world = MakeWorld();
    QueryCache cache;
    StoreSnapshot(cache, *world, /*emissions=*/1);
    ASSERT_TRUE(world->InsertObject({kE8, 1.0}).ok());  // 5, 7 unsettled
    Maintain(cache, *world);
    ExpectResumesLikeCold(cache, *world);
  }
}

TEST(CacheMaintainTest, DeleteOfDiscoveredObjectDropsSnapshotAndSlot) {
  {
    auto world = MakeWorld();
    QueryCache cache;
    StoreSnapshot(cache, *world, /*emissions=*/1);
    Memoize(cache, *world, {kNear, kOnTop});
    ASSERT_TRUE(world->DeleteObject(kOnTop).ok());  // emitted: finite
    Maintain(cache, *world);
    EXPECT_EQ(cache.FindWavefront(kSource, Epoch(*world)), nullptr);
    EXPECT_FALSE(cache.FindDistance(kSource, kOnTop, Epoch(*world)));
    EXPECT_TRUE(Kept(cache, *world, kNear).has_value());
    EXPECT_EQ(cache.stats().evictions, 2u);  // the snapshot + one slot
  }
  {
    auto world = MakeWorld();
    QueryCache cache;
    StoreSnapshot(cache, *world, /*emissions=*/1);
    ASSERT_TRUE(world->DeleteObject(kFar).ok());  // never discovered
    Maintain(cache, *world);
    ExpectResumesLikeCold(cache, *world);
  }
}

TEST(CacheMaintainTest, UnknownChangeDropsEverything) {
  WorkloadConfig config;
  config.fault_injection = FaultInjectionConfig{};  // scripted faults only
  auto world = MakeWorld(config);
  QueryCache cache;
  StoreSnapshot(cache, *world, /*emissions=*/-1);
  Memoize(cache, *world, {kNear});
  // A failed insert records kUnknown.
  ASSERT_TRUE(world->dataset().index_buffer->Clear().ok());
  world->index_faults()->FailNextReads(1, StatusCode::kIoError);
  ASSERT_FALSE(world->InsertObject({kE6, 0.5}).ok());
  const DataStep step = world->dataset().graph_pager->LastStep();
  EXPECT_EQ(step.from_epoch, cache.Entries().front().layout_epoch);
  EXPECT_EQ(step.change.kind, DataChange::Kind::kUnknown);
  Maintain(cache, *world);
  EXPECT_TRUE(cache.Entries().empty());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheMaintainTest, JournalGapFallsBackToTheEpochDrop) {
  // An insert far from the source keeps the memo row; two inserts before
  // maintenance leave a stamp the last step does not start from.
  for (const int inserts : {1, 2}) {
    auto world = MakeWorld();
    QueryCache cache;
    Memoize(cache, *world, {kNear});
    for (int i = 0; i < inserts; ++i) {
      ASSERT_TRUE(world->InsertObject({kE6, 0.5}).ok());
    }
    Maintain(cache, *world);
    EXPECT_EQ(Kept(cache, *world, kNear).has_value(), inserts == 1)
        << inserts;
    EXPECT_EQ(cache.Entries().size(), inserts == 1 ? 1u : 0u) << inserts;
  }
}

TEST(CacheMaintainTest, MutatorsRecordTheLastStep) {
  auto world = MakeWorld();
  const GraphPager& pager = *world->dataset().graph_pager;
  const std::uint64_t start = pager.data_epoch();
  EXPECT_EQ(pager.LastStep().to_epoch, start);
  EXPECT_EQ(pager.LastStep().change.kind, DataChange::Kind::kUnknown);

  Update(*world, kE4, 3.0);
  DataStep step = pager.LastStep();
  EXPECT_EQ(step.from_epoch, start);
  EXPECT_EQ(step.to_epoch, pager.data_epoch());
  EXPECT_EQ(step.change.kind, DataChange::Kind::kEdgeLength);
  EXPECT_EQ(step.change.edge, kE4);
  EXPECT_EQ(step.change.old_length, 1.8);
  EXPECT_TRUE(step.change.edge_has_objects);

  const std::uint64_t before_insert = pager.data_epoch();
  const StatusOr<ObjectId> inserted = world->InsertObject({kE6, 0.5});
  ASSERT_TRUE(inserted.ok());
  step = pager.LastStep();
  EXPECT_EQ(step.from_epoch, before_insert);
  EXPECT_EQ(step.change.kind, DataChange::Kind::kInsertObject);
  EXPECT_EQ(step.change.object, *inserted);

  ASSERT_TRUE(world->DeleteObject(kNear).ok());
  step = pager.LastStep();
  EXPECT_EQ(step.change.kind, DataChange::Kind::kDeleteObject);
  EXPECT_EQ(step.change.object, kNear);
  ASSERT_FALSE(world->DeleteObject(kNear).value());  // no-op: no step
  EXPECT_EQ(pager.LastStep().to_epoch, step.to_epoch);
}

TEST(CacheMaintainTest, ExecutorWriteCarriesTheCacheOver) {
  auto world = MakeWorld();
  QueryExecutor executor(world->dataset(), /*workers=*/1, QueryCacheConfig{});
  QueryRequest request;
  request.algorithm = Algorithm::kCe;
  request.spec.sources = {kSource};
  ASSERT_TRUE(executor.Submit(request).get().status.ok());

  // Slack for every distance from the source, and no object on E5: the
  // exclusive job's future resolves with the entry already re-stamped.
  ASSERT_TRUE(executor
                  .SubmitExclusive([&] {
                    return world->UpdateEdgeWeight(kE5, 1.5).status();
                  })
                  .get()
                  .ok());
  QueryCache& cache = *executor.cache();
  EXPECT_EQ(cache.stats().carried, 1u);
  ASSERT_EQ(cache.Entries().size(), 1u);
  EXPECT_EQ(cache.Entries().front().layout_epoch, Epoch(*world));
  EXPECT_NE(cache.Entries().front().snapshot, nullptr);

  const SkylineResult warm = executor.Submit(request).get();
  const SkylineResult cold =
      RunSkylineQuery(Algorithm::kCe, world->dataset(), request.spec);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_EQ(warm.skyline.size(), cold.skyline.size());
  for (std::size_t i = 0; i < warm.skyline.size(); ++i) {
    EXPECT_EQ(warm.skyline[i].object, cold.skyline[i].object);
    EXPECT_EQ(warm.skyline[i].vector, cold.skyline[i].vector);
  }
  EXPECT_GT(cache.stats().wavefront_hits, 0u);
}

}  // namespace
}  // namespace msq
