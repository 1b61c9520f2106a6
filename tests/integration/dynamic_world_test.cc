// Dynamic world end to end: after an edge-weight update or object churn,
// warm (cached) queries are byte-identical to a cold cacheless run on the
// mutated world — the data-epoch stamp makes every pre-mutation cache
// entry unreachable — and the mutation orchestrators compose with the
// executor's exclusive write barrier and repeated relayouts without
// leaking storage.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "cache/query_cache.h"
#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "graph/dijkstra.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "testing_support.h"

namespace msq {
namespace {

constexpr Algorithm kCachedAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                           Algorithm::kLbc};

std::unique_ptr<Workload> DynamicWorkload(std::uint64_t seed = 11,
                                          std::size_t attr_dims = 0) {
  return testing::MakeRandomWorkload(220, 300, 1.0, seed, attr_dims);
}

// Full byte-identity: same objects in the same order with bitwise-equal
// distance vectors.
void ExpectSameSkyline(const SkylineResult& got, const SkylineResult& want,
                       const char* label) {
  ASSERT_TRUE(got.status.ok()) << label;
  ASSERT_TRUE(want.status.ok()) << label;
  ASSERT_EQ(got.skyline.size(), want.skyline.size()) << label;
  for (std::size_t i = 0; i < got.skyline.size(); ++i) {
    EXPECT_EQ(got.skyline[i].object, want.skyline[i].object)
        << label << " entry " << i;
    EXPECT_EQ(got.skyline[i].vector, want.skyline[i].vector)
        << label << " entry " << i;
  }
}

// The oracle: a fresh cacheless run on the current (mutated) world.
SkylineResult ColdOracle(Workload* workload, Algorithm algorithm,
                         const SkylineQuerySpec& spec) {
  workload->ResetBuffers();
  return RunSkylineQuery(algorithm, workload->dataset(), spec);
}

TEST(DynamicWorldTest, WarmQueriesAfterEdgeUpdateMatchColdOracle) {
  for (const Algorithm algorithm : kCachedAlgorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    auto workload = DynamicWorkload();
    const SkylineQuerySpec spec = workload->SampleQuery(3, 41);
    QueryCache cache;
    Dataset dataset = workload->dataset();
    dataset.cache = &cache;
    // Fill the cache, then prove it is warm.
    const SkylineResult cold = RunSkylineQuery(algorithm, dataset, spec);
    ASSERT_TRUE(cold.status.ok());
    ASSERT_FALSE(cold.skyline.empty());
    const SkylineResult warm = RunSkylineQuery(algorithm, dataset, spec);
    ExpectSameSkyline(warm, cold, "warm before mutation");

    // Lengthen the first query source's edge: every network distance
    // through it changes, so a stale cached answer would be visibly wrong.
    const EdgeId edge = spec.sources[0].edge;
    const Dist old_length = workload->network().EdgeAt(edge).length;
    const StatusOr<Dist> applied =
        workload->UpdateEdgeWeight(edge, old_length * 3.0);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();

    Dataset mutated = workload->dataset();
    mutated.cache = &cache;
    const SkylineResult warm_after =
        RunSkylineQuery(algorithm, mutated, spec);
    ExpectSameSkyline(warm_after, ColdOracle(workload.get(), algorithm, spec),
                      "warm after edge update");
    // And warm again on the mutated world: the refill is coherent too.
    Dataset refilled = workload->dataset();
    refilled.cache = &cache;
    ExpectSameSkyline(RunSkylineQuery(algorithm, refilled, spec), warm_after,
                      "second warm after edge update");
  }
}

TEST(DynamicWorldTest, WarmQueriesAfterObjectChurnMatchColdOracle) {
  for (const Algorithm algorithm : kCachedAlgorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    auto workload = DynamicWorkload(23);
    const SkylineQuerySpec spec = workload->SampleQuery(2, 9);
    QueryCache cache;
    Dataset dataset = workload->dataset();
    dataset.cache = &cache;
    const SkylineResult before = RunSkylineQuery(algorithm, dataset, spec);
    ASSERT_TRUE(before.status.ok());
    ASSERT_FALSE(before.skyline.empty());

    // Insert an object right at a query source: network distance 0 to that
    // source, so it must join (or dominate into) the skyline.
    const StatusOr<ObjectId> inserted =
        workload->InsertObject(spec.sources[0]);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    Dataset after_insert = workload->dataset();
    after_insert.cache = &cache;
    const SkylineResult warm_insert =
        RunSkylineQuery(algorithm, after_insert, spec);
    ExpectSameSkyline(warm_insert,
                      ColdOracle(workload.get(), algorithm, spec),
                      "warm after insert");
    const auto finds_inserted = [&](const SkylineResult& result) {
      for (const SkylineEntry& entry : result.skyline) {
        if (entry.object == inserted.value()) return true;
      }
      return false;
    };
    EXPECT_TRUE(finds_inserted(warm_insert));

    // Delete a pre-existing skyline member; it must vanish from the warm
    // answer, not linger in a stale snapshot.
    const ObjectId victim = before.skyline[0].object;
    const StatusOr<bool> removed = workload->DeleteObject(victim);
    ASSERT_TRUE(removed.ok());
    EXPECT_TRUE(removed.value());
    Dataset after_delete = workload->dataset();
    after_delete.cache = &cache;
    const SkylineResult warm_delete =
        RunSkylineQuery(algorithm, after_delete, spec);
    ExpectSameSkyline(warm_delete,
                      ColdOracle(workload.get(), algorithm, spec),
                      "warm after delete");
    for (const SkylineEntry& entry : warm_delete.skyline) {
      EXPECT_NE(entry.object, victim);
    }
  }
}

TEST(DynamicWorldTest, NaiveSkylineExcludesTombstonedObjects) {
  // Naive scans the object table directly (no R-tree browse), so it needs
  // its own tombstone guard; static attributes keep the deleted row
  // allocated and would leak it into dominance if the guard slipped.
  auto workload = DynamicWorkload(31, /*attr_dims=*/2);
  const SkylineQuerySpec spec = workload->SampleQuery(2, 13);
  const SkylineResult before =
      RunSkylineQuery(Algorithm::kNaive, workload->dataset(), spec);
  ASSERT_TRUE(before.status.ok());
  ASSERT_FALSE(before.skyline.empty());
  const ObjectId victim = before.skyline.front().object;
  const StatusOr<bool> removed = workload->DeleteObject(victim);
  ASSERT_TRUE(removed.ok());
  ASSERT_TRUE(removed.value());
  const SkylineResult after =
      RunSkylineQuery(Algorithm::kNaive, workload->dataset(), spec);
  ASSERT_TRUE(after.status.ok());
  for (const SkylineEntry& entry : after.skyline) {
    EXPECT_NE(entry.object, victim);
  }
  // Deleting again is a clean no-op, and the answer is stable.
  const StatusOr<bool> again = workload->DeleteObject(victim);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());
  ExpectSameSkyline(RunSkylineQuery(Algorithm::kNaive, workload->dataset(),
                                    spec),
                    after, "after double delete");
}

// Mirror of the layout-epoch invalidation cases (query_cache_test.cc), but
// driven by real data-epoch bumps from Workload mutations: a Find under
// the post-mutation epoch misses AND drops the entry, and the old epoch
// cannot resurrect it.
TEST(DynamicWorldTest, DataEpochMismatchMissesAndDropsDistanceMemo) {
  auto workload = DynamicWorkload(47);
  QueryCache cache;
  const std::uint64_t epoch0 = workload->dataset().graph_pager->data_epoch();
  const Location source{3, 0.25};
  cache.StoreDistance(source, 7, 5.0, epoch0);
  ASSERT_TRUE(cache.FindDistance(source, 7, epoch0).has_value());

  const Dist length = workload->network().EdgeAt(0).length;
  ASSERT_TRUE(workload->UpdateEdgeWeight(0, length * 2.0).ok());
  const std::uint64_t epoch1 = workload->dataset().graph_pager->data_epoch();
  ASSERT_GT(epoch1, epoch0);

  EXPECT_FALSE(cache.FindDistance(source, 7, epoch1).has_value());
  // The mismatch dropped the entry: the original epoch finds nothing.
  EXPECT_FALSE(cache.FindDistance(source, 7, epoch0).has_value());
  const QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.memo_misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(DynamicWorldTest, DataEpochMismatchMissesAndDropsWavefront) {
  auto workload = DynamicWorkload(53);
  const SkylineQuerySpec spec = workload->SampleQuery(2, 29);
  QueryCache cache;
  Dataset dataset = workload->dataset();
  dataset.cache = &cache;
  const std::uint64_t epoch0 = dataset.graph_pager->data_epoch();
  // A CE run populates the wavefront tier for its sources.
  ASSERT_TRUE(RunSkylineQuery(Algorithm::kCe, dataset, spec).status.ok());
  ASSERT_NE(cache.FindWavefront(spec.sources[0], epoch0), nullptr);

  ASSERT_TRUE(workload->InsertObject(Location{1, 0.0}).ok());
  const std::uint64_t epoch1 = workload->dataset().graph_pager->data_epoch();
  ASSERT_GT(epoch1, epoch0);

  // Post-mutation epoch: miss and drop. Old epoch: gone for good.
  EXPECT_EQ(cache.FindWavefront(spec.sources[0], epoch1), nullptr);
  EXPECT_EQ(cache.FindWavefront(spec.sources[0], epoch0), nullptr);
}

TEST(DynamicWorldTest, FailedMutationStillBumpsEpochAndStaysCoherent) {
  // A mutation that dies on a storage fault must not leave the cache
  // trusting pre-call entries: the orchestrator bumps the epoch on every
  // attempt, converges the stack, and the world it leaves behind answers
  // like a fresh build.
  WorkloadConfig config;
  config.network = NetworkGenConfig{220, 300, 59, /*curvature=*/0.0};
  config.object_density = 1.0;
  config.object_seed = 59 * 31 + 7;
  config.fault_injection = FaultInjectionConfig{};  // disarmed; scripted only
  auto workload = std::make_unique<Workload>(config);
  const SkylineQuerySpec spec = workload->SampleQuery(2, 3);
  QueryCache cache;
  Dataset dataset = workload->dataset();
  dataset.cache = &cache;
  const SkylineResult before =
      RunSkylineQuery(Algorithm::kLbc, dataset, spec);
  ASSERT_TRUE(before.status.ok());

  const std::uint64_t epoch0 = workload->dataset().graph_pager->data_epoch();
  // Drop the index pool so the insert's first tree read is a disk read,
  // then script that read to fail mid-mutation.
  ASSERT_TRUE(workload->dataset().index_buffer->Clear().ok());
  workload->index_faults()->FailNextReads(1, StatusCode::kIoError);
  const StatusOr<ObjectId> failed =
      workload->InsertObject(spec.sources[0]);
  EXPECT_FALSE(failed.ok());
  EXPECT_GT(workload->dataset().graph_pager->data_epoch(), epoch0);

  Dataset after = workload->dataset();
  after.cache = &cache;
  ExpectSameSkyline(RunSkylineQuery(Algorithm::kLbc, after, spec),
                    ColdOracle(workload.get(), Algorithm::kLbc, spec),
                    "warm after failed mutation");
  // The failed insert left no object behind.
  for (const SkylineEntry& entry :
       ColdOracle(workload.get(), Algorithm::kLbc, spec).skyline) {
    EXPECT_LT(entry.object, workload->objects().size());
  }
}

TEST(DynamicWorldTest, TruncatedWarmPrefixAfterMutationIsTrueSubset) {
  // A page-budget-truncated warm run on the mutated world must return a
  // subset of the true (mutated-world) skyline with bitwise-equal
  // vectors — never entries computed against the pre-mutation world.
  auto workload = DynamicWorkload(67);
  const SkylineQuerySpec spec = workload->SampleQuery(3, 17);
  QueryCache cache;
  Dataset dataset = workload->dataset();
  dataset.cache = &cache;
  ASSERT_TRUE(RunSkylineQuery(Algorithm::kCe, dataset, spec).status.ok());

  const Dist length = workload->network().EdgeAt(spec.sources[0].edge).length;
  ASSERT_TRUE(
      workload->UpdateEdgeWeight(spec.sources[0].edge, length * 4.0).ok());
  const SkylineResult oracle =
      ColdOracle(workload.get(), Algorithm::kCe, spec);
  ASSERT_TRUE(oracle.status.ok());

  Dataset mutated = workload->dataset();
  mutated.cache = &cache;
  SkylineQuerySpec limited = spec;
  limited.limits.max_page_accesses = 40;
  const SkylineResult truncated =
      RunSkylineQuery(Algorithm::kCe, mutated, limited);
  ASSERT_TRUE(truncated.status.ok());
  ASSERT_TRUE(truncated.truncated);
  EXPECT_EQ(truncated.truncation_reason, StatusCode::kResourceExhausted);
  EXPECT_LE(truncated.skyline.size(), oracle.skyline.size());
  for (const SkylineEntry& entry : truncated.skyline) {
    const auto it = std::find_if(
        oracle.skyline.begin(), oracle.skyline.end(),
        [&](const SkylineEntry& want) {
          return want.object == entry.object;
        });
    ASSERT_NE(it, oracle.skyline.end())
        << "truncated entry " << entry.object
        << " is not in the mutated-world skyline";
    EXPECT_EQ(entry.vector, it->vector);
  }
}

TEST(DynamicWorldTest, RepeatedRelayoutDoesNotLeakPages) {
  // Relayout frees the previous layout's pages back to the disk free list;
  // cycling layouts must hold live-page usage flat, not stack orphaned
  // copies of the adjacency store.
  auto workload = DynamicWorkload(71);
  const SkylineQuerySpec spec = workload->SampleQuery(2, 5);
  const SkylineResult baseline =
      RunSkylineQuery(Algorithm::kCe, workload->dataset(), spec);
  ASSERT_TRUE(baseline.status.ok());

  DiskManager* disk = workload->dataset().graph_buffer->disk();
  workload->Relayout(GraphLayout::kHilbertCsr);
  const std::size_t live_after_first = disk->PageCount() - disk->FreeCount();
  const GraphLayout cycle[] = {GraphLayout::kSeed, GraphLayout::kHilbert,
                               GraphLayout::kHilbertCsr};
  for (int round = 0; round < 3; ++round) {
    for (const GraphLayout layout : cycle) {
      workload->Relayout(layout);
    }
  }
  workload->Relayout(GraphLayout::kHilbertCsr);
  const std::size_t live_after_cycles =
      disk->PageCount() - disk->FreeCount();
  EXPECT_EQ(live_after_cycles, live_after_first);
  // Results are layout-invariant throughout.
  ExpectSameSkyline(RunSkylineQuery(Algorithm::kCe, workload->dataset(),
                                    spec),
                    baseline, "after relayout cycles");
}

TEST(DynamicWorldTest, ExclusiveBarrierSerializesMutationsWithQueries) {
  // The serving composition in miniature: queries stream through the
  // executor while mutations run under SubmitExclusive. Every future
  // resolves, and the post-mutation warm answer equals the cold oracle.
  auto workload = DynamicWorkload(83);
  const SkylineQuerySpec spec = workload->SampleQuery(2, 7);
  QueryCache cache;
  Dataset dataset = workload->dataset();
  dataset.cache = &cache;
  QueryExecutor executor(dataset, /*workers=*/4);

  auto enqueue_queries = [&](std::size_t count) {
    std::vector<std::future<SkylineResult>> futures;
    for (std::size_t i = 0; i < count; ++i) {
      QueryRequest request;
      request.algorithm = kCachedAlgorithms[i % 3];
      request.spec = workload->SampleQuery(2, 100 + i);
      futures.push_back(executor.Submit(std::move(request)));
    }
    return futures;
  };

  std::vector<std::future<SkylineResult>> wave1 = enqueue_queries(8);
  const EdgeId edge = spec.sources[0].edge;
  std::future<Status> update = executor.SubmitExclusive([&] {
    const Dist length = workload->network().EdgeAt(edge).length;
    return workload->UpdateEdgeWeight(edge, length * 2.5).status();
  });
  std::future<Status> insert = executor.SubmitExclusive([&] {
    return workload->InsertObject(spec.sources[1]).status();
  });
  std::vector<std::future<SkylineResult>> wave2 = enqueue_queries(8);

  for (std::future<SkylineResult>& f : wave1) {
    EXPECT_TRUE(f.get().status.ok());
  }
  EXPECT_TRUE(update.get().ok());
  EXPECT_TRUE(insert.get().ok());
  for (std::future<SkylineResult>& f : wave2) {
    EXPECT_TRUE(f.get().status.ok());
  }
  executor.Quiesce();

  Dataset mutated = workload->dataset();
  mutated.cache = &cache;
  ExpectSameSkyline(RunSkylineQuery(Algorithm::kLbc, mutated, spec),
                    ColdOracle(workload.get(), Algorithm::kLbc, spec),
                    "warm after barrier mutations");
}

// The NN stream skips edges whose occupancy bit is clear. An object
// inserted on a previously empty edge must set the bit and be found, and
// an edge emptied by a delete must be skipped without changing an answer.
// CE and naive read objects through NN streams; EDC and LBC do not, so
// their agreement is an independent check. Objects sit in the far corner
// of a grid; the inserted one sits next to both query points and
// dominates them all.
TEST(DynamicWorldTest, EmptyEdgeSkipFollowsInsertAndDelete) {
  constexpr std::size_t kSide = 8;
  RoadNetwork network = testing::MakeGridNetwork(kSide);
  const auto corner_rank = [](NodeId n) { return n / kSide + n % kSide; };
  std::vector<Location> objects;
  for (EdgeId e = 0; e < network.edge_count(); ++e) {
    const RoadNetwork::Edge& edge = network.EdgeAt(e);
    if (std::min(corner_rank(edge.u), corner_rank(edge.v)) < kSide) continue;
    const double fraction = 0.1 + 0.8 * std::fmod(e * 0.618, 1.0);
    objects.push_back({e, edge.length * fraction});
  }
  auto workload = testing::MakeWorkload(std::move(network), objects);
  const RoadNetwork& grid = workload->network();
  const SpatialMapping& mapping = workload->mapping();
  SkylineQuerySpec spec;
  spec.sources = {{0, grid.EdgeAt(0).length * 0.3},
                  {1, grid.EdgeAt(1).length * 0.6}};
  // Edge (0,1)-(1,1): next to both query points, off their edges, empty.
  EdgeId near_edge = kInvalidEdge;
  for (EdgeId e = 0; e < grid.edge_count(); ++e) {
    const RoadNetwork::Edge& edge = grid.EdgeAt(e);
    if (std::min(edge.u, edge.v) == 1 && std::max(edge.u, edge.v) == 9) {
      near_edge = e;
    }
  }
  ASSERT_NE(near_edge, kInvalidEdge);
  ASSERT_FALSE(mapping.HasObjects(near_edge));

  const auto run_all = [&](const char* label) {
    const SkylineResult ce = ColdOracle(workload.get(), Algorithm::kCe, spec);
    ExpectSameSkyline(ce, ColdOracle(workload.get(), Algorithm::kNaive, spec),
                      label);
    for (const Algorithm algorithm : {Algorithm::kEdc, Algorithm::kLbc}) {
      EXPECT_EQ(testing::SkylineIds(
                    ColdOracle(workload.get(), algorithm, spec)),
                testing::SkylineIds(ce))
          << label << " " << AlgorithmName(algorithm);
    }
    return ce;
  };
  const SkylineResult before = run_all("before insert");
  ASSERT_FALSE(before.skyline.empty());

  const Location near_location{near_edge, grid.EdgeAt(near_edge).length / 2};
  const StatusOr<ObjectId> inserted = workload->InsertObject(near_location);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_TRUE(mapping.HasObjects(near_edge));
  const SkylineResult after_insert = run_all("after insert");
  ASSERT_EQ(after_insert.skyline.size(), 1u);
  EXPECT_EQ(after_insert.skyline[0].object, *inserted);
  for (std::size_t i = 0; i < spec.sources.size(); ++i) {
    DijkstraSearch search(workload->dataset().graph_pager, spec.sources[i]);
    EXPECT_NEAR(after_insert.skyline[0].vector[i],
                search.DistanceTo(near_location), 1e-12)
        << "source " << i;
  }

  // Deleting it empties the edge again: skipped, and the old answer is back.
  ASSERT_TRUE(workload->DeleteObject(*inserted).ok());
  EXPECT_FALSE(mapping.HasObjects(near_edge));
  ExpectSameSkyline(run_all("after delete"), before, "emptied near edge");

  // A skyline member alone on its edge: deleting it empties that edge.
  const ObjectId victim = before.skyline[0].object;
  const EdgeId victim_edge = mapping.ObjectLocation(victim).edge;
  ASSERT_TRUE(mapping.HasObjects(victim_edge));
  const StatusOr<bool> removed = workload->DeleteObject(victim);
  ASSERT_TRUE(removed.ok());
  ASSERT_TRUE(*removed);
  EXPECT_FALSE(mapping.HasObjects(victim_edge));
  for (const SkylineEntry& entry : run_all("after victim delete").skyline) {
    EXPECT_NE(entry.object, victim);
  }
}

}  // namespace
}  // namespace msq
