// google-benchmark microbenchmarks for the substrates the query algorithms
// are built on: buffer pool, B+-tree probes, R-tree NN browsing, Dijkstra
// and A* expansion, the Euclidean skyline browser and the dominance kernel
// — plus one cold CE, EDC and LBC query, which report the page accesses
// those substrates cost.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/dominance.h"
#include "core/skyline_query.h"
#include "euclid/bbs.h"
#include "gen/network_gen.h"
#include "gen/object_gen.h"
#include "gen/workloads.h"
#include "graph/astar.h"
#include "graph/dijkstra.h"
#include "graph/nn_stream.h"
#include "graph/spatial_mapping.h"
#include "index/bptree.h"
#include "index/rtree.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"

namespace msq {
namespace {

void BM_BufferFetchHit(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 16);
  const PageId page = disk.Allocate().value();
  buffer.Fetch(page);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer.Fetch(page));
  }
}
BENCHMARK(BM_BufferFetchHit);

void BM_BufferFetchMissEvict(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 4);
  PageId pages[8];
  for (auto& p : pages) p = disk.Allocate().value();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer.Fetch(pages[i++ & 7]));
  }
}
BENCHMARK(BM_BufferFetchMissEvict);

void BM_BpTreeLookup(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 1024);
  BpTree tree(&buffer);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<BpTree::Item> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.emplace_back(i * 2, BpTreeValue{});
  }
  tree.BulkLoad(items);
  Rng rng(1);
  BpTreeValue out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(rng.NextBounded(n) * 2, &out));
  }
}
BENCHMARK(BM_BpTreeLookup)->Arg(1000)->Arg(100000);

void BM_RTreeWindowQuery(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 4096);
  RTree tree(&buffer);
  Rng rng(2);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<RTreeEntry> items;
  for (std::uint32_t i = 0; i < n; ++i) {
    items.push_back(RTreeEntry{
        Mbr::FromPoint({rng.NextDouble(), rng.NextDouble()}), i});
  }
  tree.BulkLoad(std::move(items));
  std::vector<std::uint32_t> hits;
  for (auto _ : state) {
    hits.clear();
    tree.WindowQuery(Mbr{0.4, 0.4, 0.6, 0.6}, &hits);
    benchmark::DoNotOptimize(hits.size());
  }
}
BENCHMARK(BM_RTreeWindowQuery)->Arg(10000)->Arg(100000);

void BM_RTreeNnBrowse10(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 4096);
  RTree tree(&buffer);
  Rng rng(3);
  std::vector<RTreeEntry> items;
  for (std::uint32_t i = 0; i < 100000; ++i) {
    items.push_back(RTreeEntry{
        Mbr::FromPoint({rng.NextDouble(), rng.NextDouble()}), i});
  }
  tree.BulkLoad(std::move(items));
  for (auto _ : state) {
    RTreeNnBrowser browser(&tree, Point{0.5, 0.5});
    for (int i = 0; i < 10; ++i) {
      benchmark::DoNotOptimize(browser.Next());
    }
  }
}
BENCHMARK(BM_RTreeNnBrowse10);

struct GraphFixture {
  explicit GraphFixture(std::size_t nodes)
      : network(GenerateNetwork({.node_count = nodes,
                                 .edge_count = nodes * 13 / 10,
                                 .seed = 5})),
        buffer(&disk, kDefaultBufferFrames),
        pager(&network, &buffer) {}
  RoadNetwork network;
  InMemoryDiskManager disk;
  BufferManager buffer;
  GraphPager pager;
};

void BM_DijkstraFullSweep(benchmark::State& state) {
  GraphFixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    DijkstraSearch search(&f.pager, Location{0, 0.0});
    while (search.NextSettled().has_value()) {
    }
    benchmark::DoNotOptimize(search.settled_count());
  }
}
BENCHMARK(BM_DijkstraFullSweep)->Arg(3000)->Arg(20000);

void BM_AStarPointToPoint(benchmark::State& state) {
  GraphFixture f(static_cast<std::size_t>(state.range(0)));
  const EdgeId target_edge =
      static_cast<EdgeId>(f.network.edge_count() / 2);
  for (auto _ : state) {
    AStarSearch search(&f.pager, Location{0, 0.0});
    benchmark::DoNotOptimize(
        search.DistanceTo(Location{target_edge, 0.0}));
  }
}
BENCHMARK(BM_AStarPointToPoint)->Arg(3000)->Arg(20000);

// EDC's distance pattern: one search from a query point computes exact
// distances to a run of candidates that lie close to each other (here the
// Arg(1) target locations nearest a point part-way across the network,
// visited nearest first, as an R-tree NN browse would hand them out). Each
// probe after the first starts from the frontier the previous ones left.
void BM_AStarProbeSequence(benchmark::State& state) {
  GraphFixture f(static_cast<std::size_t>(state.range(0)));
  const std::size_t count = static_cast<std::size_t>(state.range(1));
  const Point center = f.network.LocationPosition(
      Location{static_cast<EdgeId>(f.network.edge_count() / 3), 0.0});
  std::vector<Location> targets;
  for (EdgeId e = 0; e < f.network.edge_count(); ++e) {
    targets.push_back(Location{e, f.network.EdgeAt(e).length * 0.5});
  }
  const auto nearer = [&](const Location& a, const Location& b) {
    return EuclideanDistance(f.network.LocationPosition(a), center) <
           EuclideanDistance(f.network.LocationPosition(b), center);
  };
  std::partial_sort(targets.begin(), targets.begin() + count, targets.end(),
                    nearer);
  targets.resize(count);
  for (auto _ : state) {
    AStarSearch search(&f.pager, Location{0, 0.0});
    for (const Location& target : targets) {
      benchmark::DoNotOptimize(search.DistanceTo(target));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_AStarProbeSequence)->Args({20000, 64});

void BM_NnStreamFirst10(benchmark::State& state) {
  GraphFixture f(10000);
  InMemoryDiskManager index_disk;
  BufferManager index_buffer(&index_disk, kDefaultBufferFrames);
  const auto objects = GenerateObjects(f.network, 5000, 9);
  SpatialMapping mapping(&f.network, &index_buffer, objects);
  for (auto _ : state) {
    NetworkNnStream stream(&f.pager, &mapping, Location{0, 0.0});
    for (int i = 0; i < 10; ++i) {
      benchmark::DoNotOptimize(stream.Next());
    }
  }
}
BENCHMARK(BM_NnStreamFirst10);

// The in-memory BNL skyline whose window comparisons use the min/max
// summary early exit. Arg(0) = vector count, Arg(1) = dimensions;
// correlated uniform components keep a realistically small skyline.
void BM_SkylineIndices(benchmark::State& state) {
  Rng rng(11);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t dims = static_cast<std::size_t>(state.range(1));
  std::vector<DistVector> vectors(n, DistVector(dims));
  for (auto& v : vectors) {
    for (auto& x : v) x = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SkylineIndices(vectors).size());
  }
}
BENCHMARK(BM_SkylineIndices)
    ->Args({1000, 3})
    ->Args({10000, 3})
    ->Args({10000, 6});

// The dominance kernel every skyline-set scan goes through: 500 rows of
// d = 4. Arg(0) = 1 plants a dominator at the last row (a full scan that
// hits); Arg(0) = 0 leaves the probe undominated (a full scan that misses).
void BM_FirstDominator(benchmark::State& state) {
  constexpr std::size_t kRows = 500;
  constexpr std::size_t kDims = 4;
  Rng rng(13);
  // Rows live in [0.5, 1) in every dimension and the probe in [0, 0.5) in
  // the last one, so no random row dominates it; its other components are
  // uniform in [0, 1), so rows fail at varying components.
  VectorRows rows(kDims);
  DistVector row(kDims);
  for (std::size_t r = 0; r + 1 < kRows; ++r) {
    for (auto& x : row) x = 0.5 + 0.5 * rng.NextDouble();
    rows.Append(row);
  }
  DistVector probe(kDims);
  for (auto& x : probe) x = rng.NextDouble();
  probe[kDims - 1] = 0.5 * rng.NextDouble();
  for (std::size_t d = 0; d < kDims; ++d) {
    row[d] = state.range(0) == 1 ? probe[d] - 0.1 : 1.0;
  }
  rows.Append(row);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FirstDominator(rows, probe, kFpTieMargin));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_FirstDominator)->Arg(0)->Arg(1);

// The kernel on recorded rows: the 373-row, d = 4 skyline LBC reports for
// one na_cold point set (NA x0.5, network seed 1, SampleQuery(4, 1006)),
// probed in turn with the Euclidean lower-bound vector of every 16th
// object, the shape of LBC's R-tree prune at the leaves. Items are rows per
// probe, so items/s compares with the synthetic full scans above.
void BM_FirstDominatorRecorded(benchmark::State& state) {
  WorkloadConfig config;
  config.network = PaperNetworkConfig(NetworkClass::kNA, 0.5, 1);
  Workload workload(config);
  const Dataset dataset = workload.dataset();
  const SkylineQuerySpec spec = workload.SampleQuery(4, 1006);
  const SkylineResult result = RunSkylineQuery(Algorithm::kLbc, dataset, spec);
  VectorRows rows(spec.sources.size());
  for (const SkylineEntry& entry : result.skyline) rows.Append(entry.vector);
  std::vector<DistVector> probes;
  for (ObjectId id = 0; id < dataset.object_count(); id += 16) {
    const Point p = dataset.mapping->ObjectPosition(id);
    DistVector lb;
    for (const Location& source : spec.sources) {
      lb.push_back(
          EuclideanDistance(dataset.network->LocationPosition(source), p));
    }
    probes.push_back(std::move(lb));
  }
  std::size_t next = 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    const std::size_t found =
        FirstDominator(rows, probes[next], kFpTieMargin);
    benchmark::DoNotOptimize(found);
    hits += found < rows.size();
    next = next + 1 < probes.size() ? next + 1 : 0;
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
  state.counters["rows"] = static_cast<double>(rows.size());
  state.counters["hit_frac"] =
      static_cast<double>(hits) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FirstDominatorRecorded);

void BM_EuclideanSkylineBrowse(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, 4096);
  RTree tree(&buffer);
  Rng rng(7);
  std::vector<RTreeEntry> items;
  for (std::uint32_t i = 0; i < 50000; ++i) {
    items.push_back(RTreeEntry{
        Mbr::FromPoint({rng.NextDouble(), rng.NextDouble()}), i});
  }
  tree.BulkLoad(std::move(items));
  const std::vector<Point> queries = {{0.2, 0.2}, {0.8, 0.3}, {0.5, 0.9}};
  for (auto _ : state) {
    EuclideanSkylineBrowser browser(&tree, queries);
    std::size_t count = 0;
    for (auto item = browser.Next(); item.found; item = browser.Next()) {
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_EuclideanSkylineBrowse);

// One 4-source query on a 20 K-node instance (object density 0.5), every
// buffer emptied before each run. The counters are the run's page work:
// net_accesses equals settled when every settle decodes one adjacency
// list; idx_accesses counts middle-layer (CE) or R-tree (EDC) reads.
void RunColdQuery(benchmark::State& state, Algorithm algorithm) {
  WorkloadConfig config;
  config.network = {.node_count = 20000, .edge_count = 26000, .seed = 5};
  Workload workload(config);
  const SkylineQuerySpec spec = workload.SampleQuery(4, 1000);
  QueryStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    workload.ResetBuffers();
    state.ResumeTiming();
    const SkylineResult result =
        RunSkylineQuery(algorithm, workload.dataset(), spec);
    benchmark::DoNotOptimize(result.skyline.size());
    stats = result.stats;
  }
  state.counters["settled"] =
      static_cast<double>(stats.counters.settled_nodes);
  state.counters["net_accesses"] =
      static_cast<double>(stats.network_page_accesses);
  state.counters["net_misses"] = static_cast<double>(stats.network_pages);
  state.counters["idx_accesses"] =
      static_cast<double>(stats.index_page_accesses);
}

void BM_CeColdQuery(benchmark::State& state) {
  RunColdQuery(state, Algorithm::kCe);
}
BENCHMARK(BM_CeColdQuery)->Unit(benchmark::kMillisecond);

void BM_EdcColdQuery(benchmark::State& state) {
  RunColdQuery(state, Algorithm::kEdc);
}
BENCHMARK(BM_EdcColdQuery)->Unit(benchmark::kMillisecond);

void BM_LbcColdQuery(benchmark::State& state) {
  RunColdQuery(state, Algorithm::kLbc);
}
BENCHMARK(BM_LbcColdQuery)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace msq

BENCHMARK_MAIN();
