// Stateful differential suite for the cross-query cache under churn. One
// seeded random sequence of CE/EDC/LBC queries and update_edge / insert /
// delete writes runs through a cached QueryExecutor, the writes under
// SubmitExclusive so the cache is carried over each write
// (QueryCache::Maintain) rather than dropped. Checked after every step:
//   * every answer equals a cold cacheless run on the same world, byte for
//     byte (objects, order, and distance vectors);
//   * after every write, every live memo slot equals the naive Dijkstra
//     distance on the in-memory network, every kept wavefront snapshot's
//     settled labels equal naive node distances, and its finite object
//     estimates are live objects no closer than their true distance.
//
// A failure names its seed. Replay one seed with
// MSQ_CACHE_CHURN_SEED=<n>; widen the budget with MSQ_CACHE_CHURN_SEEDS
// (seeds 1..n) and MSQ_CACHE_CHURN_OPS (steps per seed). ctest runs the
// short default; tools/check.sh runs a longer one under ASan and TSan.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/query_cache.h"
#include "common/rng.h"
#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"

namespace msq {
namespace {

constexpr Algorithm kAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                     Algorithm::kLbc};

std::uint64_t EnvOr(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::strtoull(value, nullptr, 10)
                                            : fallback;
}

std::vector<std::uint64_t> Seeds() {
  if (std::getenv("MSQ_CACHE_CHURN_SEED") != nullptr) {
    return {EnvOr("MSQ_CACHE_CHURN_SEED", 1)};
  }
  std::vector<std::uint64_t> seeds;
  const std::uint64_t count = EnvOr("MSQ_CACHE_CHURN_SEEDS", 3);
  for (std::uint64_t seed = 1; seed <= count; ++seed) seeds.push_back(seed);
  return seeds;
}

// Naive single-source distances from `source` to every node of `network`.
std::vector<Dist> NaiveNodeDistances(const RoadNetwork& network,
                                     const Location& source) {
  using Item = std::pair<Dist, NodeId>;
  std::vector<Dist> dist(network.node_count(), kInfDist);
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const RoadNetwork::Edge& e = network.EdgeAt(source.edge);
  const auto [to_u, to_v] = network.EndpointDistances(source);
  dist[e.u] = std::min(dist[e.u], to_u);
  dist[e.v] = std::min(dist[e.v], to_v);
  heap.push({dist[e.u], e.u});
  heap.push({dist[e.v], e.v});
  while (!heap.empty()) {
    const auto [d, node] = heap.top();
    heap.pop();
    if (d > dist[node]) continue;
    for (const AdjacencyEntry& adj : network.Adjacent(node)) {
      if (d + adj.length < dist[adj.neighbor]) {
        dist[adj.neighbor] = d + adj.length;
        heap.push({dist[adj.neighbor], adj.neighbor});
      }
    }
  }
  return dist;
}

Dist NaiveDistance(const RoadNetwork& network, const std::vector<Dist>& field,
                   const Location& source, const Location& target) {
  const RoadNetwork::Edge& e = network.EdgeAt(target.edge);
  const auto [to_u, to_v] = network.EndpointDistances(target);
  Dist best = std::min(field[e.u] + to_u, field[e.v] + to_v);
  if (target.edge == source.edge) {
    best = std::min(best, std::abs(target.offset - source.offset));
  }
  return best;
}

bool Near(Dist got, Dist want) {
  if (got == want) return true;
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

struct Audit {
  std::size_t slots = 0;
  std::size_t stale_slots = 0;
  std::size_t snapshots = 0;
  std::size_t wrong_labels = 0;
};

// Audits every entry stamped with the current data epoch (any other stamp
// is unreachable: a find drops it).
Audit AuditCache(const QueryCache& cache, Workload& world) {
  const RoadNetwork& network = world.network();
  const SpatialMapping& mapping = world.mapping();
  const std::uint64_t epoch = world.dataset().graph_pager->data_epoch();
  Audit audit;
  for (const QueryCache::EntryView& view : cache.Entries()) {
    if (view.layout_epoch != epoch) continue;
    const std::vector<Dist> field = NaiveNodeDistances(network, view.source);
    for (const auto& [object, dist] : view.memo) {
      ++audit.slots;
      if (!mapping.IsLive(object) ||
          !Near(dist, NaiveDistance(network, field, view.source,
                                    mapping.ObjectLocation(object)))) {
        ++audit.stale_slots;
      }
    }
    if (view.snapshot == nullptr) continue;
    ++audit.snapshots;
    const DijkstraSearch::Checkpoint& search = view.snapshot->search;
    for (NodeId node = 0; node < network.node_count(); ++node) {
      if (search.settled[node] != 0 && !Near(search.dist[node], field[node])) {
        ++audit.wrong_labels;
      }
    }
    const std::vector<Dist>& best = view.snapshot->object_best;
    if (best.size() > mapping.object_count()) ++audit.wrong_labels;
    for (ObjectId id = 0; id < best.size(); ++id) {
      if (!std::isfinite(best[id])) continue;
      if (!mapping.IsLive(id)) {
        ++audit.wrong_labels;
        continue;
      }
      const Dist want = NaiveDistance(network, field, view.source,
                                      mapping.ObjectLocation(id));
      if (best[id] < want && !Near(best[id], want)) ++audit.wrong_labels;
    }
  }
  return audit;
}

void ExpectSameAnswer(const SkylineResult& got, const SkylineResult& want,
                      const std::string& label) {
  ASSERT_TRUE(got.status.ok()) << label << ": " << got.status.ToString();
  ASSERT_TRUE(want.status.ok()) << label;
  ASSERT_FALSE(got.truncated) << label;
  ASSERT_EQ(got.skyline.size(), want.skyline.size()) << label;
  for (std::size_t i = 0; i < got.skyline.size(); ++i) {
    ASSERT_EQ(got.skyline[i].object, want.skyline[i].object)
        << label << " entry " << i;
    ASSERT_EQ(got.skyline[i].vector, want.skyline[i].vector)
        << label << " entry " << i;
  }
}

struct RunTotals {
  Audit audit;
  std::size_t queries = 0;
  std::size_t writes = 0;
  std::uint64_t carried = 0;
};

// One seeded sequence. Stops at the first failure.
void RunSeed(std::uint64_t seed, std::size_t steps, RunTotals* totals) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  WorkloadConfig config;
  config.network = PaperNetworkConfig(NetworkClass::kCA, 0.2, seed);
  config.object_density = 0.5;
  config.object_seed = seed * 31 + 7;
  Workload world(config);

  // A small pool of point sets, so queries come back to cached sources.
  std::vector<SkylineQuerySpec> pool;
  for (std::uint64_t i = 0; i < 8; ++i) {
    pool.push_back(world.SampleQuery(2 + i % 3, seed * 1000 + i));
  }

  // Shortening an edge below a pooled source's offset would make the
  // source invalid; updates keep each such edge at least that long.
  std::vector<Dist> min_length(world.network().edge_count(), 0.0);
  for (const SkylineQuerySpec& spec : pool) {
    for (const Location& source : spec.sources) {
      min_length[source.edge] = std::max(min_length[source.edge],
                                         source.offset);
    }
  }

  QueryCacheConfig cache_config;
  cache_config.max_bytes = seed % 2 == 0 ? (256u << 10) : (8u << 20);
  QueryExecutor executor(world.dataset(), /*workers=*/2, cache_config);
  const QueryCache& cache = *executor.cache();

  for (std::size_t step = 0; step < steps; ++step) {
    const std::string at = "step " + std::to_string(step);
    if (rng.NextBounded(3) != 0) {
      // A few queries at once, so the two workers share the cache.
      std::vector<QueryRequest> batch(1 + rng.NextBounded(4));
      for (QueryRequest& request : batch) {
        request.algorithm = kAlgorithms[rng.NextBounded(3)];
        request.spec = pool[rng.NextBounded(pool.size())];
      }
      const std::vector<SkylineResult> results = executor.RunBatch(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const SkylineResult cold = RunSkylineQuery(
            batch[i].algorithm, world.dataset(), batch[i].spec);
        ExpectSameAnswer(results[i], cold,
                         at + " " + std::string(AlgorithmName(batch[i].algorithm)));
        if (::testing::Test::HasFatalFailure()) return;
      }
      totals->queries += batch.size();
      continue;
    }

    // A write in the served mix: update, update, insert, update, update,
    // delete.
    const RoadNetwork& network = world.network();
    const std::uint64_t kind = rng.NextBounded(6);
    std::function<Status()> write;
    if (kind == 2) {
      const EdgeId edge =
          static_cast<EdgeId>(rng.NextBounded(network.edge_count()));
      const Location loc{edge, network.EdgeAt(edge).length * rng.NextDouble()};
      write = [&world, loc] { return world.InsertObject(loc).status(); };
    } else if (kind == 5) {
      const ObjectId id = static_cast<ObjectId>(
          rng.NextBounded(world.mapping().object_count()));
      write = [&world, id] { return world.DeleteObject(id).status(); };
    } else {
      // Half the updates hit a pooled source's own edge or a neighbour of
      // its endpoint, where carrying over is hardest.
      EdgeId edge = static_cast<EdgeId>(rng.NextBounded(network.edge_count()));
      if (rng.NextBounded(2) == 0) {
        const SkylineQuerySpec& spec = pool[rng.NextBounded(pool.size())];
        const Location& source =
            spec.sources[rng.NextBounded(spec.sources.size())];
        const auto adjacent = network.Adjacent(network.EdgeAt(source.edge).u);
        edge = rng.NextBounded(3) == 0
                   ? source.edge
                   : adjacent[rng.NextBounded(adjacent.size())].edge;
      }
      const Dist length =
          std::max(min_length[edge],
                   network.EdgeAt(edge).length * (0.5 + 1.5 * rng.NextDouble()));
      write = [&world, edge, length] {
        return world.UpdateEdgeWeight(edge, length).status();
      };
    }
    ASSERT_TRUE(executor.SubmitExclusive(std::move(write)).get().ok()) << at;
    ++totals->writes;
    const Audit audit = AuditCache(cache, world);
    EXPECT_EQ(audit.stale_slots, 0u) << at;
    EXPECT_EQ(audit.wrong_labels, 0u) << at;
    totals->audit.slots += audit.slots;
    totals->audit.stale_slots += audit.stale_slots;
    totals->audit.snapshots += audit.snapshots;
    totals->audit.wrong_labels += audit.wrong_labels;
    if (::testing::Test::HasFailure()) return;
  }
  totals->carried += cache.stats().carried;
}

TEST(CacheChurnDifferentialTest, WarmAnswersAndCarriedStateMatchTheOracle) {
  const std::size_t steps = EnvOr("MSQ_CACHE_CHURN_OPS", 120);
  RunTotals totals;
  for (const std::uint64_t seed : Seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 " (replay with MSQ_CACHE_CHURN_SEED=" +
                 std::to_string(seed) + ")");
    RunSeed(seed, steps, &totals);
    if (HasFailure()) return;
  }
  std::printf(
      "[ churn    ] %zu queries, %zu writes; %llu entries carried; audited "
      "%zu memo slots and %zu snapshots: %zu stale slots, %zu wrong labels\n",
      totals.queries, totals.writes,
      static_cast<unsigned long long>(totals.carried), totals.audit.slots,
      totals.audit.snapshots, totals.audit.stale_slots,
      totals.audit.wrong_labels);
  // The suite must exercise the carry-over, not only the fallback drop.
  EXPECT_GT(totals.carried, 0u);
  EXPECT_GT(totals.audit.slots, 0u);
  EXPECT_GT(totals.audit.snapshots, 0u);
}

}  // namespace
}  // namespace msq
