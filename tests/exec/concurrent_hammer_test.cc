// The PR's end-to-end concurrency acceptance test: eight workers run a
// mixed CE/EDC/LBC batch against one shared fault-injected workload. Every
// result must match its single-threaded oracle, transient faults must be
// absorbed by retries mid-flight, and the per-query counters must sum to
// exactly the registry totals the run produced — nothing lost, nothing
// double-counted.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/metrics.h"
#include "testing_support.h"

namespace msq {
namespace {

constexpr Algorithm kAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                     Algorithm::kLbc};
constexpr std::size_t kWorkers = 8;
constexpr std::size_t kQueries = 8;  // x 3 algorithms = 24 requests

TEST(ConcurrentHammerTest, MixedAlgorithmsUnderFaultsMatchTheOracles) {
  WorkloadConfig config;
  config.network = NetworkGenConfig{220, 290, 5, 0.0};
  config.object_density = 1.0;
  config.object_seed = 11;
  // Pools small enough that the 24 queries constantly evict each other's
  // pages, sharded so they do it concurrently.
  config.graph_buffer_frames = 32;
  config.index_buffer_frames = 32;
  // Transient-only faults with a deep retry budget: per-read failure odds
  // after 10 attempts are ~1e-10, so every query must still succeed — the
  // faults exercise the retry path, not the error path.
  FaultInjectionConfig faults;
  faults.seed = 13;
  faults.transient_read_rate = 0.08;
  config.fault_injection = faults;
  config.retry.max_read_attempts = 10;
  config.retry.max_write_attempts = 10;
  Workload workload(config);  // decorators start disarmed

  std::vector<QueryRequest> requests;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const SkylineQuerySpec spec = workload.SampleQuery(3, 50 + q);
    for (const Algorithm algorithm : kAlgorithms) {
      QueryRequest request;
      request.algorithm = algorithm;
      request.spec = spec;
      requests.push_back(request);
    }
  }

  // Single-threaded fault-free oracles on the identical stack.
  std::vector<SkylineResult> oracles;
  for (const QueryRequest& request : requests) {
    oracles.push_back(
        RunSkylineQuery(request.algorithm, workload.dataset(), request.spec));
    ASSERT_TRUE(oracles.back().status.ok());
  }

  workload.ResetBuffers();
  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  const std::uint64_t net0 =
      registry.counter(obs::metric::kNetworkBufferHits)->value() +
      registry.counter(obs::metric::kNetworkBufferMisses)->value();
  const std::uint64_t idx0 =
      registry.counter(obs::metric::kIndexBufferHits)->value() +
      registry.counter(obs::metric::kIndexBufferMisses)->value();
  const std::uint64_t settled0 =
      registry.counter(obs::metric::kSettledNodes)->value();

  workload.graph_faults()->Arm();
  workload.index_faults()->Arm();
  QueryExecutor executor(workload.dataset(), kWorkers);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);
  workload.graph_faults()->Disarm();
  workload.index_faults()->Disarm();

  ASSERT_EQ(results.size(), oracles.size());
  std::uint64_t net_sum = 0, idx_sum = 0, settled_sum = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SkylineResult& got = results[i];
    const SkylineResult& want = oracles[i];
    ASSERT_TRUE(got.status.ok())
        << "request " << i << ": " << got.status.ToString();
    ASSERT_EQ(got.skyline.size(), want.skyline.size()) << "request " << i;
    for (std::size_t j = 0; j < got.skyline.size(); ++j) {
      EXPECT_EQ(got.skyline[j].object, want.skyline[j].object);
      EXPECT_EQ(got.skyline[j].vector, want.skyline[j].vector);
    }
    net_sum += got.stats.network_page_accesses;
    idx_sum += got.stats.index_page_accesses;
    settled_sum += got.stats.counters.settled_nodes;
  }

  // Conservation: the 24 private per-query counters partition the global
  // registry deltas exactly — the whole point of the thread-local counter
  // substrate.
  EXPECT_EQ(net_sum,
            registry.counter(obs::metric::kNetworkBufferHits)->value() +
                registry.counter(obs::metric::kNetworkBufferMisses)->value() -
                net0);
  EXPECT_EQ(idx_sum,
            registry.counter(obs::metric::kIndexBufferHits)->value() +
                registry.counter(obs::metric::kIndexBufferMisses)->value() -
                idx0);
  EXPECT_EQ(settled_sum,
            registry.counter(obs::metric::kSettledNodes)->value() - settled0);

  // The fault schedule really fired, and retries absorbed all of it.
  EXPECT_GT(workload.graph_faults()->fault_stats().injected_transient_reads +
                workload.index_faults()->fault_stats().injected_transient_reads,
            0u);
  EXPECT_GT(workload.graph_buffer().stats().read_retries +
                workload.index_buffer().stats().read_retries,
            0u);
  EXPECT_EQ(workload.graph_buffer().stats().failed_reads, 0u);
  EXPECT_EQ(workload.index_buffer().stats().failed_reads, 0u);
}

}  // namespace
}  // namespace msq
