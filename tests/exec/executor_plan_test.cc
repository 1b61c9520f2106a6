// EXPLAIN plans under concurrency: every plan a QueryExecutor hands back
// must reconcile exactly with that result's own QueryStats — across 8
// workers sharing the buffer pools, across a warm cross-query cache where
// lookups split into memo/wavefront/computed tiers, and with telemetry
// disabled. The suite name matches the tools/check.sh tsan -R "Executor"
// filter, so everything here also runs under TSan.
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/query_cache.h"
#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/metrics.h"
#include "obs/plan.h"
#include "obs/telemetry.h"

namespace msq {
namespace {

constexpr Algorithm kAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                     Algorithm::kLbc};

std::unique_ptr<Workload> SharedWorkload() {
  WorkloadConfig config;
  config.network = NetworkGenConfig{220, 290, 5, 0.0};
  config.object_density = 1.0;
  config.object_seed = 11;
  config.graph_buffer_frames = 32;
  config.index_buffer_frames = 32;
  return std::make_unique<Workload>(config);
}

std::vector<QueryRequest> PlanRequests(const Workload& workload,
                                       std::size_t queries) {
  std::vector<QueryRequest> requests;
  for (std::size_t q = 0; q < queries; ++q) {
    const SkylineQuerySpec spec = workload.SampleQuery(3, 40 + q);
    for (const Algorithm algorithm : kAlgorithms) {
      QueryRequest request;
      request.algorithm = algorithm;
      request.spec = spec;
      request.collect_plan = true;
      requests.push_back(request);
    }
  }
  return requests;
}

// The per-result oracle: the plan must be present and every counter in it
// must equal this result's QueryStats exactly.
void ExpectPlanReconciles(const QueryRequest& request,
                          const SkylineResult& result, std::size_t index) {
  ASSERT_TRUE(result.status.ok()) << "request " << index;
  ASSERT_TRUE(result.plan.has_value()) << "request " << index;
  EXPECT_EQ(obs::ReconcilePlan(*result.plan, result.stats), "")
      << "request " << index;
  EXPECT_EQ(result.plan->algorithm, AlgorithmName(request.algorithm));
  EXPECT_EQ(result.plan->skyline_size, result.skyline.size());
  EXPECT_EQ(result.plan->sources.size(), request.spec.sources.size());
}

TEST(ExecutorPlanTest, PlansReconcileAcrossEightWorkers) {
  auto workload = SharedWorkload();
  const std::vector<QueryRequest> requests = PlanRequests(*workload, 6);

  obs::MetricsRegistry registry;
  obs::TelemetryConfig config;
  config.registry = &registry;
  QueryExecutor executor(workload->dataset(), /*workers=*/8, config);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);

  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ExpectPlanReconciles(requests[i], results[i], i);
    // Cacheless executor: every exact lookup was a real computation.
    EXPECT_EQ(results[i].plan->tiers.memo_hits, 0u);
    EXPECT_EQ(results[i].plan->tiers.wavefront_exact, 0u);
    EXPECT_GT(results[i].plan->tiers.computed, 0u);
  }
  executor.Quiesce();

  // With telemetry on, every explain-requested completion is retained for
  // /explainz.
  const obs::PlanStore& plans = executor.telemetry().plans();
  const auto window = plans.Snapshot();
  EXPECT_EQ(window.total, requests.size());
  const std::vector<obs::RetainedPlan>& retained = window.records;
  ASSERT_EQ(retained.size(), requests.size());
  std::set<std::uint64_t> sequences;
  std::uint64_t last_sequence = 0;
  for (const obs::RetainedPlan& entry : retained) {
    EXPECT_GT(entry.sequence, last_sequence);  // unique and ascending
    last_sequence = entry.sequence;
    sequences.insert(entry.sequence);
    EXPECT_TRUE(entry.plan.algorithm == "ce" ||
                entry.plan.algorithm == "edc" ||
                entry.plan.algorithm == "lbc")
        << entry.plan.algorithm;
    // The executor mints a trace context for every query, so the retained
    // plan can point back at its trace.
    EXPECT_EQ(entry.trace_id.size(), 32u);
  }
  EXPECT_EQ(sequences.size(), requests.size());
}

TEST(ExecutorPlanTest, WarmCachePlansAttributeTiersAndStillReconcile) {
  auto workload = SharedWorkload();
  const std::vector<QueryRequest> requests = PlanRequests(*workload, 4);

  obs::MetricsRegistry registry;
  obs::TelemetryConfig telemetry_config;
  telemetry_config.registry = &registry;
  QueryCacheConfig cache_config;
  QueryExecutor executor(workload->dataset(), /*workers=*/8, cache_config,
                         telemetry_config);

  // Cold round populates the cross-query cache; warm round repeats the
  // identical batch, so memo/wavefront hits must appear.
  const std::vector<SkylineResult> cold = executor.RunBatch(requests);
  const std::vector<SkylineResult> warm = executor.RunBatch(requests);

  std::uint64_t warm_tier_hits = 0;
  std::uint64_t warm_cache_hits = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ExpectPlanReconciles(requests[i], cold[i], i);
    ExpectPlanReconciles(requests[i], warm[i], i);
    // ReconcilePlan already pinned plan.cache_hits to the stats cache
    // counters; the tier attribution is the collector's independent view
    // of where those hits landed.
    warm_tier_hits += warm[i].plan->tiers.memo_hits +
                      warm[i].plan->tiers.wavefront_exact;
    warm_cache_hits += warm[i].stats.counters.cache_memo_hits +
                       warm[i].stats.counters.cache_wavefront_hits;
  }
  EXPECT_GT(warm_cache_hits, 0u);
  EXPECT_GT(warm_tier_hits, 0u);

  executor.Quiesce();
  EXPECT_EQ(executor.telemetry().plans().Snapshot().total,
            2 * requests.size());
}

TEST(ExecutorPlanTest, CallerWithoutFlagGetsNoPlanCopy) {
  auto workload = SharedWorkload();
  std::vector<QueryRequest> requests = PlanRequests(*workload, 2);
  for (QueryRequest& request : requests) request.collect_plan = false;

  obs::MetricsRegistry registry;
  obs::TelemetryConfig config;
  config.registry = &registry;
  QueryExecutor executor(workload->dataset(), /*workers=*/4, config);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);
  for (const SkylineResult& result : results) {
    ASSERT_TRUE(result.status.ok());
    EXPECT_FALSE(result.plan.has_value());
  }
  executor.Quiesce();
  // Without the flag no full plan is built or retained, but the /explainz
  // pruning rollup still accounted every completion.
  EXPECT_EQ(executor.telemetry().plans().Snapshot().total, 0u);
  EXPECT_EQ(executor.telemetry().plans().accounted_total(), requests.size());
}

TEST(ExecutorPlanTest, DisabledTelemetryStillHonorsExplicitPlanRequests) {
  auto workload = SharedWorkload();
  const std::vector<QueryRequest> requests = PlanRequests(*workload, 2);

  obs::MetricsRegistry registry;
  obs::TelemetryConfig config;
  config.registry = &registry;
  config.enabled = false;
  QueryExecutor executor(workload->dataset(), /*workers=*/4, config);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    // An explicit collect_plan still yields a reconciling plan; without
    // telemetry there is no trace session, so it has no phase breakdown.
    ASSERT_TRUE(results[i].plan.has_value());
    EXPECT_EQ(obs::ReconcilePlan(*results[i].plan, results[i].stats), "");
    EXPECT_TRUE(results[i].plan->phases.empty());
  }
  // ...and nothing is retained for /explainz.
  EXPECT_EQ(executor.telemetry().plans().Snapshot().total, 0u);
}

}  // namespace
}  // namespace msq
