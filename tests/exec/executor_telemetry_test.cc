// Serving telemetry through QueryExecutor: per-algorithm histograms whose
// count/sum reconcile exactly with the counter registry and with the
// batch's own QueryStats totals, flight records matching the batch,
// slow-query retention in the trace store (threshold triggers, bounded
// store, profile reuse), and the disabled configuration recording
// nothing. The suite name matches the tools/check.sh tsan -R "Executor"
// filter, so everything here also runs under TSan.
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/metrics.h"
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

std::vector<QueryRequest> MixedRequests(const Workload& workload,
                                        std::size_t queries) {
  std::vector<QueryRequest> requests;
  for (std::size_t q = 0; q < queries; ++q) {
    const SkylineQuerySpec spec = workload.SampleQuery(3, 40 + q);
    for (const Algorithm algorithm : kAlgorithms) {
      QueryRequest request;
      request.algorithm = algorithm;
      request.spec = spec;
      requests.push_back(request);
    }
  }
  return requests;
}

// What each per-algorithm histogram family must add up to, accumulated
// from the batch's own results.
struct AlgoTotals {
  std::uint64_t queries = 0;
  std::uint64_t latency_us = 0;
  std::uint64_t network_accesses = 0;
  std::uint64_t index_accesses = 0;
  std::uint64_t settled = 0;
};

TEST(ExecutorTelemetryTest, HistogramsReconcileWithQueryStats) {
  auto workload = SharedWorkload();
  const std::vector<QueryRequest> requests = MixedRequests(*workload, 5);

  obs::MetricsRegistry registry;
  obs::TelemetryConfig config;
  config.registry = &registry;
  QueryExecutor executor(workload->dataset(), /*workers=*/3, config);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);

  std::map<std::string, AlgoTotals> expected;
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << "request " << i;
    AlgoTotals& totals =
        expected[std::string(AlgorithmName(requests[i].algorithm))];
    ++totals.queries;
    totals.latency_us += static_cast<std::uint64_t>(
        std::llround(results[i].stats.total_seconds * 1e6));
    totals.network_accesses += results[i].stats.network_page_accesses;
    totals.index_accesses += results[i].stats.index_page_accesses;
    totals.settled += results[i].stats.counters.settled_nodes;
  }
  ASSERT_EQ(expected.size(), 3u);

  std::uint64_t histogram_query_count = 0;
  for (const auto& [algo, totals] : expected) {
    const std::string prefix = "exec." + algo + ".";
    const obs::Histogram* latency =
        registry.histogram(prefix + obs::metric::kLatencyUsHist);
    // _count/_sum reconcile exactly: same integers as ΣQueryStats.
    EXPECT_EQ(latency->count(), totals.queries) << algo;
    EXPECT_EQ(latency->sum(), totals.latency_us) << algo;
    histogram_query_count += latency->count();

    const obs::Histogram* network =
        registry.histogram(prefix + obs::metric::kNetworkPageAccessesHist);
    EXPECT_EQ(network->count(), totals.queries) << algo;
    EXPECT_EQ(network->sum(), totals.network_accesses) << algo;

    const obs::Histogram* index =
        registry.histogram(prefix + obs::metric::kIndexPageAccessesHist);
    EXPECT_EQ(index->count(), totals.queries) << algo;
    EXPECT_EQ(index->sum(), totals.index_accesses) << algo;

    const obs::Histogram* settled =
        registry.histogram(prefix + obs::metric::kSettledNodesHist);
    EXPECT_EQ(settled->count(), totals.queries) << algo;
    EXPECT_EQ(settled->sum(), totals.settled) << algo;
  }
  // ...and with the counter registry: one exec.queries tick per histogram
  // observation.
  EXPECT_EQ(registry.counter(obs::metric::kExecQueries)->value(),
            requests.size());
  EXPECT_EQ(histogram_query_count, requests.size());
  EXPECT_EQ(executor.telemetry().flight_recorder().Snapshot().total,
            requests.size());
}

TEST(ExecutorTelemetryTest, FlightRecordsMatchTheBatch) {
  auto workload = SharedWorkload();
  const std::vector<QueryRequest> requests = MixedRequests(*workload, 4);

  obs::MetricsRegistry registry;
  obs::TelemetryConfig config;
  config.registry = &registry;
  QueryExecutor executor(workload->dataset(), /*workers=*/3, config);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);

  const std::vector<obs::FlightRecord> records =
      executor.telemetry().flight_recorder().Snapshot().records;
  ASSERT_EQ(records.size(), requests.size());

  // Completion order is arbitrary; match records to requests through the
  // spec digest (distinct per (algorithm, spec) here).
  std::map<std::uint64_t, const SkylineResult*> by_digest;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::uint64_t digest =
        QuerySpecDigest(requests[i].algorithm, requests[i].spec);
    ASSERT_EQ(by_digest.count(digest), 0u) << "digest collision";
    by_digest[digest] = &results[i];
  }

  std::uint64_t last_sequence = 0;
  for (const obs::FlightRecord& record : records) {
    EXPECT_GT(record.sequence, last_sequence);  // unique and ascending
    last_sequence = record.sequence;
    ASSERT_EQ(by_digest.count(record.spec_digest), 1u);
    const SkylineResult& result = *by_digest[record.spec_digest];
    EXPECT_EQ(record.status_code, 0);
    EXPECT_EQ(record.truncation, 0u);
    EXPECT_EQ(record.skyline_size, result.skyline.size());
    EXPECT_EQ(record.source_count, 3u);
    // Every counter row, not only the pages and settles the ring reports.
    EXPECT_EQ(record.counters, result.stats.counters);
    EXPECT_DOUBLE_EQ(record.wall_seconds, result.stats.total_seconds);
  }
}

// The flight record of every retained trace, matched by sequence.
std::map<std::uint64_t, obs::FlightRecord> FlightBySequence(
    const QueryExecutor& executor) {
  std::map<std::uint64_t, obs::FlightRecord> by_sequence;
  for (const obs::FlightRecord& record :
       executor.telemetry().flight_recorder().Snapshot().records) {
    by_sequence[record.sequence] = record;
  }
  return by_sequence;
}

TEST(ExecutorTelemetryTest, SlowCaptureTriggersAndStaysBounded) {
  auto workload = SharedWorkload();
  const std::vector<QueryRequest> requests = MixedRequests(*workload, 4);

  obs::MetricsRegistry registry;
  obs::TelemetryConfig config;
  config.registry = &registry;
  config.slow_wall_seconds = 1e-12;  // everything is slow
  config.trace_capacity = 3;
  QueryExecutor executor(workload->dataset(), /*workers=*/2, config);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);
  for (const SkylineResult& result : results) {
    ASSERT_TRUE(result.status.ok());
  }
  // Retention runs after the futures resolve; wait for the workers to
  // finish it before reading the telemetry.
  executor.Quiesce();

  // Every completion crossed the threshold and was counted and retained
  // exactly once; the store keeps the newest `trace_capacity` of them.
  EXPECT_EQ(registry.counter(obs::metric::kExecSlowQueryCount)->value(),
            requests.size());
  EXPECT_EQ(registry.counter(obs::metric::kTracesRetained)->value(),
            requests.size());
  const auto retained = executor.telemetry().trace_store().Snapshot();
  EXPECT_EQ(retained.total, requests.size());
  EXPECT_EQ(retained.evicted, requests.size() - config.trace_capacity);
  ASSERT_EQ(retained.records.size(), config.trace_capacity);
  const std::map<std::uint64_t, obs::FlightRecord> flight =
      FlightBySequence(executor);
  for (const obs::RetainedTrace& trace : retained.records) {
    EXPECT_EQ(trace.reason, obs::RetainReason::kSlow);
    ASSERT_EQ(flight.count(trace.sequence), 1u);
    const obs::FlightRecord& record = flight.at(trace.sequence);
    // The retained profile is the traced run of the same query: spans
    // present, its work matching the completion, and its wall time the
    // flight record's.
    ASSERT_FALSE(trace.profile.spans.empty());
    EXPECT_EQ(trace.profile.TotalCounters().settled_nodes,
              record.counters.settled_nodes);
    EXPECT_DOUBLE_EQ(trace.wall_seconds, record.wall_seconds);
    EXPECT_GT(trace.wall_seconds, 0.0);
  }
}

TEST(ExecutorTelemetryTest, SlowCaptureReusesCallerRequestedProfile) {
  auto workload = SharedWorkload();
  std::vector<QueryRequest> requests = MixedRequests(*workload, 2);
  for (QueryRequest& request : requests) request.collect_profile = true;

  obs::MetricsRegistry registry;
  obs::TelemetryConfig config;
  config.registry = &registry;
  config.slow_page_accesses = 1;  // page-budget trigger this time
  QueryExecutor executor(workload->dataset(), /*workers=*/2, config);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);
  std::map<std::uint64_t, const SkylineResult*> by_sequence;
  for (const SkylineResult& result : results) {
    ASSERT_TRUE(result.status.ok());
    ASSERT_TRUE(result.profile.has_value());
    by_sequence[result.flight_sequence] = &result;
  }
  executor.Quiesce();

  EXPECT_EQ(registry.counter(obs::metric::kExecSlowQueryCount)->value(),
            requests.size());
  const std::vector<obs::RetainedTrace> retained =
      executor.telemetry().trace_store().Snapshot().records;
  ASSERT_EQ(retained.size(), requests.size());
  const std::map<std::uint64_t, obs::FlightRecord> flight =
      FlightBySequence(executor);
  std::map<std::uint64_t, int> seen;
  for (const obs::RetainedTrace& trace : retained) {
    EXPECT_EQ(trace.reason, obs::RetainReason::kSlow);
    EXPECT_EQ(++seen[trace.sequence], 1) << "retained twice";
    ASSERT_EQ(by_sequence.count(trace.sequence), 1u);
    ASSERT_EQ(flight.count(trace.sequence), 1u);
    // Reuse path: the caller already paid for the trace, so the retained
    // profile is the caller's copy of that same run.
    const SkylineResult& result = *by_sequence.at(trace.sequence);
    EXPECT_EQ(trace.profile.spans.size(), result.profile->spans.size());
    EXPECT_EQ(trace.profile.TotalCounters(),
              result.profile->TotalCounters());
    EXPECT_DOUBLE_EQ(trace.wall_seconds,
                     flight.at(trace.sequence).wall_seconds);
    EXPECT_DOUBLE_EQ(trace.wall_seconds, result.stats.total_seconds);
  }
}

TEST(ExecutorTelemetryTest, DisabledTelemetryRecordsNothing) {
  auto workload = SharedWorkload();
  const std::vector<QueryRequest> requests = MixedRequests(*workload, 2);

  obs::MetricsRegistry registry;
  obs::TelemetryConfig config;
  config.registry = &registry;
  config.enabled = false;
  config.slow_wall_seconds = 1e-12;  // would fire if telemetry were on
  QueryExecutor executor(workload->dataset(), /*workers=*/2, config);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);
  for (const SkylineResult& result : results) {
    ASSERT_TRUE(result.status.ok());
    EXPECT_FALSE(result.skyline.empty());
  }

  EXPECT_FALSE(executor.telemetry().enabled());
  EXPECT_EQ(executor.telemetry().flight_recorder().Snapshot().total, 0u);
  EXPECT_EQ(executor.telemetry().trace_store().Snapshot().total, 0u);
  EXPECT_EQ(registry.counter(obs::metric::kExecQueries)->value(), 0u);
  EXPECT_EQ(registry.counter(obs::metric::kExecSlowQueryCount)->value(), 0u);
  std::size_t histograms = 0;
  registry.ForEachHistogram(
      [&histograms](const std::string&, const obs::Histogram&) {
        ++histograms;
      });
  EXPECT_EQ(histograms, 0u);  // created lazily, only on RecordQuery
}

}  // namespace
}  // namespace msq
