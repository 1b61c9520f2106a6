// Trace-id conservation under concurrency: an 8-worker executor hammered
// with requests that each carry their own TraceContext must stamp every
// flight record with exactly the submitted id — no swaps between workers,
// no re-mints, no losses. Also pins the tail-sampling guarantees end to
// end: 100% of slow/errored/truncated runs retained, fast runs retained
// only when head-sampled. Suite name starts with "Executor" so the
// tools/check.sh tsan filter picks it up.
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/telemetry.h"
#include "obs/trace_store.h"

namespace msq {
namespace {

std::unique_ptr<Workload> SmallWorkload() {
  WorkloadConfig config;
  config.network = NetworkGenConfig{180, 240, 5, 0.0};
  config.object_density = 1.0;
  config.object_seed = 19;
  return std::make_unique<Workload>(config);
}

TEST(ExecutorTraceConservationTest, EveryFlightRecordKeepsItsTraceId) {
  const std::unique_ptr<Workload> workload = SmallWorkload();
  constexpr std::size_t kQueries = 96;
  obs::MetricsRegistry registry;
  obs::TelemetryConfig telemetry;
  telemetry.registry = &registry;
  telemetry.flight_capacity = kQueries;
  telemetry.trace_capacity = kQueries;
  QueryExecutor executor(workload->dataset(), /*workers=*/8, telemetry);

  // Each request carries a distinct minted context; every 6th is
  // head-sampled via its flags bit.
  std::map<std::string, bool> submitted;  // trace hex -> sampled
  std::vector<QueryRequest> requests;
  constexpr Algorithm kAlgos[] = {Algorithm::kCe, Algorithm::kEdc,
                                  Algorithm::kLbc};
  for (std::size_t q = 0; q < kQueries; ++q) {
    QueryRequest request;
    request.algorithm = kAlgos[q % 3];
    request.spec = workload->SampleQuery(3, 100 + q);
    request.trace_context = obs::TraceContext::Mint(q % 6 == 0);
    submitted[request.trace_context.TraceIdHex()] =
        request.trace_context.sampled;
    requests.push_back(std::move(request));
  }
  ASSERT_EQ(submitted.size(), kQueries);
  const std::vector<SkylineResult> results =
      executor.RunBatch(std::move(requests));
  for (const SkylineResult& result : results) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }

  // Conservation: the flight ring holds exactly the submitted ids, each
  // once.
  const std::vector<obs::FlightRecord> flight =
      executor.telemetry().flight_recorder().Snapshot().records;
  ASSERT_EQ(flight.size(), kQueries);
  std::set<std::string> seen;
  char hex[33];
  for (const obs::FlightRecord& record : flight) {
    std::snprintf(hex, sizeof(hex), "%016llx%016llx",
                  static_cast<unsigned long long>(record.trace_id_hi),
                  static_cast<unsigned long long>(record.trace_id_lo));
    EXPECT_TRUE(submitted.count(hex) == 1) << "unknown trace id " << hex;
    EXPECT_TRUE(seen.insert(hex).second) << "duplicate trace id " << hex;
  }
  EXPECT_EQ(seen.size(), kQueries);

  // Tail policy on a healthy fast batch: retained == the head-sampled
  // subset (every retained id was submitted sampled, and every sampled id
  // that completed cleanly is retained).
  std::size_t sampled_and_clean = 0;
  for (std::size_t i = 0; i < flight.size(); ++i) {
    std::snprintf(hex, sizeof(hex), "%016llx%016llx",
                  static_cast<unsigned long long>(flight[i].trace_id_hi),
                  static_cast<unsigned long long>(flight[i].trace_id_lo));
    const bool sampled = submitted.at(hex);
    const bool clean =
        flight[i].status_code == 0 && flight[i].truncation == 0;
    if (sampled && clean) ++sampled_and_clean;
    if (!sampled && clean) {
      // Fast, healthy, unsampled: must NOT be retained (no slow
      // thresholds are configured, so nothing else can keep it).
      EXPECT_FALSE(executor.telemetry().trace_store().Contains(
          flight[i].trace_id_hi, flight[i].trace_id_lo))
          << "unsampled fast trace retained: " << hex;
    }
    if (sampled) {
      EXPECT_TRUE(executor.telemetry().trace_store().Contains(
          flight[i].trace_id_hi, flight[i].trace_id_lo))
          << "head-sampled trace dropped: " << hex;
    }
  }
  EXPECT_GT(sampled_and_clean, 0u);
}

TEST(ExecutorTraceConservationTest, SlowAndTruncatedAlwaysRetained) {
  const std::unique_ptr<Workload> workload = SmallWorkload();
  obs::MetricsRegistry registry;
  obs::TelemetryConfig telemetry;
  telemetry.registry = &registry;
  // Every query is "slow": wall threshold below any real execution.
  telemetry.slow_wall_seconds = 1e-9;
  telemetry.trace_capacity = 64;
  QueryExecutor executor(workload->dataset(), /*workers=*/4, telemetry);

  std::vector<QueryRequest> requests;
  for (std::size_t q = 0; q < 16; ++q) {
    QueryRequest request;
    request.algorithm = Algorithm::kCe;
    request.spec = workload->SampleQuery(2, 300 + q);
    if (q % 4 == 0) {
      request.spec.limits.max_page_accesses = 1;  // force truncation
    }
    request.trace_context = obs::TraceContext::Mint(/*sampled=*/false);
    requests.push_back(std::move(request));
  }
  const std::vector<SkylineResult> results =
      executor.RunBatch(std::move(requests));
  std::size_t truncated = 0;
  for (const SkylineResult& result : results) truncated += result.truncated;
  EXPECT_GT(truncated, 0u);
  // 100% retention: one trace per query, none dropped despite sampled
  // being false on every context.
  const auto retained = executor.telemetry().trace_store().Snapshot();
  EXPECT_EQ(retained.total, 16u);
  for (const obs::RetainedTrace& trace : retained.records) {
    EXPECT_TRUE(trace.reason == obs::RetainReason::kSlow ||
                trace.reason == obs::RetainReason::kTruncated ||
                trace.reason == obs::RetainReason::kError);
  }
}

}  // namespace
}  // namespace msq
