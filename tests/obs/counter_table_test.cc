// The per-query counter table (obs/metrics.h MSQ_OBS_COUNTERS): every row
// must reach every copy of the counter block — QueryStats, span self
// counters, execution plans and the /explainz rollup, flight records, the
// global registry, and the Delta/Absorb helper-thread path — and every
// reconciliation oracle must check every row. Table-driven, so a new row
// is covered without touching this file.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query.h"
#include "core/skyline_query.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/plan.h"
#include "obs/trace.h"
#include "testing_support.h"

namespace msq {
namespace {

// Rows where `got` differs from `want`, e.g. "settled_nodes 3 != 4; ";
// empty when the blocks agree.
std::string RowDiff(const obs::Counters& got, const obs::Counters& want) {
  std::string diff;
  for (const obs::CounterRow& row : obs::kCounterRows) {
    if (got.*row.member != want.*row.member) {
      diff += std::string(row.field) + " " +
              std::to_string(got.*row.member) +
              " != " + std::to_string(want.*row.member) + "; ";
    }
  }
  return diff;
}

obs::Counters GlobalTotals() {
  obs::Counters totals;
  for (const obs::CounterRow& row : obs::kCounterRows) {
    totals.*row.member = obs::GlobalMetrics().counter(row.metric)->value();
  }
  return totals;
}

TEST(CounterTableTest, EveryRowFlowsEverywhere) {
  auto workload = testing::MakeRandomWorkload(60, 80, 0.5, 3);
  // StatsScope keeps a reference to the dataset view.
  const Dataset dataset = workload->dataset();
  ASSERT_EQ(obs::kCounterCount, 15u);
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const obs::CounterRow& row = obs::kCounterRows[i];
    SCOPED_TRACE(row.field);
    obs::Counters expected;
    expected.*row.member = 1000 + 37 * i;

    obs::TraceSession trace;
    obs::PlanCollector collector;
    const obs::Counters global_before = GlobalTotals();
    const obs::ThreadCounters thread_before = obs::ThreadLocalCounters();
    QueryStats stats;
    {
      StatsScope scope(dataset, &trace, "row");
      // What a bump site does: once into the registry, once into the
      // calling thread's block.
      obs::GlobalMetrics().counter(row.metric)->Inc(expected.*row.member);
      obs::ThreadLocalCounters().*row.member += expected.*row.member;
      scope.Finish(&stats);
    }
    const obs::QueryProfile profile = trace.Take();

    EXPECT_EQ(RowDiff(stats.counters, expected), "");
    EXPECT_EQ(stats.network_pages, expected.network_misses);
    EXPECT_EQ(stats.network_page_accesses, expected.network_accesses());
    EXPECT_EQ(stats.index_pages, expected.index_misses);
    EXPECT_EQ(stats.index_page_accesses, expected.index_accesses());

    ASSERT_EQ(profile.spans.size(), 1u);
    EXPECT_EQ(RowDiff(profile.spans[0].self, expected), "");
    EXPECT_EQ(obs::ReconcileProfile(profile, stats), "");

    const obs::ExecutionPlan plan = obs::BuildExecutionPlan(
        "row", stats, &profile, &collector, /*truncated=*/false);
    EXPECT_EQ(RowDiff(plan.counters, expected), "");
    ASSERT_EQ(plan.phases.size(), 1u);  // the root's "unattributed" phase
    EXPECT_EQ(RowDiff(plan.phases[0].counters, expected), "");

    obs::PlanStore store;
    store.Account("row", stats);
    ASSERT_EQ(store.Aggregates().size(), 1u);
    EXPECT_EQ(RowDiff(store.Aggregates()[0].second.counters, expected), "");

    obs::FlightRecorder recorder(/*capacity=*/2);
    obs::FlightRecord record;
    record.counters = obs::ThreadLocalCounters() - thread_before;
    recorder.Record(record);
    const std::vector<obs::FlightRecord> records =
        recorder.Snapshot().records;
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(RowDiff(records[0].counters, expected), "");

    EXPECT_EQ(RowDiff(GlobalTotals() - global_before, expected), "");
  }
}

TEST(CounterTableTest, EveryRowIsReconciled) {
  // A real traced LBC run that both oracles accept; nudging any single row
  // of QueryStats, the plan or its phase rollup must be reported, by name.
  auto workload = testing::MakeRandomWorkload(220, 300, 0.6, 37);
  SkylineQuerySpec spec = workload->SampleQuery(4, 137);
  obs::TraceSession trace;
  obs::PlanCollector collector;
  spec.trace = &trace;
  spec.plan = &collector;
  workload->ResetBuffers();
  const SkylineResult result =
      RunSkylineQuery(Algorithm::kLbc, workload->dataset(), spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.profile.has_value());
  const obs::ExecutionPlan plan = obs::BuildExecutionPlan(
      "lbc", result.stats, &*result.profile, &collector, result.truncated);
  ASSERT_EQ(obs::ReconcilePlan(plan, result.stats), "");
  ASSERT_EQ(obs::ReconcileProfile(*result.profile, result.stats), "");

  for (const obs::CounterRow& row : obs::kCounterRows) {
    SCOPED_TRACE(row.field);
    QueryStats stats = result.stats;
    stats.counters.*row.member += 1;
    EXPECT_NE(obs::ReconcileProfile(*result.profile, stats).find(row.field),
              std::string::npos);
    obs::ExecutionPlan tampered = plan;
    tampered.counters.*row.member += 1;
    EXPECT_NE(obs::ReconcilePlan(tampered, result.stats).find(row.field),
              std::string::npos);
    tampered = plan;
    tampered.phases.back().counters.*row.member += 1;
    EXPECT_NE(obs::ReconcilePlan(tampered, result.stats)
                  .find(std::string("phase ") + row.field),
              std::string::npos);
  }
}

}  // namespace
}  // namespace msq
