// Tail-sampling stores: TraceStore retention/eviction, the Chrome-trace
// export shape, wide events and their JSONL form, exemplars, and the
// retention-priority policy in ServingTelemetry::CompleteRequest.
#include "obs/trace_store.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace msq::obs {
namespace {

RetainedTrace MakeTrace(std::uint64_t lo, RetainReason reason) {
  RetainedTrace trace;
  trace.trace_id_hi = 0xabcdef0011223344ull;
  trace.trace_id_lo = lo;
  trace.algorithm = "ce";
  trace.reason = reason;
  trace.queue_seconds = 0.002;
  trace.wall_seconds = 0.010;
  SpanRecord root;
  root.name = "ce";
  root.parent = -1;
  root.start_seconds = 0.0;
  root.end_seconds = 0.010;
  trace.profile.spans.push_back(root);
  return trace;
}

TEST(TraceStoreTest, FindAndContainsByTraceId) {
  TraceStore store(/*capacity=*/8);
  store.Retain(MakeTrace(1, RetainReason::kSlow));
  store.Retain(MakeTrace(2, RetainReason::kError));
  EXPECT_TRUE(store.Contains(0xabcdef0011223344ull, 1));
  EXPECT_TRUE(store.Contains(0xabcdef0011223344ull, 2));
  EXPECT_FALSE(store.Contains(0xabcdef0011223344ull, 3));
  const std::string hex = MakeTrace(2, RetainReason::kError).TraceIdHex();
  ASSERT_EQ(hex.size(), 32u);
  const std::optional<RetainedTrace> found = store.Find(hex);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->reason, RetainReason::kError);
  EXPECT_FALSE(store.Find("00000000000000000000000000000000").has_value());
}

TEST(TraceStoreTest, CapacityEvictsOldestFirst) {
  TraceStore store(/*capacity=*/4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    store.Retain(MakeTrace(i, RetainReason::kHeadSampled));
  }
  const std::vector<RetainedTrace> snapshot = store.Snapshot().records;
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot.front().trace_id_lo, 7u);  // oldest survivor
  EXPECT_EQ(snapshot.back().trace_id_lo, 10u);
  const auto window = store.Snapshot();
  EXPECT_EQ(window.total, 10u);
  EXPECT_EQ(window.evicted, 6u);
  EXPECT_NE(TracezJson(store).find("\"retained_total\":10,"
                                   "\"evicted_total\":6,\"capacity\":4"),
            std::string::npos);
  EXPECT_FALSE(store.Contains(0xabcdef0011223344ull, 1));
}

TEST(TraceStoreTest, ChromeExportHasRequestQueueAndProfileSpans) {
  const RetainedTrace trace = MakeTrace(5, RetainReason::kSlow);
  const std::string json = RetainedTraceChromeJson(trace);
  // Synthetic request root and queue_wait child, then the recorded span,
  // every event tagged with the trace id.
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ce\""), std::string::npos);
  EXPECT_NE(json.find(trace.TraceIdHex()), std::string::npos);
  // Valid Chrome trace shape: a bare JSON array of "X" events.
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceStoreTest, TracezJsonListsRetainedSummaries) {
  TraceStore store;
  store.Retain(MakeTrace(9, RetainReason::kTruncated));
  const std::string json = TracezJson(store);
  EXPECT_NE(json.find("\"retained\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"truncated\""), std::string::npos);
  EXPECT_NE(json.find("\"retained_total\":1"), std::string::npos);
  EXPECT_NE(json.find(MakeTrace(9, RetainReason::kNone).TraceIdHex()),
            std::string::npos);
}

TEST(WideEventTest, ToJsonCarriesStageDecomposition) {
  WideEvent event;
  event.trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
  event.request_id = "req-7";
  event.algorithm = "lbc";
  event.outcome = "completed";
  event.http_status = 200;
  event.sampled = true;
  event.trace_retained = true;
  event.queue_ms = 1.5;
  event.parse_ms = 0.25;
  event.execute_ms = 10.0;
  event.serialize_ms = 0.5;
  event.write_ms = 0.125;
  event.total_ms = 12.5;
  event.skyline_size = 42;
  event.returned = 10;
  const std::string json = event.ToJson();
  EXPECT_NE(json.find("\"trace_id\":\"4bf92f3577b34da6a3ce929d0e0e4736\""),
            std::string::npos);
  EXPECT_NE(json.find("\"id\":\"req-7\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"completed\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_ms\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"parse_ms\":0.250"), std::string::npos);
  EXPECT_NE(json.find("\"execute_ms\":10.000"), std::string::npos);
  EXPECT_NE(json.find("\"serialize_ms\":0.500"), std::string::npos);
  EXPECT_NE(json.find("\"write_ms\":0.125"), std::string::npos);
  EXPECT_NE(json.find("\"total_ms\":12.500"), std::string::npos);
  EXPECT_NE(json.find("\"sampled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"trace_retained\":true"), std::string::npos);
  EXPECT_NE(json.find("\"skyline_size\":42"), std::string::npos);
}

TEST(WideEventTest, LogIsBoundedAndCountsTotals) {
  WideEventLog log(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    WideEvent event;
    event.request_id = "r" + std::to_string(i);
    event.outcome = "completed";
    log.Append(std::move(event));
  }
  const std::vector<WideEvent> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot.front().request_id, "r2");
  EXPECT_EQ(snapshot.back().request_id, "r4");
  EXPECT_NE(log.Json().find("\"total\":5}"), std::string::npos);
  // JSONL: one object per line, newline-terminated.
  const std::string jsonl = log.Jsonl();
  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(jsonl.find('['), std::string::npos);
}

TEST(ExemplarStoreTest, KeepsLatestExemplarPerBucket) {
  ExemplarStore store;
  store.Observe("exec.ce.latency_us_hist", 100, "aaaa");
  store.Observe("exec.ce.latency_us_hist", 120, "bbbb");  // same bucket
  store.Observe("exec.ce.latency_us_hist", 5000, "cccc");
  const std::size_t bucket_100 = Histogram::BucketIndex(100);
  const std::optional<ExemplarStore::Exemplar> first =
      store.Find("exec.ce.latency_us_hist", bucket_100);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->trace_id, "bbbb");
  EXPECT_EQ(first->value, 120u);
  EXPECT_FALSE(store.Find("exec.ce.latency_us_hist", 64).has_value());
  EXPECT_FALSE(store.Find("other_hist", bucket_100).has_value());
  EXPECT_FALSE(
      store.Find("exec.ce.latency_us_hist", Histogram::kBucketCount)
          .has_value());
}

TEST(ExemplarStoreTest, PrometheusBucketsCarryExemplarSuffix) {
  MetricsRegistry registry;
  Histogram* hist = registry.histogram("exec.ce.latency_us_hist");
  hist->Observe(750);
  ExemplarStore exemplars;
  exemplars.Observe("exec.ce.latency_us_hist", 750,
                    "4bf92f3577b34da6a3ce929d0e0e4736");
  const std::string text = PrometheusText(registry, &exemplars);
  EXPECT_NE(
      text.find("# {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} 750"),
      std::string::npos);
  // Without the store, the exposition is the plain 0.0.4 form.
  EXPECT_EQ(PrometheusText(registry).find("trace_id"), std::string::npos);
}

// --- CompleteRequest retention policy ---

struct TelemetryFixture {
  TelemetryFixture() {
    TelemetryConfig config;
    config.registry = &registry;
    config.slow_wall_seconds = 0.050;
    config.head_sample_every = 1;  // HeadSample() always true when asked
    telemetry = std::make_unique<ServingTelemetry>(config);
  }
  MetricsRegistry registry;
  std::unique_ptr<ServingTelemetry> telemetry;
};

FlightRecord FastOkRecord() {
  FlightRecord record;
  record.wall_seconds = 0.001;
  return record;
}

TEST(TailSamplingTest, RetentionPriorityErrorOverTruncatedOverSlow) {
  TelemetryFixture fx;
  const TraceContext ctx = TraceContext::Mint(/*sampled=*/true);
  FlightRecord record = FastOkRecord();
  record.status_code = 13;      // error wins over everything
  record.truncation = 4;
  record.wall_seconds = 1.0;    // also slow
  EXPECT_EQ(fx.telemetry->CompleteRequest(ctx, record, 0.0, "ce", {}),
            RetainReason::kError);
  record.status_code = 0;
  EXPECT_EQ(fx.telemetry->CompleteRequest(ctx, record, 0.0, "ce", {}),
            RetainReason::kTruncated);
  record.truncation = 0;
  EXPECT_EQ(fx.telemetry->CompleteRequest(ctx, record, 0.0, "ce", {}),
            RetainReason::kSlow);
  record.wall_seconds = 0.001;
  EXPECT_EQ(fx.telemetry->CompleteRequest(ctx, record, 0.0, "ce", {}),
            RetainReason::kHeadSampled);
  EXPECT_EQ(fx.telemetry->trace_store().Snapshot().total, 4u);
}

TEST(TailSamplingTest, FastUnsampledRequestsAreDropped) {
  TelemetryFixture fx;
  const TraceContext ctx = TraceContext::Mint(/*sampled=*/false);
  EXPECT_EQ(
      fx.telemetry->CompleteRequest(ctx, FastOkRecord(), 0.0, "ce", {}),
      RetainReason::kNone);
  EXPECT_EQ(fx.telemetry->trace_store().Snapshot().total, 0u);
}

TEST(TailSamplingTest, SlowQueryRetainedWithoutReexecution) {
  TelemetryFixture fx;
  const TraceContext ctx = TraceContext::Mint(/*sampled=*/false);
  FlightRecord record = FastOkRecord();
  record.sequence = 7;
  record.wall_seconds = 0.200;  // past the 50 ms threshold
  QueryProfile profile;
  SpanRecord span;
  span.name = "ce";
  span.end_seconds = 0.2;
  profile.spans.push_back(span);
  EXPECT_EQ(fx.telemetry->CompleteRequest(ctx, record, 0.0, "ce",
                                          std::move(profile)),
            RetainReason::kSlow);
  EXPECT_EQ(fx.registry.counter(metric::kExecSlowQueryCount)->value(), 1u);
  const std::vector<RetainedTrace> retained =
      fx.telemetry->trace_store().Snapshot().records;
  ASSERT_EQ(retained.size(), 1u);
  // The store holds this run's own profile — nothing was re-run.
  EXPECT_EQ(retained[0].reason, RetainReason::kSlow);
  EXPECT_EQ(retained[0].sequence, 7u);
  ASSERT_EQ(retained[0].profile.spans.size(), 1u);
  EXPECT_EQ(retained[0].profile.spans[0].name, "ce");
  EXPECT_DOUBLE_EQ(retained[0].wall_seconds, 0.200);
}

TEST(TailSamplingTest, HeadSampleCoinHonorsRate) {
  TelemetryConfig config;
  MetricsRegistry registry;
  config.registry = &registry;
  config.head_sample_every = 4;
  ServingTelemetry telemetry(config);
  int sampled = 0;
  for (int i = 0; i < 100; ++i) sampled += telemetry.HeadSample();
  EXPECT_EQ(sampled, 25);

  TelemetryConfig off;
  off.registry = &registry;
  off.head_sample_every = 0;
  ServingTelemetry no_heads(off);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(no_heads.HeadSample());
}

}  // namespace
}  // namespace msq::obs
