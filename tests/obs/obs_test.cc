#include <cstddef>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"

namespace msq::obs {
namespace {

// ------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, CounterFindOrCreateIsStable) {
  MetricsRegistry registry;
  Counter* a = registry.counter("x.events");
  Counter* b = registry.counter("x.events");
  EXPECT_EQ(a, b);
  a->Inc();
  a->Inc(4);
  EXPECT_EQ(b->value(), 5u);
  EXPECT_NE(registry.counter("y.events"), a);
}

TEST(MetricsRegistryTest, GaugeTracksPeakAcrossResets) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("heap");
  g->Update(3.0);
  g->Update(9.0);
  g->Update(5.0);
  EXPECT_DOUBLE_EQ(g->value(), 5.0);
  EXPECT_DOUBLE_EQ(g->peak(), 9.0);
  g->ResetPeak();
  EXPECT_DOUBLE_EQ(g->peak(), 5.0);  // restarts from the current level
  g->MergePeak(9.0);
  EXPECT_DOUBLE_EQ(g->peak(), 9.0);
}

TEST(MetricsRegistryTest, IterationInNameOrder) {
  MetricsRegistry registry;
  registry.counter("b")->Inc(2);
  registry.counter("a")->Inc(1);
  std::string names;
  registry.ForEachCounter([&](const std::string& name, const Counter&) {
    names += name;
    names += ",";
  });
  EXPECT_EQ(names, "a,b,");
}

// ------------------------------------------------------------ JsonEscape

TEST(JsonEscapeTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(JsonEscape("\b\f"), "\\b\\f");
}

TEST(JsonEscapeTest, EscapesEveryControlCharacterExactlyOnce) {
  for (int c = 0; c < 0x20; ++c) {
    const char raw = static_cast<char>(c);
    const std::string escaped = JsonEscape(std::string_view(&raw, 1));
    // Every C0 control gets an escape (named or \u00XX) — never raw.
    ASSERT_GE(escaped.size(), 2u) << "control 0x" << std::hex << c;
    EXPECT_EQ(escaped[0], '\\') << "control 0x" << std::hex << c;
  }
  // NUL is a control character, not a terminator.
  EXPECT_EQ(JsonEscape(std::string_view("a\0b", 3)), "a\\u0000b");
  // 0x20 and 0x7f are not C0 controls; they pass through.
  EXPECT_EQ(JsonEscape(" "), " ");
  EXPECT_EQ(JsonEscape("\x7f"), "\x7f");
}

TEST(JsonEscapeTest, MultiByteUtf8PassesThroughUnchanged) {
  // JSON strings are UTF-8; bytes >= 0x80 must be copied verbatim, never
  // treated as controls (char may be signed — a naive `c < 0x20` breaks).
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");          // é (2-byte)
  EXPECT_EQ(JsonEscape("\xe2\x86\x92"), "\xe2\x86\x92");        // → (3-byte)
  EXPECT_EQ(JsonEscape("\xf0\x9f\x9a\x80"), "\xf0\x9f\x9a\x80");  // 🚀 (4)
  // Mixed: escapes apply to the ASCII part only.
  EXPECT_EQ(JsonEscape("\xc3\xa9\n\"\xf0\x9f\x9a\x80"),
            "\xc3\xa9\\n\\\"\xf0\x9f\x9a\x80");
}

// --------------------------------------------------------------- exporters

TEST(PrometheusNameTest, PrefixesAndMangles) {
  // DESIGN.md §9: prefix msq_, any char outside [a-zA-Z0-9_] becomes '_'.
  EXPECT_EQ(PrometheusName("exec.ce.latency_us_hist"),
            "msq_exec_ce_latency_us_hist");
  EXPECT_EQ(PrometheusName("buffer.network.hits"),
            "msq_buffer_network_hits");
  EXPECT_EQ(PrometheusName("weird-name with/chars"),
            "msq_weird_name_with_chars");
  EXPECT_EQ(PrometheusName(""), "msq_");
}

TEST(PrometheusTextTest, EmitsCountersGaugesAndBuildInfo) {
  MetricsRegistry registry;
  registry.counter("exec.queries")->Inc(5);
  registry.gauge("heap.bytes")->Update(42.0);
  const std::string text = PrometheusText(registry);

  EXPECT_NE(text.find("# TYPE msq_build_info gauge\n"), std::string::npos);
  EXPECT_NE(text.find("msq_build_info{git_sha=\""), std::string::npos);
  EXPECT_NE(text.find("# TYPE msq_exec_queries counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("msq_exec_queries 5\n"), std::string::npos);
  EXPECT_NE(text.find("msq_heap_bytes 42\n"), std::string::npos);
  EXPECT_NE(text.find("msq_heap_bytes_peak 42\n"), std::string::npos);
}

TEST(PrometheusTextTest, HistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("exec.ce.latency_us_hist");
  h->Observe(0);  // bucket 0 (le="0")
  h->Observe(1);  // bucket 1 (le="1")
  h->Observe(1);
  h->Observe(5);  // bucket 3 (le="7")
  const std::string text = PrometheusText(registry);

  const char* expected =
      "# TYPE msq_exec_ce_latency_us_hist histogram\n"
      "msq_exec_ce_latency_us_hist_bucket{le=\"0\"} 1\n"
      "msq_exec_ce_latency_us_hist_bucket{le=\"1\"} 3\n"
      "msq_exec_ce_latency_us_hist_bucket{le=\"3\"} 3\n"
      "msq_exec_ce_latency_us_hist_bucket{le=\"7\"} 4\n"
      "msq_exec_ce_latency_us_hist_bucket{le=\"+Inf\"} 4\n"
      "msq_exec_ce_latency_us_hist_sum 7\n"
      "msq_exec_ce_latency_us_hist_count 4\n";
  EXPECT_NE(text.find(expected), std::string::npos) << text;
}

TEST(MetricsJsonlTest, StartsWithBuildInfoAndListsHistograms) {
  MetricsRegistry registry;
  registry.counter("a.events")->Inc(2);
  registry.histogram("a.sizes_hist")->Observe(9);
  const std::string jsonl = MetricsJsonl(registry);

  EXPECT_EQ(jsonl.rfind("{\"type\":\"build_info\",\"git_sha\":\"", 0), 0u);
  EXPECT_NE(jsonl.find("{\"type\":\"counter\",\"name\":\"a.events\","
                       "\"value\":2}\n"),
            std::string::npos);
  // 9 lands in bucket 4 = [8, 15]; buckets export as [upper, count] pairs.
  EXPECT_NE(jsonl.find("{\"type\":\"histogram\",\"name\":\"a.sizes_hist\","
                       "\"count\":1,\"sum\":9,\"buckets\":[[15,1]]}\n"),
            std::string::npos);
}

TEST(BuildInfoTest, StampIsPopulatedAndJsonWellFormed) {
  const BuildInfo& build = GetBuildInfo();
  EXPECT_FALSE(build.git_sha.empty());
  EXPECT_FALSE(build.compiler.empty());
  EXPECT_FALSE(build.build_type.empty());

  const std::string json = BuildInfoJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"git_sha\":\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\":\""), std::string::npos);
  EXPECT_NE(json.find("\"flags\":\""), std::string::npos);
  EXPECT_NE(json.find("\"build_type\":\""), std::string::npos);
}

// ----------------------------------------------------------- TraceSession

TEST(TraceSessionTest, AttributesDeltasToInnermostSpan) {
  MetricsRegistry registry;
  Counter* settled = registry.counter(metric::kSettledNodes);
  TraceSession session(&registry);

  const int outer = session.OpenSpan("outer");
  settled->Inc(10);
  const int inner = session.OpenSpan("inner");
  settled->Inc(3);
  session.CloseSpan(inner);
  settled->Inc(7);
  session.CloseSpan(outer);

  const QueryProfile profile = session.Take();
  ASSERT_EQ(profile.spans.size(), 2u);
  EXPECT_EQ(profile.spans[0].name, "outer");
  EXPECT_EQ(profile.spans[0].parent, -1);
  EXPECT_EQ(profile.spans[0].depth, 0);
  EXPECT_EQ(profile.spans[1].name, "inner");
  EXPECT_EQ(profile.spans[1].parent, 0);
  EXPECT_EQ(profile.spans[1].depth, 1);
  // 10 before inner + 7 after it are the outer span's own work.
  EXPECT_EQ(profile.spans[0].self.settled_nodes, 17u);
  EXPECT_EQ(profile.spans[1].self.settled_nodes, 3u);
  EXPECT_EQ(profile.InclusiveCounters(0).settled_nodes, 20u);
  EXPECT_EQ(profile.TotalCounters().settled_nodes, 20u);
}

TEST(TraceSessionTest, UnbalancedCloseForceClosesDescendants) {
  MetricsRegistry registry;
  Counter* settled = registry.counter(metric::kSettledNodes);
  TraceSession session(&registry);

  const int outer = session.OpenSpan("outer");
  const int child = session.OpenSpan("child");
  session.OpenSpan("grandchild");
  settled->Inc(5);
  EXPECT_EQ(session.open_depth(), 3u);
  session.CloseSpan(outer);  // closes grandchild and child first
  EXPECT_TRUE(session.idle());

  session.CloseSpan(child);   // already closed: no-op
  session.CloseSpan(-1);      // dropped id: no-op
  session.CloseSpan(999);     // out of range: no-op

  const QueryProfile profile = session.Take();
  ASSERT_EQ(profile.spans.size(), 3u);
  // The delta was pending at the unbalanced close and belongs to the
  // innermost open span at that moment.
  EXPECT_EQ(profile.spans[2].self.settled_nodes, 5u);
  EXPECT_EQ(profile.TotalCounters().settled_nodes, 5u);
  for (const SpanRecord& span : profile.spans) {
    EXPECT_GE(span.end_seconds, span.start_seconds);
  }
}

TEST(TraceSessionTest, TakeForceClosesAndResets) {
  MetricsRegistry registry;
  TraceSession session(&registry);
  session.OpenSpan("left.open");
  const QueryProfile profile = session.Take();
  ASSERT_EQ(profile.spans.size(), 1u);
  EXPECT_TRUE(session.idle());

  // Session is reusable after Take.
  const int id = session.OpenSpan("second.query");
  session.CloseSpan(id);
  const QueryProfile next = session.Take();
  ASSERT_EQ(next.spans.size(), 1u);
  EXPECT_EQ(next.spans[0].name, "second.query");
}

TEST(TraceSessionTest, GaugePeakIsScopedPerSpan) {
  MetricsRegistry registry;
  Gauge* heap = registry.gauge(metric::kHeapPeak);
  TraceSession session(&registry);

  const int outer = session.OpenSpan("outer");
  heap->Update(2.0);
  const int inner = session.OpenSpan("inner");
  heap->Update(7.0);
  heap->Update(1.0);
  session.CloseSpan(inner);
  session.CloseSpan(outer);

  const QueryProfile profile = session.Take();
  ASSERT_EQ(profile.spans.size(), 2u);
  EXPECT_DOUBLE_EQ(profile.spans[1].heap_peak, 7.0);
  // The child's high-water mark folds back into the parent.
  EXPECT_DOUBLE_EQ(profile.spans[0].heap_peak, 7.0);
}

TEST(TraceSessionTest, SwitchedPhasesKeepOneRecordPerPhase) {
  MetricsRegistry registry;
  Counter* settled = registry.counter(metric::kSettledNodes);
  Gauge* heap = registry.gauge(metric::kHeapPeak);
  TraceSession session(&registry);

  const int root = session.OpenSpan("root");
  {
    Phases<2> phases(&session, {"a", "b"});
    for (int i = 0; i < 100; ++i) {
      phases.Enter(0);
      settled->Inc(1);
      phases.Enter(1);
      settled->Inc(2);
      if (i == 50) {
        heap->Update(9.0);
        heap->Update(0.0);
      }
      // A span opened inside a phase nests under it.
      if (i == 7) Span(&session, "inner");
      phases.Leave();
      settled->Inc(3);  // between candidates: the root's own work
    }
  }  // phases leave nothing open
  EXPECT_EQ(session.open_depth(), 1u);
  session.CloseSpan(root);

  const QueryProfile profile = session.Take();
  ASSERT_EQ(profile.spans.size(), 4u);
  EXPECT_EQ(profile.spans[1].name, "a");
  EXPECT_EQ(profile.spans[2].name, "b");
  EXPECT_EQ(profile.spans[3].name, "inner");
  EXPECT_EQ(profile.spans[1].parent, 0);
  EXPECT_EQ(profile.spans[2].parent, 0);
  EXPECT_EQ(profile.spans[3].parent, 2);
  EXPECT_EQ(profile.spans[1].depth, 1);
  EXPECT_EQ(profile.spans[1].self.settled_nodes, 100u);
  EXPECT_EQ(profile.spans[2].self.settled_nodes, 200u);
  EXPECT_EQ(profile.spans[0].self.settled_nodes, 300u);
  EXPECT_EQ(profile.TotalCounters().settled_nodes, 600u);
  EXPECT_DOUBLE_EQ(profile.spans[2].heap_peak, 9.0);
  EXPECT_DOUBLE_EQ(profile.spans[1].heap_peak, 0.0);
  EXPECT_DOUBLE_EQ(profile.spans[0].heap_peak, 9.0);
  // Phase time is the sum of the stays, and stays inside the root.
  const double phases_seconds = profile.spans[1].duration_seconds() +
                                profile.spans[2].duration_seconds();
  EXPECT_GE(profile.spans[1].duration_seconds(), 0.0);
  EXPECT_NEAR(profile.spans[0].child_seconds, phases_seconds, 1e-9);
  EXPECT_LE(phases_seconds, profile.spans[0].duration_seconds() + 1e-9);
}

TEST(TraceSessionTest, PhaseForceClosedByItsParentIsLeftQuietly) {
  MetricsRegistry registry;
  Counter* settled = registry.counter(metric::kSettledNodes);
  TraceSession session(&registry);
  const int root = session.OpenSpan("root");
  Phases<1> phases(&session, {"a"});
  phases.Enter(0);
  settled->Inc(4);
  session.CloseSpan(root);  // closes the phase first
  EXPECT_TRUE(session.idle());
  phases.Leave();  // no-op: nothing reopened, nothing re-attributed
  EXPECT_TRUE(session.idle());
  const QueryProfile profile = session.Take();
  ASSERT_EQ(profile.spans.size(), 2u);
  EXPECT_EQ(profile.spans[1].self.settled_nodes, 4u);

  Phases<1> untraced(nullptr, {"a"});
  untraced.Enter(0);  // null session: no-op
  untraced.Leave();
}

TEST(SpanTest, NullSessionIsNoOp) {
  Span null_span(nullptr, "ignored");
  null_span.Close();  // must not crash

  MetricsRegistry registry;
  TraceSession session(&registry);
  {
    Span outer(&session, "outer");
    Span moved = std::move(outer);
    // `outer` no longer closes anything; `moved` closes at scope exit.
  }
  EXPECT_TRUE(session.idle());
  EXPECT_EQ(session.Take().spans.size(), 1u);
}

// -------------------------------------- BufferManager counter attribution

TEST(BufferAttributionTest, ScriptedFetchesLandInTheRightSpans) {
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, /*frames=*/4);
  MetricsRegistry registry;
  buffer.AttachMetrics(&registry, metric::kNetworkBufferPrefix);

  PageId pages[3];
  for (PageId& id : pages) {
    auto alloc = buffer.AllocatePage();
    ASSERT_TRUE(alloc.ok());
    id = alloc.value().id();
  }
  ASSERT_TRUE(buffer.Clear().ok());  // next fetch of any page is a miss

  TraceSession session(&registry);
  const int cold = session.OpenSpan("cold");
  for (const PageId id : pages) ASSERT_TRUE(buffer.Fetch(id).ok());
  session.CloseSpan(cold);
  const int warm = session.OpenSpan("warm");
  ASSERT_TRUE(buffer.Fetch(pages[0]).ok());
  ASSERT_TRUE(buffer.Fetch(pages[1]).ok());
  session.CloseSpan(warm);

  const QueryProfile profile = session.Take();
  ASSERT_EQ(profile.spans.size(), 2u);
  EXPECT_EQ(profile.spans[0].self.network_misses, 3u);
  EXPECT_EQ(profile.spans[0].self.network_hits, 0u);
  EXPECT_EQ(profile.spans[1].self.network_misses, 0u);
  EXPECT_EQ(profile.spans[1].self.network_hits, 2u);
  // Registry totals match the pool's own statistics.
  EXPECT_EQ(registry.counter(metric::kNetworkBufferMisses)->value(),
            buffer.stats().misses);
  EXPECT_EQ(registry.counter(metric::kNetworkBufferHits)->value(),
            buffer.stats().hits);
}

TEST(BufferAttributionTest, UnattachedPoolReportsNothing) {
  InMemoryDiskManager disk;
  BufferManager buffer(&disk, /*frames=*/2);
  auto alloc = buffer.AllocatePage();
  ASSERT_TRUE(alloc.ok());
  const PageId id = alloc.value().id();
  alloc.value().Release();
  ASSERT_TRUE(buffer.Fetch(id).ok());
  EXPECT_GT(buffer.stats().accesses(), 0u);  // pool counts, registry silent
}

}  // namespace
}  // namespace msq::obs
