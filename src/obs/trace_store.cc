#include "obs/trace_store.h"

#include <cinttypes>
#include <utility>

#include "obs/export.h"
#include "obs/request_context.h"

namespace msq::obs {
namespace {

// One Chrome trace_event complete event. `ts`/`dur` in microseconds.
void AppendEvent(std::string* out, bool* first, std::string_view name,
                 double ts_us, double dur_us, const std::string& trace_id,
                 const Counters* counters) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\n{\"name\":\"" + JsonEscape(name) + "\"";
  *out += ",\"cat\":\"msq\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
  AppendF(out, ",\"ts\":%.3f", ts_us);
  AppendF(out, ",\"dur\":%.3f", dur_us);
  *out += ",\"args\":{\"trace_id\":\"" + trace_id + "\"";
  if (counters != nullptr) {
    AppendF(out, ",\"network_hits\":%" PRIu64, counters->network_hits);
    AppendF(out, ",\"network_misses\":%" PRIu64, counters->network_misses);
    AppendF(out, ",\"index_hits\":%" PRIu64, counters->index_hits);
    AppendF(out, ",\"index_misses\":%" PRIu64, counters->index_misses);
    AppendF(out, ",\"settled_nodes\":%" PRIu64, counters->settled_nodes);
    AppendF(out, ",\"dominance_tests\":%" PRIu64,
            counters->dominance_tests);
    AppendF(out, ",\"cache_hits\":%" PRIu64, counters->cache_hits());
    AppendF(out, ",\"cache_misses\":%" PRIu64, counters->cache_misses());
  }
  *out += "}}";
}

}  // namespace

std::string_view RetainReasonName(RetainReason reason) {
  switch (reason) {
    case RetainReason::kNone: return "none";
    case RetainReason::kError: return "error";
    case RetainReason::kTruncated: return "truncated";
    case RetainReason::kSlow: return "slow";
    case RetainReason::kHeadSampled: return "head_sampled";
  }
  return "none";
}

std::string RetainedTrace::TraceIdHex() const {
  return TraceContext{trace_id_hi, trace_id_lo}.TraceIdHex();
}

std::optional<RetainedTrace> TraceStore::Find(
    std::string_view trace_id_hex) const {
  std::optional<RetainedTrace> found;
  ring_.ScanNewestFirst([&](const RetainedTrace& trace) {
    if (trace.TraceIdHex() != trace_id_hex) return false;
    found = trace;
    return true;
  });
  return found;
}

bool TraceStore::Contains(std::uint64_t hi, std::uint64_t lo) const {
  return ring_.ScanNewestFirst([&](const RetainedTrace& trace) {
    return trace.trace_id_hi == hi && trace.trace_id_lo == lo;
  });
}

std::string RetainedTraceChromeJson(const RetainedTrace& trace) {
  const std::string trace_id = trace.TraceIdHex();
  const double queue_us = trace.queue_seconds * 1e6;
  // The recorded profile's root span covers the execute window; the
  // request root covers queue wait + execution.
  double exec_us = trace.wall_seconds * 1e6;
  if (!trace.profile.spans.empty()) {
    const SpanRecord& root = trace.profile.spans.front();
    if (root.duration_seconds() * 1e6 > exec_us) {
      exec_us = root.duration_seconds() * 1e6;
    }
  }
  std::string out = "[";
  bool first = true;
  AppendEvent(&out, &first, "request", 0.0, queue_us + exec_us, trace_id,
              nullptr);
  AppendEvent(&out, &first, "queue_wait", 0.0, queue_us, trace_id, nullptr);
  for (const SpanRecord& span : trace.profile.spans) {
    AppendEvent(&out, &first, span.name, queue_us + span.start_seconds * 1e6,
                span.duration_seconds() * 1e6, trace_id, &span.self);
  }
  out += "\n]\n";
  return out;
}

std::string TracezJson(const TraceStore& store) {
  const RecentRing<RetainedTrace>::Window window = store.Snapshot();
  std::string out = "{\"retained\":[";
  bool first = true;
  for (const RetainedTrace& trace : window.records) {
    if (!first) out += ",";
    first = false;
    out += "{\"trace_id\":\"" + trace.TraceIdHex() + "\"";
    AppendF(&out, ",\"sequence\":%" PRIu64, trace.sequence);
    out += ",\"algo\":\"" + JsonEscape(trace.algorithm) + "\"";
    out += ",\"reason\":\"";
    out += RetainReasonName(trace.reason);
    out += "\"";
    AppendF(&out, ",\"status_code\":%d", trace.status_code);
    out += ",\"truncated\":";
    out += trace.truncation != 0 ? "true" : "false";
    AppendF(&out, ",\"queue_ms\":%.3f", trace.queue_seconds * 1e3);
    AppendF(&out, ",\"wall_ms\":%.3f", trace.wall_seconds * 1e3);
    AppendF(&out, ",\"page_accesses\":%" PRIu64, trace.page_accesses);
    AppendF(&out, ",\"spans\":%zu", trace.profile.spans.size());
    out += "}";
  }
  out += "],";
  AppendF(&out, "\"retained_total\":%" PRIu64, window.total);
  AppendF(&out, ",\"evicted_total\":%" PRIu64, window.evicted);
  AppendF(&out, ",\"capacity\":%zu", store.capacity());
  out += "}";
  return out;
}

std::string RetainedTraceDumpJson(const TraceStore& store) {
  std::string out = "{\"traces\":[";
  bool first = true;
  for (const RetainedTrace& trace : store.Snapshot().records) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"trace_id\":\"" + trace.TraceIdHex() + "\",\"reason\":\"";
    out += RetainReasonName(trace.reason);
    out += "\",\"events\":" + RetainedTraceChromeJson(trace) + "}";
  }
  out += "\n]}\n";
  return out;
}

std::string WideEvent::ToJson() const {
  std::string out = "{\"trace_id\":\"" + JsonEscape(trace_id) + "\"";
  out += ",\"id\":\"" + JsonEscape(request_id) + "\"";
  out += ",\"algo\":\"" + JsonEscape(algorithm) + "\"";
  out += ",\"outcome\":\"" + JsonEscape(outcome) + "\"";
  AppendF(&out, ",\"status_code\":%d", status_code);
  AppendF(&out, ",\"http_status\":%d", http_status);
  out += ",\"sampled\":";
  out += sampled ? "true" : "false";
  out += ",\"trace_retained\":";
  out += trace_retained ? "true" : "false";
  AppendF(&out, ",\"queue_ms\":%.3f", queue_ms);
  AppendF(&out, ",\"parse_ms\":%.3f", parse_ms);
  AppendF(&out, ",\"execute_ms\":%.3f", execute_ms);
  AppendF(&out, ",\"serialize_ms\":%.3f", serialize_ms);
  AppendF(&out, ",\"write_ms\":%.3f", write_ms);
  AppendF(&out, ",\"total_ms\":%.3f", total_ms);
  AppendF(&out, ",\"network_page_accesses\":%" PRIu64,
          network_page_accesses);
  AppendF(&out, ",\"index_page_accesses\":%" PRIu64, index_page_accesses);
  AppendF(&out, ",\"cache_hits\":%" PRIu64, cache_hits);
  AppendF(&out, ",\"settled_nodes\":%" PRIu64, settled_nodes);
  AppendF(&out, ",\"skyline_size\":%" PRIu64, skyline_size);
  AppendF(&out, ",\"returned\":%" PRIu64, returned);
  AppendF(&out, ",\"sequence\":%" PRIu64, sequence);
  out += "}";
  return out;
}

std::string WideEventLog::Json() const {
  const RecentRing<WideEvent>::Window window = ring_.Snapshot();
  std::string out = "{\"events\":[";
  bool first = true;
  for (const WideEvent& event : window.records) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += event.ToJson();
  }
  out += "\n],";
  AppendF(&out, "\"total\":%" PRIu64, window.total);
  out += "}";
  return out;
}

std::string WideEventLog::Jsonl() const {
  std::string out;
  for (const WideEvent& event : Snapshot()) {
    out += event.ToJson();
    out += "\n";
  }
  return out;
}

void ExemplarStore::Observe(std::string_view histogram_name,
                            std::uint64_t value,
                            std::string_view trace_id_hex) {
  const std::size_t bucket = Histogram::BucketIndex(value);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_histogram_.find(histogram_name);
  if (it == by_histogram_.end()) {
    it = by_histogram_.emplace(std::string(histogram_name), BucketArray{})
             .first;
  }
  it->second[bucket] = Exemplar{value, std::string(trace_id_hex)};
}

std::optional<ExemplarStore::Exemplar> ExemplarStore::Find(
    std::string_view histogram_name, std::size_t bucket) const {
  if (bucket >= Histogram::kBucketCount) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_histogram_.find(histogram_name);
  if (it == by_histogram_.end()) return std::nullopt;
  const Exemplar& exemplar = it->second[bucket];
  if (exemplar.trace_id.empty()) return std::nullopt;
  return exemplar;
}

}  // namespace msq::obs
