// Tail-based trace retention, canonical wide events, and histogram
// exemplars — the storage side of request tracing (obs/request_context.h).
//
// Three bounded, thread-safe stores (the first two on obs/recent_ring.h):
//
//   * TraceStore — recently *retained* traces. Every query is traced into
//     its worker's per-request span buffer; at completion the telemetry
//     layer keeps the trace iff it was slow (wall/page thresholds),
//     errored, truncated, or head-sampled — otherwise the profile is
//     dropped at the cost of a buffer reset. Retained traces are served by
//     GET /tracez and exportable as Chrome trace JSON per trace_id, with
//     the executor queue wait synthesized as a span so the export shows
//     the request's full server-side timeline.
//   * WideEventLog — one canonical wide event per served request (the
//     "one log line per request" model): trace id, per-stage latency
//     decomposition, admission verdict, counters, result size, status.
//     Served by GET /requestz and dumpable as JSONL.
//   * ExemplarStore — per-histogram, per-bucket links from a latency
//     observation to the retained trace that produced it, appended to the
//     Prometheus exposition in OpenMetrics exemplar syntax so a p99 bucket
//     points at a /tracez trace_id.
#ifndef MSQ_OBS_TRACE_STORE_H_
#define MSQ_OBS_TRACE_STORE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "obs/recent_ring.h"
#include "obs/trace.h"

namespace msq::obs {

// Why a trace survived tail sampling. Order is priority: a slow *and*
// head-sampled trace reports kSlow.
enum class RetainReason : std::uint8_t {
  kNone = 0,     // not retained
  kError,        // query failed
  kTruncated,    // budget/deadline cut it short
  kSlow,         // crossed the wall-time or page-access threshold
  kHeadSampled,  // the configured head rate picked it at ingress
};

std::string_view RetainReasonName(RetainReason reason);

// One retained trace: the request identity, summary numbers, and the full
// span tree recorded while it executed.
struct RetainedTrace {
  std::uint64_t trace_id_hi = 0;
  std::uint64_t trace_id_lo = 0;
  std::uint64_t sequence = 0;  // flight-recorder sequence of the query
  std::string algorithm;
  std::int32_t status_code = 0;
  std::uint32_t truncation = 0;  // truncation StatusCode; 0 = full result
  RetainReason reason = RetainReason::kNone;
  double queue_seconds = 0.0;  // executor submit -> execute start
  double wall_seconds = 0.0;   // execute duration
  std::uint64_t page_accesses = 0;  // network + index, hits + misses
  QueryProfile profile;

  std::string TraceIdHex() const;
};

// Bounded FIFO of retained traces. Retention happens at most once per
// *retained* request, so the ring's lock is far off the per-query path.
class TraceStore {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit TraceStore(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  void Retain(RetainedTrace trace) { ring_.Push(std::move(trace)); }

  // Oldest first, with the totals ever retained (`total`) and evicted by
  // the capacity bound (`evicted`).
  RecentRing<RetainedTrace>::Window Snapshot() const {
    return ring_.Snapshot();
  }
  // The newest retention of a trace id wins.
  std::optional<RetainedTrace> Find(std::string_view trace_id_hex) const;
  bool Contains(std::uint64_t hi, std::uint64_t lo) const;

  std::size_t capacity() const { return ring_.capacity(); }

 private:
  RecentRing<RetainedTrace> ring_;
};

// Chrome trace_event JSON for one retained trace: a synthetic "request"
// root spanning queue wait + execution, a "queue_wait" child, then the
// recorded profile spans shifted to start after the queue wait. Every
// event carries the trace_id in args.
std::string RetainedTraceChromeJson(const RetainedTrace& trace);

// The GET /tracez index body: summaries of every retained trace (no span
// payloads) plus store totals, all from one snapshot.
std::string TracezJson(const TraceStore& store);

// The retained-trace dump that validate_telemetry.py --trace-dump checks:
// {"traces":[{"trace_id","reason","events":RetainedTraceChromeJson}]},
// oldest first, from one snapshot.
std::string RetainedTraceDumpJson(const TraceStore& store);

// One canonical wide event per served request. All *_ms stage fields are
// wall milliseconds; stages are disjoint (queue is admission->execute
// start, parse is JSON parse, write is the response write syscall window).
struct WideEvent {
  std::string trace_id;    // 32 lowercase hex
  std::string request_id;  // client-supplied "id", may be empty
  std::string algorithm;   // empty when the request never parsed
  std::string outcome;     // rejected|shed|completed|truncated|failed
  std::int32_t status_code = 0;
  int http_status = 0;
  bool sampled = false;        // head-sampling decision
  bool trace_retained = false; // tail sampling kept the trace (/tracez)
  double queue_ms = 0.0;
  double parse_ms = 0.0;
  double execute_ms = 0.0;
  double serialize_ms = 0.0;
  double write_ms = 0.0;
  double total_ms = 0.0;
  std::uint64_t network_page_accesses = 0;
  std::uint64_t index_page_accesses = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t settled_nodes = 0;
  std::uint64_t skyline_size = 0;
  std::uint64_t returned = 0;  // entries actually encoded (after k cap)
  std::uint64_t sequence = 0;  // flight-recorder sequence (0 if unadmitted)
  // Monotonic receive timestamp, used by the server to finalize total_ms
  // after the response write; not serialized.
  double received_at_mono = 0.0;

  std::string ToJson() const;
};

// Bounded ring of recent wide events (GET /requestz, JSONL dumps).
class WideEventLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit WideEventLog(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  void Append(WideEvent event) { ring_.Push(std::move(event)); }

  std::vector<WideEvent> Snapshot() const {  // oldest first
    return ring_.Snapshot().records;
  }

  // {"events":[...],"total":N} — the GET /requestz body, from one ring
  // snapshot (`total` counts every event ever appended).
  std::string Json() const;
  // One event per line (the canonical JSONL dump).
  std::string Jsonl() const;

 private:
  RecentRing<WideEvent> ring_;
};

// Latest exemplar per (histogram name, log2 bucket): the observed value
// and the retained trace that produced it. Fed only when a trace is
// retained, read only at scrape time.
class ExemplarStore {
 public:
  struct Exemplar {
    std::uint64_t value = 0;
    std::string trace_id;
  };

  ExemplarStore() = default;
  ExemplarStore(const ExemplarStore&) = delete;
  ExemplarStore& operator=(const ExemplarStore&) = delete;

  void Observe(std::string_view histogram_name, std::uint64_t value,
               std::string_view trace_id_hex);

  // The exemplar for (histogram, bucket), if any.
  std::optional<Exemplar> Find(std::string_view histogram_name,
                               std::size_t bucket) const;

 private:
  using BucketArray = std::array<Exemplar, Histogram::kBucketCount>;
  mutable std::mutex mu_;
  std::map<std::string, BucketArray, std::less<>> by_histogram_;
};

}  // namespace msq::obs

#endif  // MSQ_OBS_TRACE_STORE_H_
