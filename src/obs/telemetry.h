// Always-on serving telemetry: the layer QueryExecutor reports every query
// completion into. Three consumers hang off one RecordQuery call:
//
//   1. Distribution histograms (obs/histogram.h) in a MetricsRegistry,
//      per algorithm: latency, network/index page accesses, settled
//      nodes, cache hits — `exec.<algo>.<event>_hist`. Their
//      count/sum reconcile exactly with the counter registry and with
//      QueryStats totals once the batch is quiescent.
//   2. The flight recorder (obs/flight_recorder.h): the last N query
//      summaries, always reconstructible.
//   3. Tail-based trace sampling (CompleteRequest): the executor traces
//      every query into its worker's span buffer and hands the finished
//      profile here; the trace is retained in the TraceStore iff the
//      query was slow (wall/page thresholds), errored, truncated, or
//      head-sampled at the configured rate — otherwise it is dropped on
//      the spot. A slow query is therefore retained with reason `slow`
//      from the profile of the run that was slow: nothing executes
//      twice, and counters/histograms/flight records count it once.
//
// This file stays core-independent like the rest of src/obs: the executor
// translates its SkylineResult/ThreadCounters into a plain FlightRecord
// before reporting. Everything here is thread-safe; RecordQuery is a few
// histogram observations, one small mutex-guarded pointer-cache lookup,
// and a ring push. Its cost on the served path is measured by perfbench's
// `obs.telemetry_overhead_pct` row (telemetry on vs. off).
#ifndef MSQ_OBS_TELEMETRY_H_
#define MSQ_OBS_TELEMETRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/plan.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "obs/trace_store.h"

namespace msq::obs {

struct TelemetryConfig {
  // false turns every telemetry call into a no-op (the baseline
  // perfbench's obs.telemetry_overhead_pct is measured against).
  bool enabled = true;
  std::size_t flight_capacity = FlightRecorder::kDefaultCapacity;
  // Slow-query thresholds; 0 disables the respective trigger. A query is
  // slow when wall time exceeds `slow_wall_seconds` or total buffer page
  // accesses (network + index) exceed `slow_page_accesses`. Slow queries
  // are counted (exec.slow_queries) and always tail-retained.
  double slow_wall_seconds = 0.0;
  std::uint64_t slow_page_accesses = 0;
  // Tail-sampling retention: capacity of the retained-trace store, and the
  // head-sampling rate — every Nth query is sampled at ingress regardless
  // of outcome (0 = head sampling off; 1 = sample everything). Slow,
  // errored, and truncated queries are always retained.
  std::size_t trace_capacity = TraceStore::kDefaultCapacity;
  std::uint64_t head_sample_every = 0;
  // Histogram/counter registry; null means GlobalMetrics(). Tests pass an
  // isolated registry.
  MetricsRegistry* registry = nullptr;
};

class ServingTelemetry {
 public:
  explicit ServingTelemetry(const TelemetryConfig& config = {});

  ServingTelemetry(const ServingTelemetry&) = delete;
  ServingTelemetry& operator=(const ServingTelemetry&) = delete;

  bool enabled() const { return config_.enabled; }
  const TelemetryConfig& config() const { return config_; }
  MetricsRegistry* registry() const { return registry_; }

  // Reports one query completion: observes the per-algorithm histograms
  // and appends to the flight recorder. `algorithm` is the stable
  // AlgorithmName. Returns the ring-assigned sequence (0 when disabled)
  // so the caller can stamp its own copy of the record.
  std::uint64_t RecordQuery(std::string_view algorithm,
                            const FlightRecord& record);

  // Head-sampling coin: true for every `head_sample_every`-th call (and
  // never when the rate is 0). Thread-safe; called once per request at
  // ingress (server accept or executor submit without a context).
  bool HeadSample();

  // Tail-sampling completion hook, called by the executor once per query
  // after RecordQuery. Decides retention (slow per the thresholds above /
  // error / truncated / ctx.sampled), counts slow detections, stores the
  // trace, feeds the latency-histogram exemplar, and returns the decision
  // (kNone = dropped). `queue_seconds` is submit -> execute start;
  // `profile` is the span tree of this run.
  RetainReason CompleteRequest(const TraceContext& ctx,
                               const FlightRecord& record,
                               double queue_seconds,
                               std::string_view algorithm,
                               QueryProfile profile);

  const FlightRecorder& flight_recorder() const { return flight_; }
  const TraceStore& trace_store() const { return traces_; }
  PlanStore& plans() { return plans_; }
  const PlanStore& plans() const { return plans_; }
  ExemplarStore& exemplars() { return exemplars_; }
  const ExemplarStore& exemplars() const { return exemplars_; }

 private:
  struct AlgoHistograms {
    Histogram* latency_us = nullptr;
    Histogram* network_page_accesses = nullptr;
    Histogram* index_page_accesses = nullptr;
    Histogram* settled_nodes = nullptr;
    Histogram* cache_hits = nullptr;
  };
  const AlgoHistograms& HistogramsFor(std::string_view algorithm);
  // Pure threshold test (no counting).
  bool IsSlow(const FlightRecord& record) const;

  const TelemetryConfig config_;
  MetricsRegistry* const registry_;
  FlightRecorder flight_;
  TraceStore traces_;
  ExemplarStore exemplars_;
  PlanStore plans_;
  // Per-query pruning-power distributions (msq_dominance_tests_performed /
  // msq_dominance_tests_avoided in the Prometheus exposition). Registered
  // lazily on the first RecordQuery so a disabled telemetry instance adds
  // no histograms to the registry; the registry hands back one stable
  // pointer per name, so a racing double-init stores the same value.
  std::atomic<Histogram*> dominance_performed_{nullptr};
  std::atomic<Histogram*> dominance_avoided_{nullptr};
  Counter* const queries_;
  Counter* const slow_queries_;
  Counter* const traces_retained_;
  Counter* const head_sampled_;
  std::atomic<std::uint64_t> head_counter_{0};

  std::mutex algos_mu_;
  std::map<std::string, AlgoHistograms, std::less<>> algos_;
};

}  // namespace msq::obs

#endif  // MSQ_OBS_TELEMETRY_H_
