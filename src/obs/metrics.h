// Named counter/gauge registry plus the per-query counter table — the
// cross-layer observability substrate.
//
// Components (BufferManager, GraphPager, the Dijkstra/A* wavefronts, the
// dominance kernel, the query cache) report into named metrics here, and
// obs/export.h dumps the whole registry as JSONL. Counters are
// relaxed-atomic uint64 increments behind a stable pointer, so the hot
// paths pay one uncontended atomic add — cheap enough to stay always-on.
// The registry is thread-safe: concurrent queries in a QueryExecutor pool
// all report into the same global registry, whose totals stay exact.
//
// The counters a query window accounts for (buffer hits/misses, settled
// nodes, pruning power, cache consultations) are declared once, in the
// MSQ_OBS_COUNTERS table below. Its one generated struct, obs::Counters,
// is the only per-query counter block: the thread-local block
// (ThreadCounters), span self counters (obs/trace.h), QueryStats,
// execution plans (obs/plan.h) and flight records all carry it. Every bump
// site adds to the registry Counter and to the calling thread's block;
// because a query runs on one worker thread, deltas of that block are
// exact per query even while other workers hammer the shared pools, which
// keeps QueryStats, spans and plans reconciling row by row under
// concurrency.
//
// Naming scheme (DESIGN.md §9): `<layer>.<component>.<event>`, e.g.
// `buffer.network.misses` or `graph.settled_nodes`.
#ifndef MSQ_OBS_METRICS_H_
#define MSQ_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/histogram.h"

namespace msq::obs {

// Monotonically increasing event count. Thread-safe; relaxed ordering is
// sufficient because readers only consume totals/deltas, never ordering.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Instantaneous level with a high-water mark. TraceSession scopes the peak
// to a span by saving/merging it around the span's lifetime. Thread-safe:
// Update publishes the level with a relaxed store and raises the peak via a
// CAS loop (concurrent peaks race benignly to the same maximum).
class Gauge {
 public:
  void Update(double value) {
    value_.store(value, std::memory_order_relaxed);
    RaiseToAtLeast(&peak_, value);
  }
  // Restarts peak tracking from the current level.
  void ResetPeak() {
    peak_.store(value_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }
  // Folds an externally saved peak back in (span unwinding).
  void MergePeak(double peak) { RaiseToAtLeast(&peak_, peak); }

  double value() const { return value_.load(std::memory_order_relaxed); }
  double peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  static void RaiseToAtLeast(std::atomic<double>* target, double value) {
    double current = target->load(std::memory_order_relaxed);
    while (value > current &&
           !target->compare_exchange_weak(current, value,
                                          std::memory_order_relaxed)) {
    }
  }

  std::atomic<double> value_{0.0};
  std::atomic<double> peak_{0.0};
};

// Find-or-create registry of named metrics. Returned pointers are stable
// for the registry's lifetime, so components cache them once and increment
// without lookups. find-or-create and iteration are mutex-guarded (they
// are off the hot path); the iteration callbacks must not call back into
// the same registry.
class MetricsRegistry {
 public:
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  // Distribution metrics (obs/histogram.h); named `<...>_hist` by the §9
  // scheme. Same find-or-create and pointer-stability contract as counters.
  Histogram* histogram(std::string_view name);

  // Iteration in name order (export, tests).
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) fn(name, *counter);
  }
  template <typename Fn>
  void ForEachGauge(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, gauge] : gauges_) fn(name, *gauge);
  }
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, histogram] : histograms_) fn(name, *histogram);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
      histograms_;
};

// The process-wide registry every built-in metric lives in. Components that
// exist once per role (the two buffer pools) register themselves under
// role-specific prefixes; per-instance structures (searches, pagers) share
// one counter per event kind.
MetricsRegistry& GlobalMetrics();

// Well-known metric names. The buffer prefixes are what Workload attaches
// its two pools under; the per-query counter table below names the ones
// every query window tracks.
namespace metric {
inline constexpr char kNetworkBufferPrefix[] = "buffer.network";
inline constexpr char kIndexBufferPrefix[] = "buffer.index";
inline constexpr char kNetworkBufferHits[] = "buffer.network.hits";
inline constexpr char kNetworkBufferMisses[] = "buffer.network.misses";
inline constexpr char kIndexBufferHits[] = "buffer.index.hits";
inline constexpr char kIndexBufferMisses[] = "buffer.index.misses";
inline constexpr char kAdjacencyReads[] = "graph.pager.adjacency_reads";
inline constexpr char kSettledNodes[] = "graph.settled_nodes";
inline constexpr char kDominanceTests[] = "core.dominance_tests";
inline constexpr char kDominanceAvoided[] = "core.dominance_avoided";
inline constexpr char kBoundPruned[] = "core.bound_pruned";
inline constexpr char kBoundExamined[] = "core.bound_examined";
inline constexpr char kBoundSamples[] = "core.bound_tightness_samples";
inline constexpr char kBoundPctSum[] = "core.bound_tightness_pct_sum";
// Frontier size after each expansion: a Dijkstra wavefront's heap, an NN
// stream's emission heap, or an A* search's one frontier heap, which every
// probe of the search shares and which may hold stale entries between
// retargets.
inline constexpr char kHeapPeak[] = "core.heap_peak";
// Cross-query cache (src/cache/query_cache.h).
inline constexpr char kCacheWavefrontHits[] = "cache.wavefront.hits";
inline constexpr char kCacheWavefrontMisses[] = "cache.wavefront.misses";
inline constexpr char kCacheWavefrontInserts[] = "cache.wavefront.inserts";
inline constexpr char kCacheWavefrontEvictions[] =
    "cache.wavefront.evictions";
inline constexpr char kCacheMemoHits[] = "cache.memo.hits";
inline constexpr char kCacheMemoMisses[] = "cache.memo.misses";
inline constexpr char kCacheMemoInserts[] = "cache.memo.inserts";
inline constexpr char kCacheMemoEvictions[] = "cache.memo.evictions";
inline constexpr char kCacheInvalidations[] = "cache.invalidations";
inline constexpr char kCacheBytes[] = "cache.bytes";
// Serving telemetry (obs/telemetry.h). The per-query distribution
// histograms are per algorithm — `exec.<algo>.<event>_hist`, e.g.
// `exec.ce.latency_us_hist` — built from these suffixes.
inline constexpr char kExecQueries[] = "exec.queries";
inline constexpr char kExecSlowQueryCount[] = "exec.slow_queries";
// Tail-based trace sampling (obs/trace_store.h): completions whose trace
// survived the retention decision, and requests the head-rate coin picked
// at ingress (which get detail spans and guaranteed retention).
inline constexpr char kTracesRetained[] = "exec.traces_retained";
inline constexpr char kTracesHeadSampled[] = "exec.traces_head_sampled";
inline constexpr char kLatencyUsHist[] = "latency_us_hist";
inline constexpr char kNetworkPageAccessesHist[] =
    "network_page_accesses_hist";
inline constexpr char kIndexPageAccessesHist[] = "index_page_accesses_hist";
inline constexpr char kSettledNodesHist[] = "settled_nodes_hist";
inline constexpr char kCacheHitsHist[] = "cache_hits_hist";
// Pruning-power distributions (ISSUE: msq_bound_tightness and
// msq_dominance_tests_{performed,avoided} after Prometheus mangling).
// bound_tightness is fed one observation per sample at the
// instrumentation site; the dominance pair is per-query, observed by
// ServingTelemetry::RecordQuery.
inline constexpr char kBoundTightnessHist[] = "bound_tightness";
inline constexpr char kDominancePerformedHist[] =
    "dominance_tests.performed";
inline constexpr char kDominanceAvoidedHist[] = "dominance_tests.avoided";
}  // namespace metric

// The per-query counter table. Each row is X(field, metric name): `field`
// is the member every per-query counter block carries (obs::Counters, and
// through it ThreadCounters, span self counters, QueryStats::counters,
// ExecutionPlan::counters, PlanAggregate::counters and FlightRecord), and
// the metric is the registry counter the same bump site increments.
//
// Buffer rows split each pool's lookups into hits and misses (misses are
// the paper's "pages accessed"). Pruning-power rows (DESIGN.md §17):
// `dominance_avoided` counts the rows of a searched skyline set a
// dominator search never tested (outside its sorted-column prefix, or past
// a hit) and the pairwise tests a BNL window early-exit skipped;
// `bound_pruned`/`bound_examined`
// partition candidate objects by whether a plb/Euclid/ALT lower bound
// eliminated them or exact distances had to be computed; `bound_samples`
// counts bound-tightness ratios (plb/dN) observed at exact-completion
// sites and `bound_pct_sum` sums their rounded percents, so any window
// reports a mean tightness (sum / samples) without the sample list. Cache
// rows are a distinct access class: a cache hit never touches a buffer
// pool, so it is never folded into page accesses.
//
// Adding a counter is one row here plus its bump site, which adds once to
// the registry Counter and once to the calling thread's block. Every copy,
// delta, flight slot and reconciliation check loops over kCounterRows;
// wire formats name their fields explicitly and stay unchanged.
#define MSQ_OBS_COUNTERS(X)                                \
  X(network_hits, metric::kNetworkBufferHits)              \
  X(network_misses, metric::kNetworkBufferMisses)          \
  X(index_hits, metric::kIndexBufferHits)                  \
  X(index_misses, metric::kIndexBufferMisses)              \
  X(settled_nodes, metric::kSettledNodes)                  \
  X(dominance_tests, metric::kDominanceTests)              \
  X(dominance_avoided, metric::kDominanceAvoided)          \
  X(bound_pruned, metric::kBoundPruned)                    \
  X(bound_examined, metric::kBoundExamined)                \
  X(bound_samples, metric::kBoundSamples)                  \
  X(bound_pct_sum, metric::kBoundPctSum)                   \
  X(cache_wavefront_hits, metric::kCacheWavefrontHits)     \
  X(cache_wavefront_misses, metric::kCacheWavefrontMisses) \
  X(cache_memo_hits, metric::kCacheMemoHits)               \
  X(cache_memo_misses, metric::kCacheMemoMisses)

// One value per table row: a thread's running totals, or the delta of a
// window (a span, a query) over them.
struct Counters {
#define MSQ_OBS_COUNTER_FIELD(field, metric_name) std::uint64_t field = 0;
  MSQ_OBS_COUNTERS(MSQ_OBS_COUNTER_FIELD)
#undef MSQ_OBS_COUNTER_FIELD

  Counters& operator+=(const Counters& other);
  // Row-wise difference against an earlier snapshot of the same block.
  Counters operator-(const Counters& since) const;
  bool operator==(const Counters& other) const = default;

  std::uint64_t network_accesses() const {
    return network_hits + network_misses;
  }
  std::uint64_t index_accesses() const { return index_hits + index_misses; }
  std::uint64_t cache_hits() const {
    return cache_wavefront_hits + cache_memo_hits;
  }
  std::uint64_t cache_misses() const {
    return cache_wavefront_misses + cache_memo_misses;
  }
};

// The table as data, in row order: iterate it to visit every counter as
// (field name, metric name, value) via `block.*row.member`.
struct CounterRow {
  const char* field;
  const char* metric;
  std::uint64_t Counters::*member;
};

inline constexpr CounterRow kCounterRows[] = {
#define MSQ_OBS_COUNTER_ROW(field, metric_name) \
  {#field, metric_name, &Counters::field},
    MSQ_OBS_COUNTERS(MSQ_OBS_COUNTER_ROW)
#undef MSQ_OBS_COUNTER_ROW
};
inline constexpr std::size_t kCounterCount = std::size(kCounterRows);

inline Counters& Counters::operator+=(const Counters& other) {
  for (const CounterRow& row : kCounterRows) {
    this->*row.member += other.*row.member;
  }
  return *this;
}

inline Counters Counters::operator-(const Counters& since) const {
  Counters delta;
  for (const CounterRow& row : kCounterRows) {
    delta.*row.member = this->*row.member - since.*row.member;
  }
  return delta;
}

// The per-thread counter block: the table's rows plus a thread-scoped view
// of the core.heap_peak gauge (level + high-water mark). The instrumented
// hot paths bump the calling thread's block in addition to the global
// registry. A query executes on exactly one thread, so deltas of this
// block taken around a query window count that query's work and nothing
// else — the substrate for per-query QueryStats and span attribution under
// a concurrent executor.
struct ThreadCounters : Counters {
  double heap_value = 0.0;
  double heap_peak = 0.0;

  void UpdateHeap(double value) {
    heap_value = value;
    if (value > heap_peak) heap_peak = value;
  }
  void ResetHeapPeak() { heap_peak = heap_value; }
  void MergeHeapPeak(double peak) {
    if (peak > heap_peak) heap_peak = peak;
  }
};

// The calling thread's counter block.
ThreadCounters& ThreadLocalCounters();

}  // namespace msq::obs

#endif  // MSQ_OBS_METRICS_H_
