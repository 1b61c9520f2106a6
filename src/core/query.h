// Query, dataset-view, and result types shared by CE, EDC, LBC and the
// naive oracle.
#ifndef MSQ_CORE_QUERY_H_
#define MSQ_CORE_QUERY_H_

#include <functional>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/dominance.h"
#include "graph/graph_pager.h"
#include "graph/landmarks.h"
#include "graph/spatial_mapping.h"
#include "index/rtree.h"
#include "obs/plan.h"
#include "obs/trace.h"
#include "storage/buffer_manager.h"

namespace msq {

class QueryCache;

// Non-owning view over everything a skyline query runs against. The
// workload builder (gen/workloads.h) assembles and owns the underlying
// structures.
struct Dataset {
  const RoadNetwork* network = nullptr;
  // Paged adjacency access; its buffer manager's misses are the paper's
  // "network disk pages accessed".
  const GraphPager* graph_pager = nullptr;
  // Object -> edge middle layer (B+-tree behind `index_buffer`).
  const SpatialMapping* mapping = nullptr;
  // R-tree over object positions; entry ids are ObjectIds.
  const RTree* object_rtree = nullptr;
  // Buffer manager serving the network pages (for metrics snapshots).
  BufferManager* graph_buffer = nullptr;
  // Buffer manager serving index pages (R-trees + B+-tree).
  BufferManager* index_buffer = nullptr;
  // Optional static attributes, one vector per object, all the same size
  // (empty => no static attributes). Appended to network-distance vectors
  // for dominance.
  const std::vector<DistVector>* static_attributes = nullptr;
  // Optional ALT landmark index. When present, the A*-based algorithms
  // (EDC, LBC, aggregate NN) use max(Euclidean, landmark) lower bounds —
  // an extension outside the paper's no-precomputation algorithm class
  // (graph/landmarks.h).
  const LandmarkIndex* landmarks = nullptr;
  // Optional cross-query reuse cache (cache/query_cache.h), shared across
  // the queries of one executor. Null (the default) disables reuse — cold
  // behavior is byte-identical to a cacheless build.
  QueryCache* cache = nullptr;

  std::size_t object_count() const { return mapping->object_count(); }
  std::size_t static_dims() const {
    return (static_attributes == nullptr || static_attributes->empty())
               ? 0
               : static_attributes->front().size();
  }
  // The static attribute vector of `id` (empty when none).
  DistVector StaticAttributesOf(ObjectId id) const;
  // Component-wise minimum of all static attribute vectors (empty when
  // none); a valid lower bound for any object, used for subtree pruning.
  DistVector MinStaticAttributes() const;
};

// Resource guardrails for one query. Zero means "unlimited" — the default
// keeps benchmark behavior identical to the unguarded implementation.
struct QueryLimits {
  // Maximum buffer page accesses (graph + index) before the query is cut
  // off with kResourceExhausted.
  std::uint64_t max_page_accesses = 0;
  // Wall-clock deadline in seconds before the query is cut off with
  // kDeadlineExceeded. Relative to query start (not submission), so time
  // spent queued in an executor does not count against it.
  double max_seconds = 0.0;
  // Absolute deadline on the MonotonicSeconds() clock (0 = unset). Set by
  // the serving layer from the client deadline at admission, so queue wait
  // *does* count: a query that starts after the deadline passed returns an
  // immediate truncated-empty result (RunQueryBody short-circuits it
  // before the algorithm runs), and one that starts with little time left
  // is cut off that much sooner. Excluded from QuerySpecDigest — it is
  // per-run wall-clock state, not query identity.
  double deadline_at = 0.0;

  bool unlimited() const {
    return max_page_accesses == 0 && max_seconds == 0.0 &&
           deadline_at == 0.0;
  }
};

// A multi-source skyline query: the query points plus options.
struct SkylineQuerySpec {
  std::vector<Location> sources;
  // LBC only: which source acts as the step-1 expansion origin.
  std::size_t lbc_source_index = 0;
  // Optional resource guardrails (see QueryLimits).
  QueryLimits limits;
  // Optional query-phase tracing (not owned). When set, the algorithms
  // record per-phase spans into it and the result carries a QueryProfile.
  // Null (the default) runs untraced at near-zero overhead.
  obs::TraceSession* trace = nullptr;
  // Optional execution-plan collection (not owned). When set, the
  // algorithms record per-source wavefront progress, distance-lookup tier
  // attribution, and bound-tightness samples into it; the executor (or
  // msq_profile) folds the collector plus QueryStats/QueryProfile into the
  // result's ExecutionPlan. Null (the default) collects nothing. Excluded
  // from QuerySpecDigest — observability, not query identity.
  obs::PlanCollector* plan = nullptr;
};

// One skyline answer entry. `vector` holds the network distances to each
// query point (in SkylineQuerySpec order) followed by the static
// attributes.
struct SkylineEntry {
  ObjectId object = kInvalidObject;
  DistVector vector;
};

// Per-query cost metrics, aligned with the paper's measurements.
//
// `counters` holds every row of the obs/metrics.h counter table as a delta
// over the query window: buffer hits/misses, settled nodes (the paper's
// network node accesses, Section 5), dominance tests (its canonical CPU
// cost) and the other pruning-power rows (DESIGN.md §17), and cache
// consultations. Spans, plans and flight records carry the same block, so
// they reconcile with it row by row.
//
// The `*_pages` fields count buffer MISSES — physical page reads, the
// paper's "disk pages accessed" of Figures 5 and 6. The `*_page_accesses`
// fields count every buffer lookup (hits + misses), so
// `*_page_accesses >= *_pages` always holds; the difference is the buffer
// pool's hit traffic. They are the counters' buffer rows, except that a
// pool not attached to a query-stack role is read from its own pool-wide
// totals (exact only single-threaded) — the buffer rows of `counters` then
// carry the same pool-wide view.
struct QueryStats {
  std::size_t candidate_count = 0;     // |C| (Figure 4)
  std::size_t skyline_size = 0;
  std::uint64_t network_pages = 0;     // adjacency-page buffer misses
  std::uint64_t network_page_accesses = 0;  // adjacency hits + misses
  std::uint64_t index_pages = 0;       // index-page buffer misses
  std::uint64_t index_page_accesses = 0;    // index hits + misses
  double total_seconds = 0.0;          // Figures 5(b)/6(b)/6(e)
  double initial_seconds = 0.0;        // Figures 5(c)/6(c)/6(f)
  obs::Counters counters;
};

struct SkylineResult {
  std::vector<SkylineEntry> skyline;
  QueryStats stats;
  // Per-phase trace, present iff the spec carried a TraceSession. The sum
  // of the spans' self counters reconciles exactly with `stats` (the root
  // span covers the whole StatsScope window).
  std::optional<obs::QueryProfile> profile;
  // Structured execution plan, present when the caller asked for one
  // (QueryRequest::collect_plan, msq_profile, or a served request with
  // `explain: true`). Its counters reconcile exactly with `stats`
  // (obs/plan.h ReconcilePlan).
  std::optional<obs::ExecutionPlan> plan;
  // Overall outcome. !ok() means the query failed cleanly (bad input or a
  // storage fault survived retries); `skyline` is empty then.
  Status status;
  // True when a QueryLimits budget/deadline cut the query short. The
  // skyline then holds the confirmed prefix for progressive algorithms
  // (every entry is a true skyline point) and is empty for batch
  // algorithms, which cannot confirm anything mid-run.
  bool truncated = false;
  // kResourceExhausted or kDeadlineExceeded when truncated; kOk otherwise.
  StatusCode truncation_reason = StatusCode::kOk;
  // MonotonicSeconds() marks of when the query started and finished
  // executing on a QueryExecutor worker (0.0 for synchronous runs). The
  // serving layer derives true queue wait (accept -> execute start) and
  // the execute stage of the wide event from these instead of inferring
  // them from timing differences.
  double exec_started_at = 0.0;
  double exec_finished_at = 0.0;
  // Flight-recorder sequence assigned to this query's completion record
  // (0 for synchronous runs or disabled telemetry); lets a wide event
  // point back at the flight ring.
  std::uint64_t flight_sequence = 0;
};

// Progressive reporting hook: invoked as each skyline point is confirmed.
using ProgressiveCallback = std::function<void(const SkylineEntry&)>;

// Tie-safety pass of CE, LBC and the constrained skyline: with exactly
// equal distances the emission order between two objects is arbitrary and
// a dominated one can be reported before its dominator. Keeps the entries
// that no other entry dominates, in order. Row i of `rows` must be
// skyline[i].vector. A no-op in the tie-free generic case.
std::vector<SkylineEntry> RemoveTieDominated(std::vector<SkylineEntry> skyline,
                                             const VectorRows& rows);

// Validates that the query spec is non-empty and every source location is
// valid on the dataset's network. Returns kInvalidArgument on violation —
// query inputs are external data, not programmer state. Missing dataset
// pointers still abort (wiring bug).
Status ValidateQuery(const Dataset& dataset, const SkylineQuerySpec& spec);

// Budget/deadline tracker for one query run. Algorithms poll Exceeded() at
// the top of their main loops; the first limit crossing latches a reason so
// the result can be flagged truncated consistently.
class QueryGuard {
 public:
  QueryGuard(const Dataset& dataset, const QueryLimits& limits);

  // True once the page budget or the deadline is crossed. Cheap when no
  // limit is set.
  bool Exceeded();

  // kOk until a limit is crossed, then kResourceExhausted or
  // kDeadlineExceeded (whichever latched first).
  StatusCode reason() const { return reason_; }

 private:
  std::uint64_t PageAccesses() const;

  const Dataset& dataset_;
  QueryLimits limits_;
  std::uint64_t accesses_0_ = 0;
  double start_ = 0.0;
  StatusCode reason_ = StatusCode::kOk;
};

// Monotonic wall-clock seconds (declared ahead of RunQueryBody, which
// polls it for the expired-at-start short-circuit).
double MonotonicSeconds();

// Shared query boundary: validates the spec, runs `body`, converts a
// StorageFault escaping it into an error result, and collects the trace
// profile when the spec carries a TraceSession. All Run* entry points
// funnel through this so "clean typed error, never a crash" holds uniformly.
template <typename Body>
SkylineResult RunQueryBody(const Dataset& dataset,
                           const SkylineQuerySpec& spec, Body&& body) {
  SkylineResult result;
  result.status = ValidateQuery(dataset, spec);
  if (!result.status.ok()) return result;
  // An absolute deadline that already passed (queue wait ate the whole
  // client budget) short-circuits to the well-defined truncated-empty
  // result without running the algorithm: no pages touched, no hang, same
  // shape a mid-run deadline cut produces for a batch algorithm.
  if (spec.limits.deadline_at > 0.0 &&
      MonotonicSeconds() >= spec.limits.deadline_at) {
    result.truncated = true;
    result.truncation_reason = StatusCode::kDeadlineExceeded;
    if (spec.trace != nullptr) result.profile = spec.trace->Take();
    return result;
  }
  try {
    result = std::forward<Body>(body)();
  } catch (const StorageFault& fault) {
    result.skyline.clear();
    result.status = fault.status();
  }
  // Take() force-closes whatever a fault unwind left open, so the error
  // path still yields a coherent (if truncated) profile.
  if (spec.trace != nullptr) result.profile = spec.trace->Take();
  return result;
}

// Stopwatch + counter-block snapshot used by all algorithms to fill
// QueryStats uniformly. When a TraceSession is supplied it also opens the
// query's root span (named `root_name`) for the same window the stats
// cover, so span counter deltas reconcile exactly with QueryStats; the
// root closes in Finish, or at destruction if a fault unwinds the query.
class StatsScope {
 public:
  explicit StatsScope(const Dataset& dataset,
                      obs::TraceSession* trace = nullptr,
                      std::string_view root_name = "query");

  // Marks the moment the first skyline point was reported.
  void MarkInitial();
  // Closes the root span and writes the timing, every counter row (the
  // window's delta) and the page fields into `*stats`.
  void Finish(QueryStats* stats);

 private:
  const Dataset& dataset_;
  // Registers the query's session as the thread-current one for the scope's
  // lifetime, so layers below the algorithm (buffer manager, query cache)
  // can attach detail spans via obs::DetailSpan without a plumbed pointer.
  obs::ScopedCurrentSession current_session_;
  obs::Span root_span_;
  // The query window's counters at construction (see WindowCounters in
  // query.cc for the pool-attachment rules).
  obs::Counters counters_0_;
  double start_ = 0.0;
  double initial_ = -1.0;
};

}  // namespace msq

#endif  // MSQ_CORE_QUERY_H_
