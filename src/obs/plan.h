// Structured per-query execution plans — the EXPLAIN layer.
//
// An ExecutionPlan is the query-shaped answer to "why was this query
// expensive": the per-phase breakdown the spans already record, the
// paper's pruning-power counters (dominance tests performed vs. avoided,
// objects pruned by a lower bound vs. fully examined), a log2 histogram of
// bound-tightness samples (plb/dN as a percent), per-source wavefront
// progress, and cache-tier attribution of exact distance lookups.
//
// Collection is split in two so the hot paths stay cheap:
//
//   * PlanCollector rides on SkylineQuerySpec::plan and receives only what
//     the counters cannot reconstruct — tightness samples, per-source
//     progress, lookup tiers. Null collector = no work.
//   * BuildExecutionPlan folds the collector together with the query's
//     QueryStats and QueryProfile after the run (executor worker or
//     msq_profile), so plan totals are the same thread-exact deltas the
//     stats report.
//
// ReconcilePlan is the oracle: every plan counter must equal its
// QueryStats twin exactly, the histogram's count/sum must equal the
// independently counted sample counters, and the phase rollup must sum to
// the totals (DESIGN.md §17). ReconcileProfile holds spans to the same
// discipline. Both loop over the obs/metrics.h counter table, so a new
// row is checked everywhere without touching them.
#ifndef MSQ_OBS_PLAN_H_
#define MSQ_OBS_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "obs/recent_ring.h"
#include "obs/trace.h"

namespace msq {
struct QueryStats;
}  // namespace msq

namespace msq::obs {

// One top-level phase of the query (a depth-1 span of the profile, e.g.
// "lbc.filter"), with its inclusive counters. A synthetic "unattributed"
// phase carries the root span's self counters so the phases partition the
// query's totals exactly.
struct PlanPhase {
  std::string name;
  double seconds = 0.0;
  Counters counters;
};

// Wavefront progress of one query source at the end of the run.
struct PlanSourceProgress {
  std::size_t source = 0;
  // Nodes this source's expansion settled (for EDC/LBC: settled by exact
  // distance computations attributed to this source).
  std::uint64_t settled_nodes = 0;
  // Farthest network distance the expansion reached (0 when it never ran).
  double radius = 0.0;
  // Whether the expansion resumed from a cross-query cached wavefront.
  bool resumed_from_cache = false;
};

// Where exact distance lookups were answered: the cross-query memo, an
// exact hit inside a cached wavefront snapshot, or an actual A*/Dijkstra
// computation.
struct PlanCacheTiers {
  std::uint64_t memo_hits = 0;
  std::uint64_t wavefront_exact = 0;
  std::uint64_t computed = 0;

  std::uint64_t total() const {
    return memo_hits + wavefront_exact + computed;
  }
};

// The finished plan of one query.
struct ExecutionPlan {
  std::string algorithm;
  double total_seconds = 0.0;
  bool truncated = false;
  // Every counter-table row — the exact QueryStats twin (ReconcilePlan).
  Counters counters;
  std::uint64_t candidate_count = 0;
  std::uint64_t skyline_size = 0;
  // Log2 histogram of the per-sample tightness percents (bucket layout of
  // obs/histogram.h; count/sum reconcile against the sample counters).
  Histogram::Snapshot bound_tightness;
  std::vector<PlanPhase> phases;
  std::vector<PlanSourceProgress> sources;
  PlanCacheTiers tiers;

  // Mean plb/dN tightness in percent (100 = bounds were exact); 0 when no
  // samples were taken.
  double mean_tightness_pct() const {
    return counters.bound_samples == 0
               ? 0.0
               : static_cast<double>(counters.bound_pct_sum) /
                     static_cast<double>(counters.bound_samples);
  }
};

// Per-query collection sink the algorithms write into (single-threaded:
// a query runs on one worker). Reusable across queries via Reset().
class PlanCollector {
 public:
  void Reset() {
    tightness_ = Histogram::Snapshot{};
    sources_.clear();
    tiers_ = PlanCacheTiers{};
  }

  // One bound-tightness sample, as the percent RecordBoundTightness
  // returned. Kept separate from the global counters on purpose: the
  // reconciliation oracle compares this histogram's count/sum against the
  // independently accumulated thread counters.
  void RecordTightness(unsigned pct) {
    ++tightness_.buckets[Histogram::BucketIndex(pct)];
    ++tightness_.count;
    tightness_.sum += pct;
  }

  // Final progress of one source (last write wins, keyed by index).
  void RecordSource(std::size_t source, std::uint64_t settled_nodes,
                    double radius, bool resumed_from_cache);

  void RecordMemoHit(std::uint64_t n = 1) { tiers_.memo_hits += n; }
  void RecordWavefrontExact(std::uint64_t n = 1) {
    tiers_.wavefront_exact += n;
  }
  void RecordComputed(std::uint64_t n = 1) { tiers_.computed += n; }

  const Histogram::Snapshot& tightness() const { return tightness_; }
  const std::vector<PlanSourceProgress>& sources() const { return sources_; }
  const PlanCacheTiers& tiers() const { return tiers_; }

 private:
  Histogram::Snapshot tightness_;
  std::vector<PlanSourceProgress> sources_;
  PlanCacheTiers tiers_;
};

// Folds the post-run pieces into one plan. `profile` and `collector` may
// be null (phases / sources+tiers+histogram are then empty); `stats`
// supplies every scalar total, so reconciliation against it is exact by
// construction and ReconcilePlan guards the fold itself.
ExecutionPlan BuildExecutionPlan(std::string_view algorithm,
                                 const msq::QueryStats& stats,
                                 const QueryProfile* profile,
                                 const PlanCollector* collector,
                                 bool truncated);

// Exact reconciliation oracle: empty string when every counter row, the
// page-access totals, the candidate count and the skyline size equal their
// QueryStats twins, the tightness histogram's count/sum equal the sample
// rows, and the phase rollup sums to the totals row by row; otherwise a
// description of the first mismatch.
std::string ReconcilePlan(const ExecutionPlan& plan,
                          const msq::QueryStats& stats);

// The tracer's oracle (DESIGN.md §9): empty string when the profile's span
// self counters sum to the QueryStats counters row by row, the root span's
// inclusive counters equal that sum, the page fields equal their span
// derivations, and pages_per_settled_node derived from either side agrees
// bit for bit; otherwise a description of the first mismatch.
std::string ReconcileProfile(const QueryProfile& profile,
                             const msq::QueryStats& stats);

// Single-line JSON encoding of one plan (the served `"plan"` field and the
// /explainz entries).
std::string PlanJson(const ExecutionPlan& plan);

// One retained plan in the bounded recent-plan ring.
struct RetainedPlan {
  std::uint64_t sequence = 0;   // flight-recorder sequence of the query
  std::string trace_id;         // hex trace id ("" when untraced)
  ExecutionPlan plan;
};

// Running per-algorithm counter totals — the always-on side of /explainz,
// which reports their pruning-power rows. Adds from counters the
// completion path already holds, so accounting every query costs nothing
// measurable (unlike building and retaining a full ExecutionPlan, which is
// explain-only).
struct PlanAggregate {
  std::uint64_t queries = 0;
  Counters counters;
};

// Bounded ring of recent plans (obs/recent_ring.h) plus the
// per-algorithm pruning aggregates (GET /explainz). Full plans are
// retained only for explain-requested queries; Account() is the cheap
// every-completion path.
class PlanStore {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit PlanStore(std::size_t capacity = kDefaultCapacity)
      : plans_(capacity) {}

  void Retain(RetainedPlan plan) { plans_.Push(std::move(plan)); }
  // The retained plans in ascending flight-recorder sequence, with the
  // total ever retained.
  RecentRing<RetainedPlan>::Window Snapshot() const;

  // Folds one completed query's counters into the per-algorithm
  // rollup. Called for every completion when telemetry is on.
  void Account(std::string_view algorithm, const msq::QueryStats& stats);
  std::vector<std::pair<std::string, PlanAggregate>> Aggregates() const;

  std::size_t capacity() const { return plans_.capacity(); }
  std::uint64_t accounted_total() const;

 private:
  RecentRing<RetainedPlan> plans_;
  mutable std::mutex mu_;  // guards the rollup
  std::map<std::string, PlanAggregate, std::less<>> aggregates_;
  std::uint64_t accounted_total_ = 0;
};

// The GET /explainz body: the per-algorithm pruning-efficiency rollup
// (queries, dominance tests performed / avoided and the avoided ratio,
// objects bound-pruned / examined and the prune ratio, mean bound
// tightness — fed by Account for every completion) plus the retained
// explain plans.
std::string ExplainzJson(const PlanStore& store);

}  // namespace msq::obs

#endif  // MSQ_OBS_PLAN_H_
