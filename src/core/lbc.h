// LBC — Lower Bound Constraint (paper Section 4.3), the instance-optimal
// algorithm (Theorem 1).
//
// A single source query point q drives discovery (LbcDiscovery): objects
// are fetched as incremental Euclidean NNs of q, skipping R-tree subtrees
// dominated by the known skyline set S (step 1.1); a fetched object's
// exact network distance to q is computed with A* and buffered in a
// candidate heap until its network distance provably precedes everything
// not yet fetched (step 1.2). Each network NN p is then screened against S
// (LbcScreen) using only *path distance lower bounds* to the non-source
// query points: starting from the Euclidean distances, the bound with the
// smallest value is advanced one A* expansion at a time, and p is
// discarded the moment some s in S is provably at least as good in every
// dimension (step 2). Only candidates that survive to full distance
// vectors are reported — so the network access spent on a dominated
// candidate is just enough to prove it dominated, which is what makes LBC
// instance optimal.
#ifndef MSQ_CORE_LBC_H_
#define MSQ_CORE_LBC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string_view>
#include <vector>

#include "cache/query_cache.h"
#include "core/dominance.h"
#include "core/query.h"
#include "graph/astar.h"

namespace msq {

struct LbcOptions {
  // Disables the path-distance-lower-bound early termination: dominated
  // candidates then pay full network distance computations to every query
  // point, as EDC does. Exists for the ablation benchmark that isolates the
  // plb contribution (Section 5 / Figure 5 discussion).
  bool use_plb = true;
  // Rotate the discovery source among all query points instead of using
  // only SkylineQuerySpec::lbc_source_index — the paper's §4.3 extension
  // ("selecting network nearest neighbor points from multiple query points
  // alternatively"), which spreads early reported skyline points around
  // every query point instead of clustering them near one.
  bool alternate_sources = false;
};

// LBC's candidate discovery, steps 1.1 and 1.2 (DESIGN.md §19, "One
// discovery loop"): the one loop behind RunLbc, the constrained skyline and
// the k-skyband, which differ only in the test that prunes an R-tree region
// and in what they do with each candidate.
//
// A stream browses the object R-tree in Euclidean NN order from its source
// query point. It skips an entry when some query point is farther than
// `radius` from it (the Euclidean distance bounds the network distance), or
// when the caller's `dominated` test accepts the entry's optimistic vector.
// Each fetched object's exact network distance to the source is buffered
// in a heap until the step 1.2 stop rule proves the top to be the source's
// next network NN; objects beyond the radius are dropped there. Distances
// come from the query cache when it holds them (memo, then cached
// wavefronts), else from one lazily created A* search per query point, and
// are harvested back into the memo.
class LbcDiscovery {
 public:
  // `object` at exact network distance `source_dist` from query point
  // `source`; object kInvalidObject marks an exhausted stream.
  struct Candidate {
    Dist source_dist = kInfDist;
    ObjectId object = kInvalidObject;
    std::size_t source = 0;
    bool operator>(const Candidate& other) const {
      return source_dist > other.source_dist;
    }
  };
  // Whether the known results dominate an R-tree entry's optimistic vector:
  // its Euclidean distance to each query point, then its attributes (the
  // dataset's minimum attributes for a subtree). dE <= dN makes the test
  // sound against rows of network distances.
  using DominatedTest = std::function<bool(std::span<const Dist>)>;

  // One stream from spec.lbc_source_index or, with `alternate_sources` and
  // more than one query point, one per query point (the §4.3 extension).
  LbcDiscovery(const Dataset& dataset, const SkylineQuerySpec& spec,
               bool alternate_sources, Dist radius, DominatedTest dominated);
  LbcDiscovery(const LbcDiscovery&) = delete;
  LbcDiscovery& operator=(const LbcDiscovery&) = delete;

  std::size_t stream_count() const { return streams_.size(); }
  // The next network NN of stream `s` that no stream has returned before.
  Candidate Next(std::size_t s);
  // Distinct objects fetched so far: the paper's |C|.
  std::size_t candidate_count() const { return candidate_count_; }

  const Point& query_point(std::size_t qi) const { return query_points_[qi]; }
  AStarSearch& search(std::size_t qi);
  // The exact distance from query point `qi` to object `id` at `loc`, if
  // the memo or an exact cached-wavefront probe holds it.
  std::optional<Dist> CachedDistance(std::size_t qi, ObjectId id,
                                     const Location& loc);
  // An admissible lower bound on that distance from the cached wavefront
  // (0 without one).
  Dist WavefrontBound(std::size_t qi, const Location& loc) const;
  // The exact distance: cache first, A* only on a miss.
  Dist Distance(std::size_t qi, ObjectId id, const Location& loc);
  // Records a distance a search computed: its plan tier and its memo slot
  // (an infinite one too, so unreachability is remembered).
  void Harvest(std::size_t qi, ObjectId id, Dist dist);
  // Each query point's search progress, into spec.plan when it is set.
  void RecordSources() const;

 private:
  struct Stream {
    std::size_t source = 0;
    std::unique_ptr<RTreeNnBrowser> browser;
    std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>>
        heap;
    bool exhausted = false;
  };
  bool Prune(const RTreeEntry& entry, bool is_leaf);

  const Dataset& dataset_;
  const SkylineQuerySpec& spec_;
  const Dist radius_;
  const DominatedTest dominated_;
  const DistVector min_attrs_;
  // The query's view of the cross-query cache, written back when the
  // discovery ends.
  QueryCache::View cache_;
  std::vector<Point> query_points_;
  std::vector<std::unique_ptr<AStarSearch>> searches_;
  // Cached wavefronts per query point (typically left behind by CE runs):
  // exact distances inside the settled region, lower bounds beyond it.
  std::vector<QueryCache::WavefrontPtr> wavefronts_;
  std::vector<Dist> wavefront_radius_;
  DistVector optimistic_;  // Prune's scratch
  std::vector<Stream> streams_;
  // An object fetched by several streams counts once toward |C|; one
  // returned by a stream is resolved for all of them.
  std::vector<std::uint8_t> fetched_;
  std::vector<std::uint8_t> resolved_;
  std::size_t candidate_count_ = 0;
};

// Step 2's dominance screen of one candidate p against the reported
// skyline S (DESIGN.md §19, "LBC's screen"). Some s in S dominates p when
//   s[n + j] <= attrs[j] for every attribute j,
//   s[i] <= reach[i] for every distance dimension i, and
//   s[n + j] < attrs[j] for some j, or s[i] < reach[i] for some i that is
//   strict.
// reach[i] is the largest bound dimension i was screened at, so
// satisfaction is sticky: a probe completion can land an ulp below a
// Euclidean bound, and it does not un-satisfy a row. Only exact dimensions
// are strict, those exact at Start or made exact by a Step that grew their
// bound (reach[i] is then the exact distance): a plb computed through a
// different floating-point path (Euclidean sqrt vs network offset sums)
// can exceed a mathematically equal distance by an ulp and fabricate a
// strict dimension against an exact duplicate. A completion that does not
// grow the bound adds no strictness. (The "<=" side errs toward keeping
// candidates alive longer, never toward dropping them.)
//
// Only rows that can have changed are tested, on S's sorted columns
// (VectorRows::Column): at Start the shortest column prefix that can hold a
// dominator, and at a Step that grows dimension i the rows its new reach
// covers, plus, if i turned strict, the rows satisfied everywhere but
// strict nowhere. Dominance tests here are not counted.
class LbcScreen {
 public:
  // `skyline` holds n distance dimensions then attrs.size() attributes;
  // it and `attrs` must outlive the screen, and `skyline` must not change.
  LbcScreen(const VectorRows& skyline, std::size_t n,
            std::span<const Dist> attrs);

  // Screens p at its initial bounds. Returns whether S dominates p.
  bool Start(std::span<const Dist> bound, const std::vector<bool>& exact);
  // Re-screens after a probe step left dimension `dim` at `bound`, exact
  // or not. Returns whether S dominates p.
  bool Step(std::size_t dim, Dist bound, bool exact);

 private:
  enum class Row { kOpen, kTied, kDominates };
  Row Test(std::uint32_t r) const;
  // Test, remembering a tied row.
  bool Dominates(std::uint32_t r);

  const VectorRows& skyline_;
  const std::size_t n_;
  const std::span<const Dist> attrs_;
  DistVector reach_;
  std::vector<bool> strict_;
  // cursor_[i]: rows with s[i] <= reach_[i] (a prefix of column i).
  std::vector<std::size_t> cursor_;
  // Rows satisfied everywhere but strict nowhere.
  std::vector<std::uint32_t> tied_;
};

SkylineResult RunLbc(const Dataset& dataset, const SkylineQuerySpec& spec,
                     const LbcOptions& options = {},
                     const ProgressiveCallback& on_skyline = nullptr);

// RunLbc's body over only the objects within network distance `radius` of
// every query point (kInfDist for RunLbc; RunConstrainedSkylineLbc passes
// its own), traced under root span `root_name`. A candidate dies the moment
// any of its bounds exceeds the radius. Runs inside RunQueryBody.
SkylineResult RunLbcBody(const Dataset& dataset, const SkylineQuerySpec& spec,
                         const LbcOptions& options, Dist radius,
                         const ProgressiveCallback& on_skyline,
                         std::string_view root_name);

}  // namespace msq

#endif  // MSQ_CORE_LBC_H_
