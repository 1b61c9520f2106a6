#include "core/edc.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "cache/query_cache.h"
#include "common/check.h"
#include "euclid/bbs.h"
#include "graph/astar.h"

namespace msq {
namespace {

// Shared machinery of the batch and incremental EDC variants.
class EdcRunner {
 public:
  EdcRunner(const Dataset& dataset, const SkylineQuerySpec& spec)
      : dataset_(dataset),
        spec_(spec),
        cache_(dataset.cache, spec.sources,
               dataset.graph_pager->data_epoch()) {
    for (std::size_t i = 0; i < spec.sources.size(); ++i) {
      const Location& source = spec.sources[i];
      query_points_.push_back(dataset.network->LocationPosition(source));
      searches_.push_back(std::make_unique<AStarSearch>(
          dataset.graph_pager, source, dataset.landmarks));
      // Cached wavefront for this source (typically left behind by a CE
      // run): exact distances for targets inside its settled region
      // without any A* expansion.
      CachedWavefront wavefront;
      wavefront.snapshot = cache_.Wavefront(i);
      if (wavefront.snapshot != nullptr) {
        wavefront.radius = CheckpointRadius(wavefront.snapshot->search);
      }
      wavefronts_.push_back(std::move(wavefront));
    }
    min_attrs_ = dataset.MinStaticAttributes();
  }

  std::size_t n() const { return spec_.sources.size(); }
  std::size_t attr_dims() const { return min_attrs_.size(); }

  // Exact network distance from source `i` to object `id` at `loc`:
  // distance memo first, then an exact cached-wavefront probe, and only
  // then the A* search.
  Dist SourceDistance(std::size_t i, ObjectId id, const Location& loc) {
    if (const std::optional<Dist> memo = cache_.FindDistance(i, id)) {
      if (spec_.plan != nullptr) spec_.plan->RecordMemoHit();
      return *memo;
    }
    const CachedWavefront& wavefront = wavefronts_[i];
    if (wavefront.snapshot != nullptr) {
      const WavefrontProbe probe =
          ProbeCheckpoint(*dataset_.network, wavefront.snapshot->search,
                          wavefront.radius, spec_.sources[i], loc);
      if (probe.exact) {
        cache_.StoreDistance(i, id, probe.bound);
        if (spec_.plan != nullptr) spec_.plan->RecordWavefrontExact();
        return probe.bound;
      }
    }
    // Lower bound EDC's Euclid-constraint reasoning had for this pair
    // before paying for the exact computation — sampled as bound tightness
    // once A* resolves the true distance.
    Dist lower = EuclideanDistance(query_points_[i],
                                   dataset_.mapping->ObjectPosition(id));
    if (dataset_.landmarks != nullptr) {
      lower = std::max(lower,
                       dataset_.landmarks->LowerBound(spec_.sources[i], loc));
    }
    const Dist dist = searches_[i]->DistanceTo(loc);
    if (spec_.plan != nullptr) spec_.plan->RecordComputed();
    if (std::isfinite(dist)) {
      const unsigned pct = RecordBoundTightness(lower, dist);
      if (spec_.plan != nullptr) spec_.plan->RecordTightness(pct);
    }
    cache_.StoreDistance(i, id, dist);
    return dist;
  }

  // Full comparison vector: exact network distances (A*, labels shared
  // across all calls) followed by static attributes. Cached per object.
  const DistVector& NetworkVector(ObjectId id) {
    auto it = network_vectors_.find(id);
    if (it != network_vectors_.end()) return it->second;
    // First full resolution of this object's vector: fully examined.
    CountBoundExamined();
    DistVector vec;
    vec.reserve(n() + attr_dims());
    const Location& loc = dataset_.mapping->ObjectLocation(id);
    for (std::size_t i = 0; i < searches_.size(); ++i) {
      vec.push_back(SourceDistance(i, id, loc));
    }
    const DistVector attrs = dataset_.StaticAttributesOf(id);
    vec.insert(vec.end(), attrs.begin(), attrs.end());
    return network_vectors_.emplace(id, std::move(vec)).first->second;
  }

  bool HasNetworkVector(ObjectId id) const {
    return network_vectors_.count(id) != 0;
  }

  // One object R-tree node as the window walks read it: per entry its
  // child page (internal) or object id (leaf) and its optimistic vector —
  // MinDist to every query point, then the attribute lower bounds (the
  // object's own attributes at a leaf, the dataset minimum above). None
  // of it depends on the window, so each node is read and bounded once
  // per query however many windows visit it.
  struct BoundedNode {
    explicit BoundedNode(std::size_t dims) : bounds(dims) {}
    bool is_leaf = true;
    std::vector<std::uint32_t> ids;
    VectorRows bounds;  // row k: optimistic vector of entry k
  };

  const BoundedNode& Bounded(PageId page) {
    auto it = bounded_.find(page);
    if (it != bounded_.end()) return it->second;
    const RTreeNode node = dataset_.object_rtree->ReadNode(page);
    BoundedNode bounded(n() + attr_dims());
    bounded.is_leaf = node.is_leaf;
    bounded.ids.reserve(node.entries.size());
    DistVector lb(n() + attr_dims());
    for (const RTreeEntry& e : node.entries) {
      for (std::size_t i = 0; i < n(); ++i) {
        lb[i] = e.mbr.MinDist(query_points_[i]);
      }
      if (attr_dims() > 0) {
        const DistVector attrs =
            node.is_leaf ? dataset_.StaticAttributesOf(e.id) : min_attrs_;
        std::copy(attrs.begin(), attrs.end(), lb.begin() + n());
      }
      bounded.ids.push_back(e.id);
      bounded.bounds.Append(lb);
    }
    return bounded_.emplace(page, std::move(bounded)).first->second;
  }

  // Depth-first walk of the object R-tree that descends into, or fetches,
  // every entry whose optimistic vector satisfies `keep`. Appends fetched
  // object ids not already in `candidates` and marks them.
  template <typename Keep>
  void FetchWhere(const Keep& keep, std::vector<ObjectId>* order,
                  std::unordered_map<ObjectId, bool>* candidates) {
    std::vector<PageId> stack = {dataset_.object_rtree->root_page()};
    while (!stack.empty()) {
      const PageId page = stack.back();
      stack.pop_back();
      const BoundedNode& node = Bounded(page);
      for (std::size_t k = 0; k < node.ids.size(); ++k) {
        if (!keep(node.bounds.row(k))) continue;
        const std::uint32_t id = node.ids[k];
        if (node.is_leaf) {
          if (candidates->emplace(id, true).second) order->push_back(id);
        } else {
          stack.push_back(id);
        }
      }
    }
  }

  // Step 3's window fetch: every object o with dE(o, qi) <= window[i] for
  // all query dims and attrs(o) <= window's attr dims — i.e. the objects
  // that could dominate the shifted point `window`. A subtree qualifies
  // only if its optimistic vector fits inside the hypercube.
  void FetchWindow(const DistVector& window,
                   std::vector<ObjectId>* order,
                   std::unordered_map<ObjectId, bool>* candidates) {
    FetchWhere(
        [&](std::span<const Dist> lb) { return InsideWindow(lb, window); },
        order, candidates);
  }

  // Whether vector `v` (distances + attrs: a network vector, or an entry's
  // optimistic vector) lies inside the hypercube of `window`.
  bool InsideWindow(std::span<const Dist> v, const DistVector& window) const {
    MSQ_CHECK(v.size() == window.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] > window[i]) return false;
    }
    return true;
  }

  // Euclidean vector (distances + attrs) of an entry MBR treated as fully
  // contained: uses MaxDist so true only when the whole entry is inside.
  bool EntirelyInsideSomeWindow(const RTreeEntry& entry, bool is_leaf,
                                const std::vector<DistVector>& windows) const {
    for (const DistVector& w : windows) {
      bool inside = true;
      for (std::size_t i = 0; i < n(); ++i) {
        const Dist far = is_leaf ? entry.mbr.MinDist(query_points_[i])
                                 : entry.mbr.MaxDist(query_points_[i]);
        if (far > w[i]) {
          inside = false;
          break;
        }
      }
      if (!inside) continue;
      if (attr_dims() > 0) {
        // Attributes of an internal entry are unbounded above; only leaf
        // entries can be attribute-checked.
        if (!is_leaf) continue;
        const DistVector attrs = dataset_.StaticAttributesOf(entry.id);
        for (std::size_t j = 0; j < attr_dims(); ++j) {
          if (attrs[j] > w[n() + j]) {
            inside = false;
            break;
          }
        }
        if (!inside) continue;
      }
      return true;
    }
    return false;
  }

  // Appends the network vectors of order[rows->size()..] to `rows`, in
  // order (the NetworkVector call order fixes the A* settle sequence).
  void ExtendRows(const std::vector<ObjectId>& order, VectorRows* rows) {
    while (rows->size() < order.size()) {
      rows->Append(NetworkVector(order[rows->size()]));
    }
  }

  // Fetches every object whose optimistic Euclidean vector (+ attribute
  // lower bounds) is not dominated by any row of `skyline_estimate`. Any
  // object outside that region is provably network-dominated by an
  // estimate member (s <= dE(o) <= dN(o) component-wise with a strict
  // dimension).
  void FetchUndominatedRegion(const VectorRows& skyline_estimate,
                              std::vector<ObjectId>* order,
                              std::unordered_map<ObjectId, bool>* candidates) {
    // Margin-strict: lb is a Euclidean bound compared against network
    // distances (see dominance.h).
    FetchWhere(
        [&](std::span<const Dist> lb) {
          return FirstDominator(skyline_estimate, lb, kFpTieMargin) ==
                 skyline_estimate.size();
        },
        order, candidates);
  }

  // Completion pass (EdcOptions::paper_faithful == false): one
  // FetchUndominatedRegion against E0, the skyline of the candidates so
  // far, makes C exact. A second pass would add nothing: the skyline E1 of
  // the grown set covers E0 (every x in E0 is in E1 or dominated by one of
  // its members), so the region undominated by E1 lies inside the one
  // undominated by E0, whose leaves are all candidates already (DESIGN.md
  // §4b). On return `rows` holds the network vector of every candidate,
  // in `order`; the result is the candidates' skyline as indices into
  // `order`, ascending, computed as sky(E0 ∪ new) = sky(C).
  std::vector<std::size_t> CompleteCandidates(
      std::vector<ObjectId>* order,
      std::unordered_map<ObjectId, bool>* candidates, VectorRows* rows) {
    ExtendRows(*order, rows);
    std::vector<std::size_t> ids = SkylineIndices(*rows);
    VectorRows estimate(rows->dims());
    for (const std::size_t idx : ids) estimate.Append(rows->row(idx));
    FetchUndominatedRegion(estimate, order, candidates);
    // E0 and the fetched candidates, still in ascending `order` position.
    for (std::size_t i = rows->size(); i < order->size(); ++i) {
      ids.push_back(i);
    }
    ExtendRows(*order, rows);
    for (std::size_t k = estimate.size(); k < ids.size(); ++k) {
      estimate.Append(rows->row(ids[k]));
    }
    std::vector<std::size_t> skyline;
    for (const std::size_t idx : SkylineIndices(estimate)) {
      skyline.push_back(ids[idx]);
    }
    return skyline;
  }

  // Final wavefront progress of every source (ExecutionPlan). No-op
  // without a plan collector.
  void RecordSources() const {
    if (spec_.plan == nullptr) return;
    for (std::size_t i = 0; i < searches_.size(); ++i) {
      spec_.plan->RecordSource(i, searches_[i]->settled_count(),
                               searches_[i]->max_settled_distance(),
                               wavefronts_[i].snapshot != nullptr);
    }
  }

  struct CachedWavefront {
    QueryCache::WavefrontPtr snapshot;
    Dist radius = 0;
  };

  const Dataset& dataset_;
  const SkylineQuerySpec& spec_;
  // The query's view of the cross-query cache: memo first, then wavefronts.
  QueryCache::View cache_;
  std::vector<Point> query_points_;
  std::vector<std::unique_ptr<AStarSearch>> searches_;
  std::vector<CachedWavefront> wavefronts_;
  DistVector min_attrs_;
  std::unordered_map<ObjectId, DistVector> network_vectors_;
  std::unordered_map<PageId, BoundedNode> bounded_;
};

SkylineResult RunEdcBatch(const Dataset& dataset,
                          const SkylineQuerySpec& spec,
                          const EdcOptions& options,
                          const ProgressiveCallback& on_skyline) {
  obs::TraceSession* const trace = spec.trace;
  StatsScope scope(dataset, trace, "edc");
  SkylineResult result;
  QueryGuard guard(dataset, spec.limits);
  EdcRunner runner(dataset, spec);

  // Batch cut-off: nothing can be confirmed mid-run, so a tripped guard
  // yields an empty result flagged truncated.
  auto truncate = [&]() {
    result.skyline.clear();
    result.truncated = true;
    result.truncation_reason = guard.reason();
    runner.RecordSources();
    scope.Finish(&result.stats);
    return result;
  };

  // Step 1: all multi-source Euclidean skyline points.
  EuclideanSkylineBrowser::AttributeProvider attr_of = nullptr;
  if (dataset.static_dims() > 0) {
    attr_of = [&dataset](ObjectId id) {
      return dataset.StaticAttributesOf(id);
    };
  }
  EuclideanSkylineBrowser browser(dataset.object_rtree, runner.query_points_,
                                  nullptr, attr_of,
                                  dataset.MinStaticAttributes());
  std::vector<ObjectId> order;  // candidate ids in retrieval order
  std::unordered_map<ObjectId, bool> candidates;
  std::vector<ObjectId> euclid_skyline;
  {
    obs::Span span(trace, "edc.euclid_prune");
    for (auto item = browser.Next(); item.found; item = browser.Next()) {
      if (guard.Exceeded()) return truncate();
      if (candidates.emplace(item.object, true).second) {
        order.push_back(item.object);
      }
      euclid_skyline.push_back(item.object);
    }
  }

  // Step 2 + 3: shift each Euclidean skyline point to its network-distance
  // position and fetch the union-hypercube window.
  {
    obs::Span span(trace, "edc.window_fetch");
    for (const ObjectId id : euclid_skyline) {
      if (guard.Exceeded()) return truncate();
      const DistVector& shifted = runner.NetworkVector(id);
      runner.FetchWindow(shifted, &order, &candidates);
    }
  }

  // Step 4 + 5: network distances for every candidate (A* labels from
  // step 2 are reused automatically), then pairwise comparison. The
  // completion pass (off in paper-faithful mode) grows C to cover the
  // entire region undominated by the skyline estimate and yields the
  // skyline itself.
  VectorRows rows(runner.n() + runner.attr_dims());  // row i: order[i]
  std::vector<std::size_t> skyline;
  if (!options.paper_faithful) {
    obs::Span span(trace, "edc.complete");
    skyline = runner.CompleteCandidates(&order, &candidates, &rows);
  }
  obs::Span refine_span(trace, "edc.refine");
  if (options.paper_faithful) {
    for (const ObjectId id : order) {
      if (guard.Exceeded()) return truncate();
      rows.Append(runner.NetworkVector(id));
    }
    skyline = SkylineIndices(rows);
  } else if (guard.Exceeded()) {
    return truncate();
  }
  for (const std::size_t idx : skyline) {
    scope.MarkInitial();
    SkylineEntry entry;
    entry.object = order[idx];
    entry.vector.assign(rows.row(idx).begin(), rows.row(idx).end());
    if (on_skyline) on_skyline(entry);
    result.skyline.push_back(std::move(entry));
  }

  result.stats.candidate_count = order.size();
  result.stats.skyline_size = result.skyline.size();
  // Everything never fetched was excluded by the Euclid-constraint
  // region bounds without any network work.
  CountBoundPruned(dataset.object_count() - order.size());
  runner.RecordSources();
  scope.Finish(&result.stats);
  return result;
}

SkylineResult RunEdcIncremental(const Dataset& dataset,
                                const SkylineQuerySpec& spec,
                                const EdcOptions& options,
                                const ProgressiveCallback& on_skyline) {
  obs::TraceSession* const trace = spec.trace;
  StatsScope scope(dataset, trace, "edc");
  SkylineResult result;
  QueryGuard guard(dataset, spec.limits);
  EdcRunner runner(dataset, spec);

  // Windows (shifted vectors) already processed; entries wholly inside any
  // of them have been fetched and need not be re-browsed.
  std::vector<DistVector> processed_windows;

  EuclideanSkylineBrowser::AttributeProvider attr_of = nullptr;
  if (dataset.static_dims() > 0) {
    attr_of = [&dataset](ObjectId id) {
      return dataset.StaticAttributesOf(id);
    };
  }
  EuclideanSkylineBrowser browser(
      dataset.object_rtree, runner.query_points_,
      [&](const RTreeEntry& entry, bool is_leaf) {
        return runner.EntirelyInsideSomeWindow(entry, is_leaf,
                                               processed_windows);
      },
      attr_of, dataset.MinStaticAttributes());

  std::vector<ObjectId> order;
  std::unordered_map<ObjectId, bool> candidates;
  std::vector<std::uint8_t> determined(dataset.object_count(), 0);
  const std::size_t dims = runner.n() + runner.attr_dims();
  VectorRows order_rows(dims);  // row p: network vector of order[p]
  VectorRows reported_rows(dims);

  // Whether order[p] is dominated by a reported point or by any other
  // fetched candidate.
  auto dominated = [&](std::size_t p) {
    const std::span<const Dist> vec = order_rows.row(p);
    return FirstDominator(reported_rows, vec, 0.0) < reported_rows.size() ||
           FirstDominator(order_rows, vec, 0.0, p) < order_rows.size();
  };
  auto report = [&](std::size_t p) {
    scope.MarkInitial();
    SkylineEntry entry;
    entry.object = order[p];
    entry.vector.assign(order_rows.row(p).begin(), order_rows.row(p).end());
    if (on_skyline) on_skyline(entry);
    result.skyline.push_back(entry);
    reported_rows.Append(entry.vector);
  };

  // Reports every undetermined candidate that (a) lies inside a processed
  // window — so all of its potential dominators are already fetched — and
  // (b) is dominated by nothing fetched or reported. Network vectors are
  // resolved up front in `order` sequence, the order the scans would first
  // touch them in.
  auto drain_determinable = [&]() {
    runner.ExtendRows(order, &order_rows);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t p = 0; p < order.size(); ++p) {
        if (determined[order[p]]) continue;
        bool covered = false;
        for (const DistVector& w : processed_windows) {
          if (runner.InsideWindow(order_rows.row(p), w)) {
            covered = true;
            break;
          }
        }
        if (!covered) continue;
        determined[order[p]] = 1;
        changed = true;
        if (!dominated(p)) report(p);
      }
    }
  };

  {
    obs::Span browse_span(trace, "edc.euclid_prune");
    // Per Euclidean skyline point: two switched phases, then back to the
    // browse.
    enum : std::size_t { kWindowFetch, kDrain };
    obs::Phases<2> phases(trace, {"edc.window_fetch", "edc.drain"});
    for (auto item = browser.Next(); item.found; item = browser.Next()) {
      if (guard.Exceeded()) {
        // Progressive cut-off: entries reported by drain_determinable were
        // confirmed (all their potential dominators fetched), so the prefix
        // stands. The final drain below assumes an exhausted browser and
        // must be skipped.
        result.truncated = true;
        result.truncation_reason = guard.reason();
        break;
      }
      if (candidates.emplace(item.object, true).second) {
        order.push_back(item.object);
      }
      phases.Enter(kWindowFetch);
      const DistVector& shifted = runner.NetworkVector(item.object);
      runner.FetchWindow(shifted, &order, &candidates);
      processed_windows.push_back(shifted);
      phases.Enter(kDrain);
      drain_determinable();
      phases.Leave();
    }
  }

  if (result.truncated) {
    result.stats.candidate_count = order.size();
    result.stats.skyline_size = result.skyline.size();
    runner.RecordSources();
    scope.Finish(&result.stats);
    return result;
  }

  // Completion pass (off in paper-faithful mode) before the final report:
  // late-fetched candidates can both add missed skyline points and expose
  // false positives among the undetermined remainder. The skyline it
  // returns is not needed: the checks below decide each candidate.
  if (!options.paper_faithful) {
    obs::Span span(trace, "edc.complete");
    runner.CompleteCandidates(&order, &candidates, &order_rows);
  }

  // Browser exhausted: remaining undetermined candidates are skyline unless
  // dominated by something fetched.
  obs::Span refine_span(trace, "edc.refine");
  runner.ExtendRows(order, &order_rows);
  for (std::size_t p = 0; p < order.size(); ++p) {
    if (!determined[order[p]] && !dominated(p)) report(p);
  }

  result.stats.candidate_count = order.size();
  result.stats.skyline_size = result.skyline.size();
  // See RunEdcBatch: never-fetched objects were pruned by the
  // Euclid-constraint region bounds.
  CountBoundPruned(dataset.object_count() - order.size());
  runner.RecordSources();
  scope.Finish(&result.stats);
  return result;
}

}  // namespace

SkylineResult RunEdc(const Dataset& dataset, const SkylineQuerySpec& spec,
                     const EdcOptions& options,
                     const ProgressiveCallback& on_skyline) {
  return RunQueryBody(dataset, spec, [&] {
    return options.incremental
               ? RunEdcIncremental(dataset, spec, options, on_skyline)
               : RunEdcBatch(dataset, spec, options, on_skyline);
  });
}

}  // namespace msq
