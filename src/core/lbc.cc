#include "core/lbc.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <queue>

#include "cache/query_cache.h"
#include "common/check.h"
#include "graph/astar.h"

namespace msq {
namespace {

// Candidate buffered in step 1.2 with its exact distance to the source.
struct SourceCandidate {
  Dist source_dist;
  ObjectId object;
  bool operator>(const SourceCandidate& other) const {
    return source_dist > other.source_dist;
  }
};

SkylineResult RunLbcBody(const Dataset& dataset, const SkylineQuerySpec& spec,
                         const LbcOptions& options,
                         const ProgressiveCallback& on_skyline) {
  obs::TraceSession* const trace = spec.trace;
  StatsScope scope(dataset, trace, "lbc");
  SkylineResult result;
  QueryGuard guard(dataset, spec.limits);

  const std::size_t n = spec.sources.size();
  const std::size_t attr_dims = dataset.static_dims();
  const DistVector min_attrs = dataset.MinStaticAttributes();

  std::vector<Point> query_points;
  query_points.reserve(n);
  for (const Location& source : spec.sources) {
    query_points.push_back(dataset.network->LocationPosition(source));
  }

  // One reusable A* search per query point (labels shared across all
  // probes from that query point). Non-source searches are created lazily:
  // with one query point LBC touches the network only from the source.
  std::vector<std::unique_ptr<AStarSearch>> searches(n);
  auto search_for = [&](std::size_t qi) -> AStarSearch& {
    if (searches[qi] == nullptr) {
      searches[qi] = std::make_unique<AStarSearch>(
          dataset.graph_pager, spec.sources[qi], dataset.landmarks);
    }
    return *searches[qi];
  };

  // Cached wavefronts per source (typically left behind by CE runs over
  // the same query points): exact distances inside the settled region,
  // admissible lower bounds beyond it.
  std::vector<QueryCache::WavefrontPtr> wavefronts(n);
  std::vector<Dist> wavefront_radius(n, 0.0);
  if (dataset.cache != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      wavefronts[i] = dataset.cache->FindWavefront(
          spec.sources[i], dataset.graph_pager->data_epoch());
      if (wavefronts[i] != nullptr) {
        wavefront_radius[i] = CheckpointRadius(wavefronts[i]->search);
      }
    }
  }

  // Exact cached distance from source `qi` to `id`, if the memo or an
  // exact wavefront probe can supply one without touching the graph.
  auto exact_cached = [&](std::size_t qi, ObjectId id,
                          const Location& loc) -> std::optional<Dist> {
    QueryCache* const cache = dataset.cache;
    if (cache == nullptr) return std::nullopt;
    if (const std::optional<Dist> memo =
            cache->FindDistance(spec.sources[qi], id,
                                dataset.graph_pager->data_epoch())) {
      if (spec.plan != nullptr) spec.plan->RecordMemoHit();
      return memo;
    }
    if (wavefronts[qi] != nullptr) {
      const WavefrontProbe probe =
          ProbeCheckpoint(*dataset.network, wavefronts[qi]->search,
                          wavefront_radius[qi], spec.sources[qi], loc);
      if (probe.exact) {
        cache->StoreDistance(spec.sources[qi], id, probe.bound,
                             dataset.graph_pager->data_epoch());
        if (spec.plan != nullptr) spec.plan->RecordWavefrontExact();
        return probe.bound;
      }
    }
    return std::nullopt;
  };

  // Exact network distance from source `qi` to `id`: cache first, A* only
  // on a full miss (harvesting the result back into the memo).
  auto source_distance = [&](std::size_t qi, ObjectId id,
                             const Location& loc) -> Dist {
    if (const std::optional<Dist> cached = exact_cached(qi, id, loc)) {
      return *cached;
    }
    const Dist dist = search_for(qi).DistanceTo(loc);
    if (spec.plan != nullptr) spec.plan->RecordComputed();
    if (dataset.cache != nullptr) {
      dataset.cache->StoreDistance(spec.sources[qi], id, dist,
                                   dataset.graph_pager->data_epoch());
    }
    return dist;
  };

  // Reported skyline vectors (network distances + attributes), in report
  // order: row i is result.skyline[i].vector.
  VectorRows skyline_rows(n + attr_dims);

  // Step 1.1's Euclidean NN browser with skyline-dominance pruning: an
  // entry is skipped when some s in S is at least as good as the entry's
  // optimistic vector in every dimension and strictly better somewhere.
  // (The ith attribute of the entry is its *Euclidean* distance to qi while
  // s carries *network* distances; dE <= dN makes the comparison sound.)
  DistVector lb(n + attr_dims);  // scratch, rebuilt per entry
  auto prune = [&](const RTreeEntry& entry, bool is_leaf) {
    if (skyline_rows.empty()) return false;
    for (std::size_t i = 0; i < n; ++i) {
      lb[i] = entry.mbr.MinDist(query_points[i]);
    }
    if (attr_dims > 0) {
      if (is_leaf) {
        const DistVector attrs = dataset.StaticAttributesOf(entry.id);
        std::copy(attrs.begin(), attrs.end(), lb.begin() + n);
      } else {
        std::copy(min_attrs.begin(), min_attrs.end(), lb.begin() + n);
      }
    }
    return FirstDominator(skyline_rows, lb, kFpTieMargin) <
           skyline_rows.size();
  };
  // Per-source discovery state. Single-source mode (the paper's primary
  // formulation) uses only spec.lbc_source_index; alternation (§4.3
  // extension) rotates through all of them.
  struct Discovery {
    std::size_t source_dim = 0;
    std::unique_ptr<RTreeNnBrowser> browser;
    // Candidates with exact source distance, pending network-NN ordering.
    std::priority_queue<SourceCandidate, std::vector<SourceCandidate>,
                        std::greater<>>
        heap;
    bool browser_exhausted = false;
  };
  std::vector<Discovery> discoveries;
  if (options.alternate_sources && n > 1) {
    discoveries.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      discoveries[i].source_dim = i;
      discoveries[i].browser = std::make_unique<RTreeNnBrowser>(
          dataset.object_rtree, query_points[i], prune);
    }
  } else {
    discoveries.resize(1);
    discoveries[0].source_dim = spec.lbc_source_index;
    discoveries[0].browser = std::make_unique<RTreeNnBrowser>(
        dataset.object_rtree, query_points[spec.lbc_source_index], prune);
  }

  // Each distinct object counts once toward |C| even when several sources
  // fetch it; an object screened through one source is resolved for all.
  std::vector<std::uint8_t> fetched(dataset.object_count(), 0);
  std::vector<std::uint8_t> resolved(dataset.object_count(), 0);

  // Step 1: the next network nearest neighbor of a discovery's source in
  // the not-yet-dominated region. Returns kInvalidObject when none remain.
  auto next_network_nn = [&](Discovery& d) -> SourceCandidate {
    for (;;) {
      while (!d.browser_exhausted) {
        // Step 1.2 stop rule: once some buffered candidate's network
        // distance does not exceed the Euclidean distance of everything
        // not yet fetched, that candidate precedes every unfetched object
        // (whose network distance >= its Euclidean distance >= the browser
        // bound). Checked before fetching so an already-determined network
        // NN never triggers extra candidate retrieval.
        if (!d.heap.empty() &&
            d.heap.top().source_dist <= d.browser->PeekLowerBound()) {
          break;
        }
        const auto item = d.browser->Next();
        if (!item.found) {
          d.browser_exhausted = true;
          break;
        }
        if (!fetched[item.id]) {
          fetched[item.id] = 1;
          ++result.stats.candidate_count;
        }
        if (resolved[item.id]) continue;  // another source settled it
        const Dist d_net = source_distance(
            d.source_dim, item.id, dataset.mapping->ObjectLocation(item.id));
        if (std::isfinite(d_net)) {
          d.heap.push(SourceCandidate{d_net, item.id});
        }
      }
      if (d.heap.empty()) return SourceCandidate{kInfDist, kInvalidObject};
      const SourceCandidate top = d.heap.top();
      d.heap.pop();
      if (resolved[top.object]) continue;  // resolved since buffering
      return top;
    }
  };

  // Step 2: screen candidate p with path distance lower bounds.
  // Returns p's full vector if it is a skyline point, empty if dominated.
  //
  // Domination is decided by an LbcScreen, which re-tests only the rows
  // of S that a grown bound can have changed.
  //
  // Pruning-power classification (ExecutionPlan): an object rejected while
  // some distance dimension was still only a lower bound was pruned *by*
  // the bound; one whose every dimension was resolved exactly (skyline
  // point, dominated after full resolution, or excluded as unreachable)
  // was fully examined.
  auto all_exact = [](const std::vector<bool>& exact) {
    for (const bool e : exact) {
      if (!e) return false;
    }
    return true;
  };
  auto screen = [&](const SourceCandidate& cand,
                    std::size_t src) -> DistVector {
    const Location& loc = dataset.mapping->ObjectLocation(cand.object);
    const DistVector attrs = dataset.StaticAttributesOf(cand.object);

    // Current bounds per dimension; exact[i] says bound is the true value.
    DistVector bound(n, 0.0);
    std::vector<bool> exact(n, false);
    bound[src] = cand.source_dist;
    exact[src] = true;
    std::vector<std::unique_ptr<AStarSearch::Probe>> probes(n);
    const Point p_pos = dataset.mapping->ObjectPosition(cand.object);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == src) continue;
      if (options.use_plb) {
        // Cache first: a memoized or wavefront-exact distance makes the
        // dimension exact with zero expansion; a partial wavefront still
        // contributes an admissible lower bound below.
        Dist wavefront_lb = 0.0;
        if (const std::optional<Dist> cached =
                exact_cached(i, cand.object, loc)) {
          bound[i] = *cached;
          exact[i] = true;
          if (!std::isfinite(bound[i])) {
            // Unreachable from some query point (the cold run would learn
            // this at probe completion): excluded by skyline semantics.
            CountBoundExamined();
            return {};
          }
          continue;
        }
        if (wavefronts[i] != nullptr) {
          wavefront_lb =
              ProbeCheckpoint(*dataset.network, wavefronts[i]->search,
                              wavefront_radius[i], spec.sources[i], loc)
                  .bound;
        }
        // Bounds start at the Euclidean distances (tightened by landmark
        // and cached-wavefront bounds when available); probes are created
        // (and network access paid) only if and when a dimension must
        // advance.
        bound[i] =
            std::max(wavefront_lb, EuclideanDistance(query_points[i], p_pos));
        if (dataset.landmarks != nullptr) {
          bound[i] = std::max(
              bound[i], dataset.landmarks->LowerBound(spec.sources[i], loc));
        }
      } else {
        // Ablation: full distances immediately, no early termination.
        bound[i] = source_distance(i, cand.object, loc);
        exact[i] = true;
      }
    }

    auto reject = [&] {
      if (all_exact(exact)) {
        CountBoundExamined();
      } else {
        CountBoundPruned();
      }
      return DistVector{};
    };
    LbcScreen screened(skyline_rows, n, attrs);
    if (screened.Start(bound, exact)) return reject();
    // Initial bounds, before any probe expansion: the tightness a plb/ALT
    // bound achieved for a dimension is judged against these once the
    // probe completes with the exact distance.
    const DistVector initial_bound = bound;

    for (;;) {
      // All dimensions exact and undominated: skyline point.
      std::size_t best_dim = n;
      Dist best_bound = kInfDist;
      for (std::size_t i = 0; i < n; ++i) {
        if (!exact[i] && bound[i] < best_bound) {
          best_bound = bound[i];
          best_dim = i;
        }
      }
      if (best_dim == n) break;

      // Advance the non-source dimension with the minimum current plb by
      // one expansion (Section 4.3: "choose a non-source query point q' to
      // expand to p if q's current path distance lower bound to p is the
      // minimum").
      if (probes[best_dim] == nullptr) {
        probes[best_dim] = std::make_unique<AStarSearch::Probe>(
            search_for(best_dim).NewProbe(loc));
      }
      AStarSearch::Probe& probe = *probes[best_dim];
      const Dist plb = probe.Advance();
      bound[best_dim] = std::max(bound[best_dim], plb);
      if (probe.done()) {
        bound[best_dim] = probe.distance();
        exact[best_dim] = true;
        if (spec.plan != nullptr) spec.plan->RecordComputed();
        if (dataset.cache != nullptr) {
          // Probe completion yields an exact distance — harvest it (inf
          // included, so unreachability is also remembered).
          dataset.cache->StoreDistance(spec.sources[best_dim], cand.object,
                                       bound[best_dim],
                                       dataset.graph_pager->data_epoch());
        }
        if (!std::isfinite(bound[best_dim])) {
          // Unreachable from some query point: excluded by the library's
          // skyline semantics.
          CountBoundExamined();
          return {};
        }
        // Probe completion is the exact-resolution site: sample how tight
        // the initial plb was against the true network distance.
        const unsigned pct = RecordBoundTightness(initial_bound[best_dim],
                                                  bound[best_dim]);
        if (spec.plan != nullptr) spec.plan->RecordTightness(pct);
      }
      if (screened.Step(best_dim, bound[best_dim], exact[best_dim])) {
        return reject();
      }
    }

    CountBoundExamined();
    DistVector vec = bound;
    vec.insert(vec.end(), attrs.begin(), attrs.end());
    return vec;
  };

  // Main loop: rotate across the discovery sources (a single iteration
  // vector in single-source mode) until every source is exhausted.
  std::size_t live = discoveries.size();
  std::vector<std::uint8_t> done(discoveries.size(), 0);
  std::size_t turn = 0;
  while (live > 0) {
    if (guard.Exceeded()) {
      // Progressive cut-off: reported entries were confirmed skyline points
      // at emission, so the prefix stands.
      result.truncated = true;
      result.truncation_reason = guard.reason();
      break;
    }
    const std::size_t di = turn % discoveries.size();
    ++turn;
    if (done[di]) continue;
    Discovery& discovery = discoveries[di];
    SourceCandidate cand;
    {
      obs::Span span(trace, "lbc.filter");
      cand = next_network_nn(discovery);
    }
    if (cand.object == kInvalidObject) {
      done[di] = 1;
      --live;
      continue;
    }
    resolved[cand.object] = 1;
    DistVector vec;
    {
      obs::Span span(trace, "lbc.confirm");
      vec = screen(cand, discovery.source_dim);
    }
    if (vec.empty()) continue;
    scope.MarkInitial();
    SkylineEntry entry;
    entry.object = cand.object;
    entry.vector = vec;
    if (on_skyline) on_skyline(entry);
    result.skyline.push_back(entry);
    skyline_rows.Append(vec);
  }

  // Tie safety: with exactly equal source distances the pop order between
  // two candidates is arbitrary.
  {
    obs::Span finalize_span(trace, "lbc.finalize");
    result.skyline =
        RemoveTieDominated(std::move(result.skyline), skyline_rows);
  }

  result.stats.skyline_size = result.skyline.size();
  if (spec.plan != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      spec.plan->RecordSource(
          i, searches[i] != nullptr ? searches[i]->settled_count() : 0,
          searches[i] != nullptr ? searches[i]->max_settled_distance() : 0.0,
          wavefronts[i] != nullptr);
    }
  }
  scope.Finish(&result.stats);
  return result;
}

}  // namespace

LbcScreen::LbcScreen(const VectorRows& skyline, std::size_t n,
                     std::span<const Dist> attrs)
    : skyline_(skyline), n_(n), attrs_(attrs), cursor_(n, 0) {
  MSQ_CHECK(skyline.dims() == n + attrs.size());
}

LbcScreen::Row LbcScreen::Test(std::uint32_t r) const {
  const Dist* s = skyline_.row(r).data();
  bool strict = false;
  for (std::size_t j = 0; j < attrs_.size(); ++j) {
    if (s[n_ + j] > attrs_[j]) return Row::kOpen;
    if (s[n_ + j] < attrs_[j]) strict = true;
  }
  for (std::size_t i = 0; i < n_; ++i) {
    if (s[i] > reach_[i]) return Row::kOpen;
    if (strict_[i] && s[i] < reach_[i]) strict = true;
  }
  return strict ? Row::kDominates : Row::kTied;
}

bool LbcScreen::Dominates(std::uint32_t r) {
  const Row outcome = Test(r);
  if (outcome == Row::kTied) tied_.push_back(r);
  return outcome == Row::kDominates;
}

bool LbcScreen::Start(std::span<const Dist> bound,
                      const std::vector<bool>& exact) {
  MSQ_CHECK(bound.size() == n_ && exact.size() == n_);
  reach_.assign(bound.begin(), bound.end());
  strict_ = exact;
  if (skyline_.empty()) return false;
  // A dominator lies in every column's covered prefix: test the shortest.
  std::size_t best_k = 0;
  std::size_t best_len = skyline_.size();
  for (std::size_t k = 0; k < skyline_.dims(); ++k) {
    const std::size_t len =
        skyline_.ColumnAtMost(k, k < n_ ? reach_[k] : attrs_[k - n_]).size();
    if (k < n_) cursor_[k] = len;
    if (len < best_len) {
      best_k = k;
      best_len = len;
    }
  }
  for (const VectorRows::ColumnEntry& e :
       skyline_.Column(best_k).first(best_len)) {
    if (Dominates(e.row)) return true;
  }
  return false;
}

bool LbcScreen::Step(std::size_t dim, Dist bound, bool exact) {
  MSQ_CHECK(dim < n_);
  if (!(bound > reach_[dim])) return false;
  reach_[dim] = bound;
  if (exact && !strict_[dim]) {
    strict_[dim] = true;
    for (const std::uint32_t r : tied_) {
      if (Test(r) == Row::kDominates) return true;
    }
  }
  // Only the rows the grown reach newly covers became satisfied here.
  const std::span<const VectorRows::ColumnEntry> column = skyline_.Column(dim);
  for (std::size_t& c = cursor_[dim];
       c < column.size() && column[c].value <= bound; ++c) {
    if (Dominates(column[c].row)) return true;
  }
  return false;
}

SkylineResult RunLbc(const Dataset& dataset, const SkylineQuerySpec& spec,
                     const LbcOptions& options,
                     const ProgressiveCallback& on_skyline) {
  return RunQueryBody(dataset, spec, [&] {
    return RunLbcBody(dataset, spec, options, on_skyline);
  });
}

}  // namespace msq
