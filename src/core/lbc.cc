#include "core/lbc.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace msq {

LbcDiscovery::LbcDiscovery(const Dataset& dataset,
                           const SkylineQuerySpec& spec,
                           bool alternate_sources, Dist radius,
                           DominatedTest dominated)
    : dataset_(dataset),
      spec_(spec),
      radius_(radius),
      dominated_(std::move(dominated)),
      min_attrs_(dataset.MinStaticAttributes()),
      cache_(dataset.cache, spec.sources, dataset.graph_pager->data_epoch()),
      searches_(spec.sources.size()),
      wavefronts_(spec.sources.size()),
      wavefront_radius_(spec.sources.size(), 0.0),
      optimistic_(spec.sources.size() + dataset.static_dims()),
      fetched_(dataset.object_count(), 0),
      resolved_(dataset.object_count(), 0) {
  const std::size_t n = spec.sources.size();
  query_points_.reserve(n);
  for (const Location& source : spec.sources) {
    query_points_.push_back(dataset.network->LocationPosition(source));
  }
  for (std::size_t i = 0; i < n; ++i) {
    wavefronts_[i] = cache_.Wavefront(i);
    if (wavefronts_[i] != nullptr) {
      wavefront_radius_[i] = CheckpointRadius(wavefronts_[i]->search);
    }
  }
  const bool every_source = alternate_sources && n > 1;
  streams_.resize(every_source ? n : 1);
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    Stream& stream = streams_[s];
    stream.source = every_source ? s : spec.lbc_source_index;
    stream.browser = std::make_unique<RTreeNnBrowser>(
        dataset.object_rtree, query_points_[stream.source],
        [this](const RTreeEntry& entry, bool is_leaf) {
          return Prune(entry, is_leaf);
        });
  }
}

bool LbcDiscovery::Prune(const RTreeEntry& entry, bool is_leaf) {
  const std::size_t n = query_points_.size();
  for (std::size_t i = 0; i < n; ++i) {
    optimistic_[i] = entry.mbr.MinDist(query_points_[i]);
    if (optimistic_[i] > radius_) return true;
  }
  if (optimistic_.size() > n) {
    if (is_leaf) {
      const DistVector attrs = dataset_.StaticAttributesOf(entry.id);
      std::copy(attrs.begin(), attrs.end(), optimistic_.begin() + n);
    } else {
      std::copy(min_attrs_.begin(), min_attrs_.end(),
                optimistic_.begin() + n);
    }
  }
  return dominated_(optimistic_);
}

LbcDiscovery::Candidate LbcDiscovery::Next(std::size_t s) {
  Stream& stream = streams_[s];
  for (;;) {
    while (!stream.exhausted) {
      // Step 1.2 stop rule: once some buffered candidate's network distance
      // does not exceed the Euclidean distance of everything not yet
      // fetched, that candidate precedes every unfetched object (whose
      // network distance >= its Euclidean distance >= the browser bound).
      // Checked before fetching so an already-determined network NN never
      // triggers extra candidate retrieval.
      if (!stream.heap.empty() &&
          stream.heap.top().source_dist <= stream.browser->PeekLowerBound()) {
        break;
      }
      const auto item = stream.browser->Next();
      if (!item.found) {
        stream.exhausted = true;
        break;
      }
      if (!fetched_[item.id]) {
        fetched_[item.id] = 1;
        ++candidate_count_;
      }
      if (resolved_[item.id]) continue;  // another stream returned it
      const Dist d_net = Distance(stream.source, item.id,
                                  dataset_.mapping->ObjectLocation(item.id));
      if (std::isfinite(d_net) && d_net <= radius_) {
        stream.heap.push(Candidate{d_net, item.id, stream.source});
      }
    }
    if (stream.heap.empty()) return Candidate{};
    const Candidate top = stream.heap.top();
    stream.heap.pop();
    if (resolved_[top.object]) continue;  // returned since buffering
    resolved_[top.object] = 1;
    return top;
  }
}

AStarSearch& LbcDiscovery::search(std::size_t qi) {
  // Labels are shared across all probes from one query point. With one
  // query point LBC touches the network only from the source.
  if (searches_[qi] == nullptr) {
    searches_[qi] = std::make_unique<AStarSearch>(
        dataset_.graph_pager, spec_.sources[qi], dataset_.landmarks);
  }
  return *searches_[qi];
}

std::optional<Dist> LbcDiscovery::CachedDistance(std::size_t qi, ObjectId id,
                                                 const Location& loc) {
  if (const std::optional<Dist> memo = cache_.FindDistance(qi, id)) {
    if (spec_.plan != nullptr) spec_.plan->RecordMemoHit();
    return memo;
  }
  if (wavefronts_[qi] != nullptr) {
    const WavefrontProbe probe =
        ProbeCheckpoint(*dataset_.network, wavefronts_[qi]->search,
                        wavefront_radius_[qi], spec_.sources[qi], loc);
    if (probe.exact) {
      cache_.StoreDistance(qi, id, probe.bound);
      if (spec_.plan != nullptr) spec_.plan->RecordWavefrontExact();
      return probe.bound;
    }
  }
  return std::nullopt;
}

Dist LbcDiscovery::WavefrontBound(std::size_t qi, const Location& loc) const {
  if (wavefronts_[qi] == nullptr) return 0.0;
  return ProbeCheckpoint(*dataset_.network, wavefronts_[qi]->search,
                         wavefront_radius_[qi], spec_.sources[qi], loc)
      .bound;
}

Dist LbcDiscovery::Distance(std::size_t qi, ObjectId id, const Location& loc) {
  if (const std::optional<Dist> cached = CachedDistance(qi, id, loc)) {
    return *cached;
  }
  const Dist dist = search(qi).DistanceTo(loc);
  Harvest(qi, id, dist);
  return dist;
}

void LbcDiscovery::Harvest(std::size_t qi, ObjectId id, Dist dist) {
  if (spec_.plan != nullptr) spec_.plan->RecordComputed();
  cache_.StoreDistance(qi, id, dist);
}

void LbcDiscovery::RecordSources() const {
  if (spec_.plan == nullptr) return;
  for (std::size_t i = 0; i < searches_.size(); ++i) {
    const AStarSearch* const search = searches_[i].get();
    spec_.plan->RecordSource(
        i, search != nullptr ? search->settled_count() : 0,
        search != nullptr ? search->max_settled_distance() : 0.0,
        wavefronts_[i] != nullptr);
  }
}

SkylineResult RunLbcBody(const Dataset& dataset, const SkylineQuerySpec& spec,
                         const LbcOptions& options, Dist radius,
                         const ProgressiveCallback& on_skyline,
                         std::string_view root_name) {
  obs::TraceSession* const trace = spec.trace;
  StatsScope scope(dataset, trace, root_name);
  SkylineResult result;
  QueryGuard guard(dataset, spec.limits);

  const std::size_t n = spec.sources.size();

  // Reported skyline vectors (network distances + attributes), in report
  // order: row i is result.skyline[i].vector.
  VectorRows skyline_rows(n + dataset.static_dims());

  // Step 1.1 skips an entry when some s in S is at least as good as the
  // entry's optimistic vector in every dimension and strictly better
  // somewhere. The optimistic vector is computed through a different FP
  // path than S, so strictness uses the tie margin (dominance.h).
  LbcDiscovery discovery(
      dataset, spec, options.alternate_sources, radius,
      [&skyline_rows](std::span<const Dist> optimistic) {
        return !skyline_rows.empty() &&
               FirstDominator(skyline_rows, optimistic, kFpTieMargin) <
                   skyline_rows.size();
      });

  // Step 2: screen candidate p with path distance lower bounds.
  // Returns p's full vector if it is a skyline point, empty if dominated
  // or out of range.
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
  auto screen = [&](const LbcDiscovery::Candidate& cand) -> DistVector {
    const Location& loc = dataset.mapping->ObjectLocation(cand.object);
    const DistVector attrs = dataset.StaticAttributesOf(cand.object);

    // Current bounds per dimension; exact[i] says bound is the true value.
    DistVector bound(n, 0.0);
    std::vector<bool> exact(n, false);
    bound[cand.source] = cand.source_dist;
    exact[cand.source] = true;
    std::vector<std::unique_ptr<AStarSearch::Probe>> probes(n);
    const Point p_pos = dataset.mapping->ObjectPosition(cand.object);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == cand.source) continue;
      if (options.use_plb) {
        // Cache first: a memoized or wavefront-exact distance makes the
        // dimension exact with zero expansion; a partial wavefront still
        // contributes an admissible lower bound below.
        if (const std::optional<Dist> cached =
                discovery.CachedDistance(i, cand.object, loc)) {
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
        // Bounds start at the Euclidean distances (tightened by landmark
        // and cached-wavefront bounds when available); probes are created
        // (and network access paid) only if and when a dimension must
        // advance.
        bound[i] =
            std::max(discovery.WavefrontBound(i, loc),
                     EuclideanDistance(discovery.query_point(i), p_pos));
        if (dataset.landmarks != nullptr) {
          bound[i] = std::max(
              bound[i], dataset.landmarks->LowerBound(spec.sources[i], loc));
        }
      } else {
        // Ablation: full distances immediately, no early termination.
        bound[i] = discovery.Distance(i, cand.object, loc);
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
    for (std::size_t i = 0; i < n; ++i) {
      if (bound[i] > radius) return reject();
    }
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
            discovery.search(best_dim).NewProbe(loc));
      }
      AStarSearch::Probe& probe = *probes[best_dim];
      const Dist plb = probe.Advance();
      bound[best_dim] = std::max(bound[best_dim], plb);
      if (probe.done()) {
        bound[best_dim] = probe.distance();
        exact[best_dim] = true;
        // Probe completion yields an exact distance: harvest it.
        discovery.Harvest(best_dim, cand.object, bound[best_dim]);
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
      if (bound[best_dim] > radius) return reject();
      if (screened.Step(best_dim, bound[best_dim], exact[best_dim])) {
        return reject();
      }
    }

    CountBoundExamined();
    DistVector vec = bound;
    vec.insert(vec.end(), attrs.begin(), attrs.end());
    return vec;
  };

  // Main loop: rotate across the discovery streams (a single iteration
  // stream in single-source mode) until every stream is exhausted. Two
  // switched phases, filter then confirm, per candidate; a reported
  // candidate's bookkeeping goes back to the root span.
  enum : std::size_t { kFilter, kConfirm };
  obs::Phases<2> phases(trace, {"lbc.filter", "lbc.confirm"});
  std::size_t live = discovery.stream_count();
  std::vector<std::uint8_t> done(live, 0);
  std::size_t turn = 0;
  while (live > 0) {
    if (guard.Exceeded()) {
      // Progressive cut-off: reported entries were confirmed skyline points
      // at emission, so the prefix stands.
      result.truncated = true;
      result.truncation_reason = guard.reason();
      break;
    }
    const std::size_t s = turn % done.size();
    ++turn;
    if (done[s]) continue;
    phases.Enter(kFilter);
    const LbcDiscovery::Candidate cand = discovery.Next(s);
    if (cand.object == kInvalidObject) {
      done[s] = 1;
      --live;
      continue;
    }
    phases.Enter(kConfirm);
    DistVector vec = screen(cand);
    if (vec.empty()) continue;
    phases.Leave();
    scope.MarkInitial();
    SkylineEntry entry;
    entry.object = cand.object;
    entry.vector = vec;
    if (on_skyline) on_skyline(entry);
    result.skyline.push_back(entry);
    skyline_rows.Append(vec);
  }
  phases.Leave();

  // Tie safety: with exactly equal source distances the pop order between
  // two candidates is arbitrary.
  {
    obs::Span finalize_span(trace, "lbc.finalize");
    result.skyline =
        RemoveTieDominated(std::move(result.skyline), skyline_rows);
  }

  result.stats.candidate_count = discovery.candidate_count();
  result.stats.skyline_size = result.skyline.size();
  discovery.RecordSources();
  scope.Finish(&result.stats);
  return result;
}

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
    return RunLbcBody(dataset, spec, options, kInfDist, on_skyline, "lbc");
  });
}

}  // namespace msq
