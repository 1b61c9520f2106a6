#include "core/ce.h"

#include <cmath>
#include <memory>
#include <span>

#include "cache/query_cache.h"
#include "common/check.h"
#include "graph/nn_stream.h"

namespace msq {
namespace {

// Opens one NN stream per query point, resuming each from the query's
// cache view when a wavefront snapshot for its source is present.
// `resumes` records the consulted snapshots (null on miss) so the close
// path can tell whether a stream actually grew.
//
// The streams share `memo`, so an occupied edge reached by several
// wavefronts is read from the middle layer once per query.
std::vector<std::unique_ptr<NetworkNnStream>> OpenStreams(
    const Dataset& dataset, const SkylineQuerySpec& spec,
    QueryCache::View* cache, EdgeObjectMemo* memo,
    std::vector<QueryCache::WavefrontPtr>* resumes) {
  std::vector<std::unique_ptr<NetworkNnStream>> streams;
  streams.reserve(spec.sources.size());
  resumes->clear();
  for (std::size_t q = 0; q < spec.sources.size(); ++q) {
    QueryCache::WavefrontPtr resume = cache->Wavefront(q);
    streams.push_back(std::make_unique<NetworkNnStream>(
        dataset.graph_pager, dataset.mapping, spec.sources[q], resume.get(),
        memo));
    resumes->push_back(std::move(resume));
  }
  return streams;
}

// Stages a checkpoint of every stream in the query's cache view. Streams
// that resumed a snapshot and never expanded past it are skipped —
// re-storing an identical snapshot would only churn bytes and LRU order
// (the view's open already refreshed recency).
void StoreStreams(
    const std::vector<std::unique_ptr<NetworkNnStream>>& streams,
    const std::vector<QueryCache::WavefrontPtr>& resumes,
    QueryCache::View* cache) {
  if (!cache->enabled()) return;
  for (std::size_t q = 0; q < streams.size(); ++q) {
    if (resumes[q] != nullptr &&
        streams[q]->settled_count() == resumes[q]->search.settled_count) {
      continue;
    }
    cache->StoreWavefront(q, streams[q]->MakeSnapshot());
  }
}

// Per-object bookkeeping shared by both phases. The network distances
// live in a DistanceTable beside it.
struct ObjectState {
  std::uint32_t visit_count = 0;
  bool candidate = false;     // member of C
  bool determined = false;    // reported as skyline or pruned
};

// Network distances of every object to every query point, one contiguous
// row of n per object; kInfDist until visited.
class DistanceTable {
 public:
  DistanceTable(std::size_t m, std::size_t n) : n_(n), dist_(m * n, kInfDist) {}
  std::span<Dist> row(ObjectId id) { return {dist_.data() + id * n_, n_}; }

 private:
  std::size_t n_;
  std::vector<Dist> dist_;
};

// Whether skyline point `s` (a complete distance vector) provably
// dominates a candidate whose partially known distances are `c`. For an
// unknown dimension i, dN(qi, c) >= s[i] holds because query point qi's
// stream emits in ascending order and it has already emitted s. Returns
// true only when strict dominance is certain.
bool ProvablyDominates(std::span<const Dist> s, std::span<const Dist> c) {
  bool strict = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (std::isfinite(c[i])) {
      if (s[i] > c[i]) return false;
      if (s[i] < c[i]) strict = true;
    }
    // Unknown dimension: s[i] <= dN(qi, c), never contradicts, never
    // certainly strict.
  }
  return strict;
}

// Generalized CE for datasets with static attributes. The two-phase
// paper formulation is wrong there: its filtering phase stops at the first
// object visited by all query points and discards everything unvisited as
// dominated — but with attribute dimensions an unvisited (farther) object
// can still win on attributes. This variant keeps the collaborative
// round-robin expansion and instead prunes each object individually, using
// the streams' emission radii as distance lower bounds plus the statically
// known attributes.
SkylineResult RunCeGeneralized(const Dataset& dataset,
                               const SkylineQuerySpec& spec,
                               const ProgressiveCallback& on_skyline) {
  obs::TraceSession* const trace = spec.trace;
  StatsScope scope(dataset, trace, "ce");
  SkylineResult result;
  QueryGuard guard(dataset, spec.limits);
  const std::size_t n = spec.sources.size();
  const std::size_t m = dataset.object_count();

  QueryCache::View cache(dataset.cache, spec.sources,
                         dataset.graph_pager->data_epoch());
  EdgeObjectMemo memo(dataset.mapping);
  std::vector<QueryCache::WavefrontPtr> resumes;
  std::vector<std::unique_ptr<NetworkNnStream>> streams =
      OpenStreams(dataset, spec, &cache, &memo, &resumes);
  // Radius each resumed wavefront had already reached: emissions at or
  // inside it were answered by the cached snapshot, not fresh expansion
  // (plan cache-tier attribution; only consulted when a plan is taken).
  std::vector<Dist> resume_radius(n, -1.0);
  if (spec.plan != nullptr) {
    for (std::size_t q = 0; q < n; ++q) {
      if (resumes[q] != nullptr) {
        resume_radius[q] = CheckpointRadius(resumes[q]->search);
      }
    }
  }
  std::vector<bool> exhausted(n, false);
  // Emission radius per stream: a lower bound on every unvisited object's
  // distance to that query point.
  std::vector<Dist> radius(n, 0.0);

  std::vector<ObjectState> state(m);
  DistanceTable dist(m, n);
  std::vector<bool> visited_once(m, false);
  std::size_t undetermined = m;

  // Reported vectors in report order: row i is result.skyline[i].vector.
  VectorRows skyline_rows(n + dataset.static_dims());

  auto full_vector = [&](ObjectId id) {
    const std::span<const Dist> known = dist.row(id);
    DistVector vec(known.begin(), known.end());
    const DistVector attrs = dataset.StaticAttributesOf(id);
    vec.insert(vec.end(), attrs.begin(), attrs.end());
    return vec;
  };

  // Whether skyline vector `s` provably dominates object `id` given the
  // known distances, the per-stream radii, and the static attributes.
  auto provably_dominated = [&](std::span<const Dist> s, ObjectId id) {
    const std::span<const Dist> known = dist.row(id);
    const DistVector attrs = dataset.StaticAttributesOf(id);
    bool strict = false;
    for (std::size_t q = 0; q < n; ++q) {
      const Dist bound = std::isfinite(known[q]) ? known[q] : radius[q];
      if (s[q] > bound) return false;
      if (s[q] < bound) strict = true;
    }
    for (std::size_t j = 0; j < attrs.size(); ++j) {
      if (s[n + j] > attrs[j]) return false;
      if (s[n + j] < attrs[j]) strict = true;
    }
    return strict;
  };

  auto prune_scan = [&]() {
    obs::Span span(trace, "ce.prune");
    for (ObjectId id = 0; id < m; ++id) {
      if (state[id].determined) continue;
      for (std::size_t si = 0; si < skyline_rows.size(); ++si) {
        if (provably_dominated(skyline_rows.row(si), id)) {
          state[id].determined = true;
          --undetermined;
          // Pruned on radius lower bounds before its vector was complete.
          CountBoundPruned();
          break;
        }
      }
    }
  };

  std::size_t turn = 0;
  std::size_t exhausted_count = 0;
  obs::Span expand_span(trace, "ce.expand");
  while (exhausted_count < n && undetermined > 0) {
    if (guard.Exceeded()) {
      // Progressive cut-off: everything already in result.skyline was
      // confirmed at emission, so the prefix stands.
      result.truncated = true;
      result.truncation_reason = guard.reason();
      break;
    }
    const std::size_t qi = turn % n;
    ++turn;
    if (exhausted[qi]) continue;
    const auto visit = streams[qi]->Next();
    if (!visit.has_value()) {
      exhausted[qi] = true;
      ++exhausted_count;
      continue;
    }
    radius[qi] = visit->distance;
    if (spec.plan != nullptr) {
      if (visit->distance <= resume_radius[qi]) {
        spec.plan->RecordWavefrontExact();
      } else {
        spec.plan->RecordComputed();
      }
    }
    // Emissions are exact network distances — harvest into the memo for
    // the point-to-point paths EDC/LBC would otherwise recompute.
    cache.StoreDistance(qi, visit->object, visit->distance);
    ObjectState& obj = state[visit->object];
    if (!visited_once[visit->object]) {
      visited_once[visit->object] = true;
      ++result.stats.candidate_count;
    }
    if (obj.determined) continue;
    dist.row(visit->object)[qi] = visit->distance;
    ++obj.visit_count;
    if (obj.visit_count == n) {
      obj.determined = true;
      --undetermined;
      // All n distances were resolved exactly: fully examined.
      CountBoundExamined();
      const DistVector vec = full_vector(visit->object);
      if (FirstDominator(skyline_rows, vec, 0.0) == skyline_rows.size()) {
        scope.MarkInitial();
        SkylineEntry entry;
        entry.object = visit->object;
        entry.vector = vec;
        if (on_skyline) on_skyline(entry);
        result.skyline.push_back(entry);
        skyline_rows.Append(vec);
        prune_scan();
      }
    } else if ((turn & 63u) == 0) {
      // Radii grew; give unfinished objects a chance to be pruned so the
      // expansion can stop before full exhaustion.
      prune_scan();
    }
  }

  expand_span.Close();

  // Tie safety, as in the base variant.
  obs::Span finalize_span(trace, "ce.finalize");
  result.skyline = RemoveTieDominated(std::move(result.skyline), skyline_rows);
  finalize_span.Close();

  result.stats.skyline_size = result.skyline.size();
  // QueryStats counts only this run's settles (a stream resumed from a
  // cached wavefront inherits the snapshot's settled set without bumping
  // the counter); the plan's per-source view reports the total extent.
  if (spec.plan != nullptr) {
    for (std::size_t q = 0; q < n; ++q) {
      spec.plan->RecordSource(q, streams[q]->settled_count(), radius[q],
                              resumes[q] != nullptr);
    }
  }
  StoreStreams(streams, resumes, &cache);
  scope.Finish(&result.stats);
  return result;
}

// The paper's two-phase (filtering + refinement) CE for purely
// distance-dimension queries.
SkylineResult RunCeFiltering(const Dataset& dataset,
                             const SkylineQuerySpec& spec,
                             const ProgressiveCallback& on_skyline) {
  obs::TraceSession* const trace = spec.trace;
  StatsScope scope(dataset, trace, "ce");
  SkylineResult result;
  QueryGuard guard(dataset, spec.limits);

  const std::size_t n = spec.sources.size();
  const std::size_t m = dataset.object_count();

  QueryCache::View cache(dataset.cache, spec.sources,
                         dataset.graph_pager->data_epoch());
  EdgeObjectMemo memo(dataset.mapping);
  std::vector<QueryCache::WavefrontPtr> resumes;
  std::vector<std::unique_ptr<NetworkNnStream>> streams =
      OpenStreams(dataset, spec, &cache, &memo, &resumes);
  // See RunCeGeneralized: cached-wavefront radius per resumed stream for
  // plan cache-tier attribution.
  std::vector<Dist> resume_radius(n, -1.0);
  if (spec.plan != nullptr) {
    for (std::size_t q = 0; q < n; ++q) {
      if (resumes[q] != nullptr) {
        resume_radius[q] = CheckpointRadius(resumes[q]->search);
      }
    }
  }
  std::vector<bool> exhausted(n, false);

  std::vector<ObjectState> state(m);
  DistanceTable dist(m, n);

  // Reported vectors in report order: row i is result.skyline[i].vector.
  // This path runs only without static attributes, so a complete distance
  // row is the whole comparison vector.
  VectorRows skyline_rows(n);
  // Ids of candidates that may still be undetermined, in admission order.
  // Each prune pass compacts away the determined ones, so its cost follows
  // the open candidates rather than the object count.
  std::vector<ObjectId> open;
  std::size_t candidates_open = 0;
  bool filtering = true;
  // Distance vector of the first skyline point (the object that ended the
  // filtering phase). Every object first encountered afterwards is
  // component-wise >= it, so such an object can only be skyline by tying
  // it exactly — the one tie case the paper's "simply discarded" rule
  // would lose.
  DistVector first_skyline_vec;

  // Handles an object whose distance vector just became complete: reports
  // it if undominated and prunes candidates it provably dominates.
  auto determine = [&](ObjectId id) {
    ObjectState& obj = state[id];
    MSQ_CHECK(obj.candidate && !obj.determined);
    obj.determined = true;
    --candidates_open;
    // Determination means every distance was resolved: fully examined.
    CountBoundExamined();
    const std::span<const Dist> vec = dist.row(id);
    if (FirstDominator(skyline_rows, vec, 0.0) < skyline_rows.size()) {
      return;  // dominated: silently pruned
    }
    scope.MarkInitial();
    SkylineEntry entry;
    entry.object = id;
    entry.vector.assign(vec.begin(), vec.end());
    if (on_skyline) on_skyline(entry);
    result.skyline.push_back(entry);
    skyline_rows.Append(vec);

    // Prune candidates that the new skyline point provably dominates.
    std::size_t kept = 0;
    for (const ObjectId c : open) {
      ObjectState& cand = state[c];
      if (cand.determined) continue;
      if (ProvablyDominates(vec, dist.row(c))) {
        cand.determined = true;
        --candidates_open;
        // Pruned on partial distances + emission-order lower bounds.
        CountBoundPruned();
        continue;
      }
      open[kept++] = c;
    }
    open.resize(kept);
  };

  auto admit = [&](ObjectId id) {
    state[id].candidate = true;
    open.push_back(id);
    ++candidates_open;
  };

  // Round-robin expansion over the query points. The filtering phase span
  // flips to refinement when the first complete object ends it.
  std::size_t turn = 0;
  std::size_t exhausted_count = 0;
  std::vector<Dist> last_emit(n, -1.0);
  obs::Span phase_span(trace, "ce.filter");
  while (exhausted_count < n) {
    if (guard.Exceeded()) {
      // Progressive cut-off: emitted entries were confirmed, keep them.
      result.truncated = true;
      result.truncation_reason = guard.reason();
      break;
    }
    const std::size_t qi = turn % n;
    ++turn;
    if (exhausted[qi]) continue;

    const auto visit = streams[qi]->Next();
    if (!visit.has_value()) {
      exhausted[qi] = true;
      ++exhausted_count;
      continue;
    }
    last_emit[qi] = visit->distance;
    if (spec.plan != nullptr) {
      if (visit->distance <= resume_radius[qi]) {
        spec.plan->RecordWavefrontExact();
      } else {
        spec.plan->RecordComputed();
      }
    }
    // Exact emission distance — harvest into the cross-query memo.
    cache.StoreDistance(qi, visit->object, visit->distance);

    ObjectState& obj = state[visit->object];
    if (filtering) {
      // Every object encountered during filtering becomes a candidate.
      if (!obj.candidate) {
        admit(visit->object);
        ++result.stats.candidate_count;
      }
    } else if (!obj.candidate) {
      // Refinement phase: a new object is component-wise >= the first
      // skyline point, so unless this visit ties that point's distance it
      // is strictly dominated and discarded (the paper's rule); exact ties
      // stay live so co-located duplicates are not lost.
      if (visit->distance != first_skyline_vec[qi]) {
        if (!obj.determined) {
          // First discard of this object: pruned on the emission-order
          // lower bound without ever becoming a candidate.
          obj.determined = true;
          CountBoundPruned();
        }
        continue;
      }
      // Already discarded through another stream: the strict-dominance
      // proof stands, an exact tie elsewhere cannot undo it.
      if (obj.determined) continue;
      admit(visit->object);
    } else if (obj.determined) {
      continue;
    }

    const std::span<Dist> known = dist.row(visit->object);
    known[qi] = visit->distance;
    ++obj.visit_count;
    if (obj.visit_count == n) {
      if (filtering) {
        filtering = false;
        first_skyline_vec.assign(known.begin(), known.end());
        phase_span.Close();
        phase_span = obs::Span(trace, "ce.refine");
      }
      determine(visit->object);
    }

    if (!filtering && candidates_open == 0) {
      // All candidates determined. Keep polling only while a stream could
      // still emit an exact tie of the first skyline point (a co-located
      // duplicate encountered after the filtering phase); once every
      // stream has moved strictly past that distance, nothing new can be
      // skyline.
      bool tie_possible = false;
      for (std::size_t q = 0; q < n; ++q) {
        if (!exhausted[q] && last_emit[q] <= first_skyline_vec[q]) {
          tie_possible = true;
          break;
        }
      }
      if (!tie_possible) break;
    }
  }

  // Streams exhausted with candidates still open: their vectors contain a
  // kInfDist component (unreachable from some query point), which the
  // library's skyline semantics exclude.

  phase_span.Close();

  // Tie safety: when two objects tie in some distance dimension, stream
  // emission order between them is arbitrary and a dominated object can
  // complete before its dominator. A final pairwise pass removes such
  // entries (a no-op in the generic, tie-free case).
  {
    obs::Span finalize_span(trace, "ce.finalize");
    result.skyline =
        RemoveTieDominated(std::move(result.skyline), skyline_rows);
  }
  result.stats.skyline_size = result.skyline.size();
  // As in the generalized path: stats count only this run's settles, the
  // plan's per-source view reports the full wavefront extent.
  if (spec.plan != nullptr) {
    for (std::size_t q = 0; q < n; ++q) {
      spec.plan->RecordSource(q, streams[q]->settled_count(),
                              std::max(last_emit[q], 0.0),
                              resumes[q] != nullptr);
    }
  }
  StoreStreams(streams, resumes, &cache);
  scope.Finish(&result.stats);
  return result;
}

}  // namespace

SkylineResult RunCe(const Dataset& dataset, const SkylineQuerySpec& spec,
                    const ProgressiveCallback& on_skyline) {
  return RunQueryBody(dataset, spec, [&] {
    if (dataset.static_dims() > 0) {
      return RunCeGeneralized(dataset, spec, on_skyline);
    }
    return RunCeFiltering(dataset, spec, on_skyline);
  });
}

}  // namespace msq
