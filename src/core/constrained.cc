#include "core/constrained.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "common/check.h"
#include "core/naive.h"
#include "graph/astar.h"
#include "index/rtree.h"

namespace msq {

SkylineResult RunConstrainedSkylineNaive(const Dataset& dataset,
                                         const SkylineQuerySpec& spec,
                                         Dist radius) {
  // Extension algorithms keep the abort-on-invalid contract; only the
  // paper's main entry points degrade gracefully.
  MSQ_CHECK(ValidateQuery(dataset, spec).ok());
  MSQ_CHECK(radius >= 0.0);
  StatsScope scope(dataset, spec.trace, "constrained.naive");
  SkylineResult result;

  const std::size_t n = spec.sources.size();
  std::vector<DistVector> vectors = ComputeAllNetworkVectors(dataset, spec);

  // Constraint first: collect the in-range objects.
  std::vector<ObjectId> in_range;
  std::vector<DistVector> range_vectors;
  for (ObjectId id = 0; id < vectors.size(); ++id) {
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(vectors[id][i] <= radius)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    DistVector vec = vectors[id];
    const DistVector attrs = dataset.StaticAttributesOf(id);
    vec.insert(vec.end(), attrs.begin(), attrs.end());
    in_range.push_back(id);
    range_vectors.push_back(std::move(vec));
  }

  for (const std::size_t idx : SkylineIndices(range_vectors)) {
    scope.MarkInitial();
    SkylineEntry entry;
    entry.object = in_range[idx];
    entry.vector = range_vectors[idx];
    result.skyline.push_back(std::move(entry));
  }
  result.stats.candidate_count = dataset.object_count();
  result.stats.skyline_size = result.skyline.size();
  scope.Finish(&result.stats);
  return result;
}

SkylineResult RunConstrainedSkylineLbc(const Dataset& dataset,
                                       const SkylineQuerySpec& spec,
                                       Dist radius) {
  // Extension algorithms keep the abort-on-invalid contract; only the
  // paper's main entry points degrade gracefully.
  MSQ_CHECK(ValidateQuery(dataset, spec).ok());
  MSQ_CHECK(radius >= 0.0);
  StatsScope scope(dataset, spec.trace, "constrained.lbc");
  SkylineResult result;

  const std::size_t n = spec.sources.size();
  const std::size_t src = spec.lbc_source_index;
  const std::size_t attr_dims = dataset.static_dims();
  const DistVector min_attrs = dataset.MinStaticAttributes();

  std::vector<Point> query_points;
  query_points.reserve(n);
  for (const Location& source : spec.sources) {
    query_points.push_back(dataset.network->LocationPosition(source));
  }
  std::vector<std::unique_ptr<AStarSearch>> searches(n);
  auto search_for = [&](std::size_t qi) -> AStarSearch& {
    if (searches[qi] == nullptr) {
      searches[qi] = std::make_unique<AStarSearch>(
          dataset.graph_pager, spec.sources[qi], dataset.landmarks);
    }
    return *searches[qi];
  };

  // Reported vectors in report order: row i is result.skyline[i].vector.
  VectorRows skyline_rows(n + attr_dims);

  // Prune a subtree when it is dominated by a reported point or provably
  // out of range: the Euclidean distance to any query point already
  // exceeding the radius implies the network distance does too.
  DistVector lb(n + attr_dims);  // scratch, rebuilt per entry
  auto prune = [&](const RTreeEntry& entry, bool is_leaf) {
    for (std::size_t i = 0; i < n; ++i) {
      lb[i] = entry.mbr.MinDist(query_points[i]);
      if (lb[i] > radius) return true;  // whole subtree violates
    }
    if (skyline_rows.empty()) return false;
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
  RTreeNnBrowser browser(dataset.object_rtree, query_points[src], prune);

  struct SourceCandidate {
    Dist source_dist;
    ObjectId object;
    bool operator>(const SourceCandidate& other) const {
      return source_dist > other.source_dist;
    }
  };
  std::priority_queue<SourceCandidate, std::vector<SourceCandidate>,
                      std::greater<>>
      source_heap;
  bool browser_exhausted = false;

  auto next_network_nn = [&]() -> SourceCandidate {
    while (!browser_exhausted) {
      if (!source_heap.empty() &&
          source_heap.top().source_dist <= browser.PeekLowerBound()) {
        const SourceCandidate top = source_heap.top();
        source_heap.pop();
        return top;
      }
      const auto item = browser.Next();
      if (!item.found) {
        browser_exhausted = true;
        break;
      }
      ++result.stats.candidate_count;
      const Dist d_net = search_for(src).DistanceTo(
          dataset.mapping->ObjectLocation(item.id));
      // The source-dimension constraint applies immediately.
      if (std::isfinite(d_net) && d_net <= radius) {
        source_heap.push(SourceCandidate{d_net, item.id});
      }
    }
    if (!source_heap.empty()) {
      const SourceCandidate top = source_heap.top();
      source_heap.pop();
      return top;
    }
    return SourceCandidate{kInfDist, kInvalidObject};
  };

  // Screening: advance the minimum plb; a candidate dies when any bound
  // (a lower bound on the true distance) exceeds the radius, or when a
  // reported point provably dominates it.
  auto screen = [&](const SourceCandidate& cand) -> DistVector {
    const Location& loc = dataset.mapping->ObjectLocation(cand.object);
    const DistVector attrs = dataset.StaticAttributesOf(cand.object);
    const Point p_pos = dataset.mapping->ObjectPosition(cand.object);

    DistVector bound(n, 0.0);
    std::vector<bool> exact(n, false);
    bound[src] = cand.source_dist;
    exact[src] = true;
    std::vector<std::unique_ptr<AStarSearch::Probe>> probes(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == src) continue;
      bound[i] = EuclideanDistance(query_points[i], p_pos);
      if (dataset.landmarks != nullptr) {
        bound[i] = std::max(
            bound[i], dataset.landmarks->LowerBound(spec.sources[i], loc));
      }
    }

    for (;;) {
      for (std::size_t i = 0; i < n; ++i) {
        if (bound[i] > radius) return {};  // constraint violated
      }
      bool dominated = false;
      for (std::size_t si = 0; si < skyline_rows.size(); ++si) {
        const std::span<const Dist> s = skyline_rows.row(si);
        bool leq = true;
        bool strict = false;
        for (std::size_t i = 0; i < n; ++i) {
          if (s[i] > bound[i]) {
            leq = false;
            break;
          }
          // Strictness only from exact dimensions (see lbc.cc: lower
          // bounds computed via a different FP path can exceed equal
          // network distances by an ulp).
          if (exact[i] && s[i] < bound[i]) strict = true;
        }
        if (leq) {
          for (std::size_t j = 0; j < attrs.size(); ++j) {
            if (s[n + j] > attrs[j]) {
              leq = false;
              break;
            }
            if (s[n + j] < attrs[j]) strict = true;
          }
        }
        if (leq && strict) {
          dominated = true;
          break;
        }
      }
      if (dominated) return {};

      std::size_t best_dim = n;
      Dist best_bound = kInfDist;
      for (std::size_t i = 0; i < n; ++i) {
        if (!exact[i] && bound[i] < best_bound) {
          best_bound = bound[i];
          best_dim = i;
        }
      }
      if (best_dim == n) break;

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
        if (!std::isfinite(bound[best_dim])) return {};
      }
    }

    DistVector vec = bound;
    vec.insert(vec.end(), attrs.begin(), attrs.end());
    return vec;
  };

  for (;;) {
    const SourceCandidate cand = next_network_nn();
    if (cand.object == kInvalidObject) break;
    DistVector vec = screen(cand);
    if (vec.empty()) continue;
    scope.MarkInitial();
    SkylineEntry entry;
    entry.object = cand.object;
    entry.vector = vec;
    result.skyline.push_back(entry);
    skyline_rows.Append(vec);
  }

  // Tie safety, as in RunLbc.
  result.skyline = RemoveTieDominated(std::move(result.skyline), skyline_rows);

  result.stats.skyline_size = result.skyline.size();
  scope.Finish(&result.stats);
  return result;
}

}  // namespace msq
