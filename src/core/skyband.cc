#include "core/skyband.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "common/check.h"
#include "core/naive.h"
#include "graph/astar.h"
#include "index/rtree.h"

namespace msq {

std::vector<std::pair<std::size_t, std::size_t>> SkybandIndices(
    const std::vector<DistVector>& vectors, std::size_t k) {
  MSQ_CHECK(k >= 1);
  std::vector<std::pair<std::size_t, std::size_t>> band;
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    if (!AllFinite(vectors[i])) continue;
    std::size_t count = 0;
    for (std::size_t j = 0; j < vectors.size() && count < k; ++j) {
      if (j != i && AllFinite(vectors[j]) &&
          Dominates(vectors[j], vectors[i])) {
        ++count;
      }
    }
    if (count < k) band.emplace_back(i, count);
  }
  return band;
}

SkybandResult RunSkybandNaive(const Dataset& dataset,
                              const SkylineQuerySpec& spec, std::size_t k) {
  // Extension algorithms keep the abort-on-invalid contract; only the
  // paper's main entry points degrade gracefully.
  MSQ_CHECK(ValidateQuery(dataset, spec).ok());
  MSQ_CHECK(k >= 1);
  StatsScope scope(dataset, spec.trace, "skyband.naive");
  SkybandResult result;

  std::vector<DistVector> vectors = ComputeAllNetworkVectors(dataset, spec);
  if (dataset.static_dims() > 0) {
    for (ObjectId id = 0; id < vectors.size(); ++id) {
      const DistVector attrs = dataset.StaticAttributesOf(id);
      vectors[id].insert(vectors[id].end(), attrs.begin(), attrs.end());
    }
  }

  for (const auto& [idx, count] : SkybandIndices(vectors, k)) {
    SkybandResult::Entry entry;
    entry.object = static_cast<ObjectId>(idx);
    entry.vector = vectors[idx];
    entry.dominator_count = count;
    result.entries.push_back(std::move(entry));
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const SkybandResult::Entry& a, const SkybandResult::Entry& b) {
              if (a.dominator_count != b.dominator_count) {
                return a.dominator_count < b.dominator_count;
              }
              return a.object < b.object;
            });
  result.stats.candidate_count = dataset.object_count();
  result.stats.skyline_size = result.entries.size();
  scope.Finish(&result.stats);
  return result;
}

SkybandResult RunSkybandLbc(const Dataset& dataset,
                            const SkylineQuerySpec& spec, std::size_t k) {
  // Extension algorithms keep the abort-on-invalid contract; only the
  // paper's main entry points degrade gracefully.
  MSQ_CHECK(ValidateQuery(dataset, spec).ok());
  MSQ_CHECK(k >= 1);
  StatsScope scope(dataset, spec.trace, "skyband.lbc");
  SkybandResult result;

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

  // Every candidate's full vector, in ascending source-distance
  // resolution order. Dominators of a candidate resolve before it (ties
  // repaired by the final recount), so counting within this set is exact
  // whenever the count stays below k (see skyband.h).
  VectorRows resolved(n + attr_dims);

  // Region prune: a subtree may be skipped only when k resolved vectors
  // jointly dominate its optimistic vector. The optimistic vector is
  // computed through a different FP path than the resolved vectors, so
  // strictness uses the tie margin (dominance.h).
  DistVector lb(n + attr_dims);  // scratch, rebuilt per entry
  auto prune = [&](const RTreeEntry& entry, bool is_leaf) {
    if (resolved.size() < k) return false;
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
    return CountDominators(resolved, lb, kFpTieMargin, k) >= k;
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
      if (std::isfinite(d_net)) {
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

  std::vector<SkybandResult::Entry> provisional;
  for (;;) {
    const SourceCandidate cand = next_network_nn();
    if (cand.object == kInvalidObject) break;
    const Location& loc = dataset.mapping->ObjectLocation(cand.object);

    DistVector vec(n, 0.0);
    vec[src] = cand.source_dist;
    bool reachable = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == src) continue;
      vec[i] = search_for(i).DistanceTo(loc);
      if (!std::isfinite(vec[i])) {
        reachable = false;
        break;
      }
    }
    if (!reachable) continue;
    const DistVector attrs = dataset.StaticAttributesOf(cand.object);
    vec.insert(vec.end(), attrs.begin(), attrs.end());

    SkybandResult::Entry entry;
    entry.object = cand.object;
    entry.vector = vec;
    provisional.push_back(std::move(entry));
    resolved.Append(vec);
  }

  // Exact counts against the full resolved set (repairs tie ordering).
  for (SkybandResult::Entry& entry : provisional) {
    const std::size_t count =
        CountDominators(resolved, entry.vector, 0.0, resolved.size());
    entry.dominator_count = count;
    if (count < k) result.entries.push_back(std::move(entry));
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const SkybandResult::Entry& a, const SkybandResult::Entry& b) {
              if (a.dominator_count != b.dominator_count) {
                return a.dominator_count < b.dominator_count;
              }
              return a.object < b.object;
            });

  result.stats.skyline_size = result.entries.size();
  scope.Finish(&result.stats);
  return result;
}

}  // namespace msq
