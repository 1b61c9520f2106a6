#include "core/skyband.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/lbc.h"
#include "core/naive.h"

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

  // Every candidate's full vector, in ascending source-distance
  // resolution order. Dominators of a candidate resolve before it (ties
  // repaired by the final recount), so counting within this set is exact
  // whenever the count stays below k (see skyband.h).
  VectorRows resolved(n + dataset.static_dims());

  // Region prune: a subtree may be skipped only when k resolved vectors
  // jointly dominate its optimistic vector. The optimistic vector is
  // computed through a different FP path than the resolved vectors, so
  // strictness uses the tie margin (dominance.h).
  LbcDiscovery discovery(
      dataset, spec, /*alternate_sources=*/false, kInfDist,
      [&resolved, k](std::span<const Dist> optimistic) {
        return resolved.size() >= k &&
               CountDominators(resolved, optimistic, kFpTieMargin, k) >= k;
      });

  std::vector<SkybandResult::Entry> provisional;
  for (;;) {
    const LbcDiscovery::Candidate cand = discovery.Next(0);
    if (cand.object == kInvalidObject) break;
    const Location& loc = dataset.mapping->ObjectLocation(cand.object);

    DistVector vec(n, 0.0);
    bool reachable = true;
    for (std::size_t i = 0; i < n && reachable; ++i) {
      vec[i] = i == cand.source ? cand.source_dist
                                : discovery.Distance(i, cand.object, loc);
      reachable = std::isfinite(vec[i]);
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

  result.stats.candidate_count = discovery.candidate_count();
  result.stats.skyline_size = result.entries.size();
  scope.Finish(&result.stats);
  return result;
}

}  // namespace msq
