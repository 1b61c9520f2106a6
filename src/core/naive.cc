#include "core/naive.h"

#include "graph/nn_stream.h"

namespace msq {

std::vector<DistVector> ComputeAllNetworkVectors(
    const Dataset& dataset, const SkylineQuerySpec& spec, QueryGuard* guard,
    bool* truncated) {
  const std::size_t n = spec.sources.size();
  const std::size_t m = dataset.object_count();
  std::vector<DistVector> vectors(m, DistVector(n, kInfDist));
  bool cut = false;
  for (std::size_t qi = 0; qi < n && !cut; ++qi) {
    // Drain a full NN stream: one Dijkstra sweep per query point reaches
    // every reachable object with its exact distance.
    NetworkNnStream stream(dataset.graph_pager, dataset.mapping,
                           spec.sources[qi]);
    Dist radius = 0.0;
    std::uint64_t emissions = 0;
    while (const auto visit = stream.Next()) {
      vectors[visit->object][qi] = visit->distance;
      radius = visit->distance;
      ++emissions;
      if (guard != nullptr && guard->Exceeded()) {
        cut = true;
        break;
      }
    }
    if (spec.plan != nullptr) {
      // Naive computes every distance from scratch — all lookups land in
      // the "computed" tier and no bound ever prunes.
      spec.plan->RecordComputed(emissions);
      spec.plan->RecordSource(qi, stream.settled_count(), radius, false);
    }
  }
  if (truncated != nullptr) *truncated = cut;
  return vectors;
}

namespace {

SkylineResult RunNaiveBody(const Dataset& dataset,
                           const SkylineQuerySpec& spec,
                           const ProgressiveCallback& on_skyline) {
  StatsScope scope(dataset, spec.trace, "naive");
  SkylineResult result;
  QueryGuard guard(dataset, spec.limits);

  bool cut = false;
  std::vector<DistVector> vectors =
      ComputeAllNetworkVectors(dataset, spec, &guard, &cut);
  if (cut) {
    // Batch algorithm: an incomplete distance matrix cannot confirm any
    // skyline point, so a truncated run returns an empty, flagged result.
    result.truncated = true;
    result.truncation_reason = guard.reason();
    scope.Finish(&result.stats);
    return result;
  }
  // Append static attributes before the skyline pass.
  if (dataset.static_dims() > 0) {
    for (ObjectId id = 0; id < vectors.size(); ++id) {
      const DistVector attrs = dataset.StaticAttributesOf(id);
      vectors[id].insert(vectors[id].end(), attrs.begin(), attrs.end());
    }
  }

  const std::vector<std::size_t> skyline = SkylineIndices(vectors);
  // Everything was a candidate: the naive algorithm inspects all of D —
  // every object fully examined, nothing pruned by a bound.
  CountBoundExamined(dataset.object_count());
  result.stats.candidate_count = dataset.object_count();
  bool first = true;
  for (const std::size_t idx : skyline) {
    // Tombstoned objects have all-infinite network vectors, which never
    // dominate anything but can survive the skyline pass when static
    // attributes are appended — skip them explicitly.
    if (!dataset.mapping->IsLive(static_cast<ObjectId>(idx))) continue;
    SkylineEntry entry;
    entry.object = static_cast<ObjectId>(idx);
    entry.vector = vectors[idx];
    if (first) {
      scope.MarkInitial();
      first = false;
    }
    if (on_skyline) on_skyline(entry);
    result.skyline.push_back(std::move(entry));
  }
  result.stats.skyline_size = result.skyline.size();
  scope.Finish(&result.stats);
  return result;
}

}  // namespace

SkylineResult RunNaive(const Dataset& dataset, const SkylineQuerySpec& spec,
                       const ProgressiveCallback& on_skyline) {
  return RunQueryBody(dataset, spec, [&] {
    return RunNaiveBody(dataset, spec, on_skyline);
  });
}

}  // namespace msq
