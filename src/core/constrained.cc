#include "core/constrained.h"

#include "common/check.h"
#include "core/lbc.h"
#include "core/naive.h"

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
  return RunQueryBody(dataset, spec, [&] {
    return RunLbcBody(dataset, spec, LbcOptions{}, radius, nullptr,
                      "constrained.lbc");
  });
}

}  // namespace msq
