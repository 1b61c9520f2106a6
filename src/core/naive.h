// Brute-force baseline/oracle: full network distance computation from every
// query point to every object, then an in-memory skyline pass. Exact by
// construction; the property tests compare CE/EDC/LBC against it, and the
// ablation benchmarks use it as the unoptimized reference.
#ifndef MSQ_CORE_NAIVE_H_
#define MSQ_CORE_NAIVE_H_

#include "core/query.h"

namespace msq {

// Runs the naive algorithm. `on_skyline` (optional) fires per reported
// point — for the naive algorithm everything is reported at the end, so its
// initial response time equals its total time, as the paper observes for
// batch algorithms.
SkylineResult RunNaive(const Dataset& dataset, const SkylineQuerySpec& spec,
                       const ProgressiveCallback& on_skyline = nullptr);

// Exposed for tests: the full |Q| x |D| network distance matrix, one
// DistVector (query-point distances only, no static attributes) per
// object. When `guard` is non-null the sweeps stop early once the guard
// trips; `*truncated` (when non-null) reports whether that happened — a
// truncated matrix is incomplete and must not feed a skyline pass.
std::vector<DistVector> ComputeAllNetworkVectors(
    const Dataset& dataset, const SkylineQuerySpec& spec,
    QueryGuard* guard = nullptr, bool* truncated = nullptr);

}  // namespace msq

#endif  // MSQ_CORE_NAIVE_H_
