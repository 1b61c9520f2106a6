// EDC — Euclidean Distance Constraint (paper Section 4.2).
//
// Exploits space duality: (1) compute the multi-source skyline in Euclidean
// space with an R-tree browser; (2) compute those points' network distances
// with A* (directional expansion, intermediate labels kept for reuse);
// (3) "shift" each Euclidean skyline point to its network-distance position
// and fetch, with an R-tree window query, every object inside the union of
// the origin-anchored hypercubes — only those can dominate the shifted
// points; (4) compute network distances for all fetched candidates, reusing
// the step-2 labels; (5) pairwise-compare candidates on their network
// vectors and report the skyline.
//
// Both the batch form (steps 1-5) and the paper's incremental variant
// (Euclidean skyline points consumed one at a time, network skyline points
// reported as soon as determined) are provided; RunEdc dispatches on
// EdcOptions::incremental.
#ifndef MSQ_CORE_EDC_H_
#define MSQ_CORE_EDC_H_

#include "core/query.h"

namespace msq {

struct EdcOptions {
  // Use the incremental variant (progressive reporting). The batch variant
  // reports everything after step 5, matching the paper's observation that
  // batch EDC has a poor initial response time.
  bool incremental = false;
  // Run exactly the published algorithm. The paper's candidate region —
  // the union of origin-anchored hypercubes of the *shifted Euclidean
  // skyline points* — provably captures every object that can DOMINATE a
  // shifted point, but not network skyline points that are merely
  // INCOMPARABLE to all of them. On high-detour (large δ) networks the
  // published EDC can therefore miss skyline points and report candidates
  // dominated only by unfetched objects (see DESIGN.md §5 and
  // tests/core/edc_test.cc: KnownLimitation*). With this flag false
  // (default) a single completion pass fetches every object whose
  // optimistic Euclidean vector is undominated by the skyline of the
  // candidates so far, which restores exactness while preserving the
  // algorithm's structure (one pass suffices: DESIGN.md §4b). Benchmarks
  // set it true to measure the published algorithm.
  bool paper_faithful = false;
};

SkylineResult RunEdc(const Dataset& dataset, const SkylineQuerySpec& spec,
                     const EdcOptions& options = {},
                     const ProgressiveCallback& on_skyline = nullptr);

}  // namespace msq

#endif  // MSQ_CORE_EDC_H_
