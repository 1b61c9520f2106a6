// LBC — Lower Bound Constraint (paper Section 4.3), the instance-optimal
// algorithm (Theorem 1).
//
// A single source query point q drives discovery: objects are fetched as
// incremental Euclidean NNs of q, skipping R-tree subtrees dominated by the
// known skyline set S (step 1.1); a fetched object's exact network distance
// to q is computed with A* and buffered in a candidate heap until its
// network distance provably precedes everything not yet fetched
// (step 1.2). Each network NN p is then screened against S using only
// *path distance lower bounds* to the non-source query points: starting
// from the Euclidean distances, the bound with the smallest value is
// advanced one A* expansion at a time, and p is discarded the moment some
// s in S is provably at least as good in every dimension (step 2). Only
// candidates that survive to full distance vectors are reported — so the
// network access spent on a dominated candidate is just enough to prove it
// dominated, which is what makes LBC instance optimal.
#ifndef MSQ_CORE_LBC_H_
#define MSQ_CORE_LBC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/dominance.h"
#include "core/query.h"

namespace msq {

struct LbcOptions {
  // Disables the path-distance-lower-bound early termination: dominated
  // candidates then pay full network distance computations to every query
  // point, as EDC does. Exists for the ablation benchmark that isolates the
  // plb contribution (Section 5 / Figure 5 discussion).
  bool use_plb = true;
  // Rotate the discovery source among all query points instead of using
  // only SkylineQuerySpec::lbc_source_index — the paper's §4.3 extension
  // ("selecting network nearest neighbor points from multiple query points
  // alternatively"), which spreads early reported skyline points around
  // every query point instead of clustering them near one.
  bool alternate_sources = false;
};

// Step 2's dominance screen of one candidate p against the reported
// skyline S (DESIGN.md §19, "LBC's screen"). Some s in S dominates p when
//   s[n + j] <= attrs[j] for every attribute j,
//   s[i] <= reach[i] for every distance dimension i, and
//   s[n + j] < attrs[j] for some j, or s[i] < reach[i] for some i that is
//   strict.
// reach[i] is the largest bound dimension i was screened at, so
// satisfaction is sticky: a probe completion can land an ulp below a
// Euclidean bound, and it does not un-satisfy a row. Only exact dimensions
// are strict, those exact at Start or made exact by a Step that grew their
// bound (reach[i] is then the exact distance): a plb computed through a
// different floating-point path (Euclidean sqrt vs network offset sums)
// can exceed a mathematically equal distance by an ulp and fabricate a
// strict dimension against an exact duplicate. A completion that does not
// grow the bound adds no strictness. (The "<=" side errs toward keeping
// candidates alive longer, never toward dropping them.)
//
// Only rows that can have changed are tested, on S's sorted columns
// (VectorRows::Column): at Start the shortest column prefix that can hold a
// dominator, and at a Step that grows dimension i the rows its new reach
// covers, plus, if i turned strict, the rows satisfied everywhere but
// strict nowhere. Dominance tests here are not counted.
class LbcScreen {
 public:
  // `skyline` holds n distance dimensions then attrs.size() attributes;
  // it and `attrs` must outlive the screen, and `skyline` must not change.
  LbcScreen(const VectorRows& skyline, std::size_t n,
            std::span<const Dist> attrs);

  // Screens p at its initial bounds. Returns whether S dominates p.
  bool Start(std::span<const Dist> bound, const std::vector<bool>& exact);
  // Re-screens after a probe step left dimension `dim` at `bound`, exact
  // or not. Returns whether S dominates p.
  bool Step(std::size_t dim, Dist bound, bool exact);

 private:
  enum class Row { kOpen, kTied, kDominates };
  Row Test(std::uint32_t r) const;
  // Test, remembering a tied row.
  bool Dominates(std::uint32_t r);

  const VectorRows& skyline_;
  const std::size_t n_;
  const std::span<const Dist> attrs_;
  DistVector reach_;
  std::vector<bool> strict_;
  // cursor_[i]: rows with s[i] <= reach_[i] (a prefix of column i).
  std::vector<std::size_t> cursor_;
  // Rows satisfied everywhere but strict nowhere.
  std::vector<std::uint32_t> tied_;
};

SkylineResult RunLbc(const Dataset& dataset, const SkylineQuerySpec& spec,
                     const LbcOptions& options = {},
                     const ProgressiveCallback& on_skyline = nullptr);

}  // namespace msq

#endif  // MSQ_CORE_LBC_H_
