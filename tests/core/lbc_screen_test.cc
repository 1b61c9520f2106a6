// LBC's step-2 screen: the column-driven LbcScreen against the
// per-candidate dominator bookkeeping it replaced, and LBC's progressive
// emissions against its final skyline.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/lbc.h"
#include "gen/workloads.h"

namespace msq {
namespace {

// The screen as LBC ran it before the sorted columns: every s in S that is
// no worse on every attribute keeps a mask of the distance dimensions with
// s[i] <= bound[i] and a strict flag, all rebuilt per candidate, and a
// grown dimension re-checks every kept s.
class ReferenceScreen {
 public:
  ReferenceScreen(const std::vector<DistVector>& skyline, std::size_t n,
                  const DistVector& attrs, const DistVector& bound,
                  const std::vector<bool>& exact)
      : n_(n), bound_(bound), exact_(exact) {
    for (const DistVector& s : skyline) {
      bool attr_ok = true;
      bool attr_strict = false;
      for (std::size_t j = 0; j < attrs.size(); ++j) {
        if (s[n + j] > attrs[j]) {
          attr_ok = false;
          break;
        }
        if (s[n + j] < attrs[j]) attr_strict = true;
      }
      if (!attr_ok) continue;
      Dominator d{&s, std::vector<bool>(n, false), 0, attr_strict};
      for (std::size_t i = 0; i < n; ++i) {
        if (s[i] <= bound_[i]) {
          d.satisfied_dims[i] = true;
          ++d.satisfied;
          if (exact_[i] && s[i] < bound_[i]) d.strict = true;
        }
      }
      dominators_.push_back(std::move(d));
    }
  }

  bool DominatedAtStart() const {
    return std::any_of(dominators_.begin(), dominators_.end(),
                       [&](const Dominator& d) { return Dominating(d); });
  }

  // One probe step on `dim`: the bound grows to max(bound, plb), and a
  // completion then sets it to `distance` exactly. Returns whether p is
  // dominated after the step.
  bool Step(std::size_t dim, Dist plb, bool done, Dist distance) {
    const Dist old_bound = bound_[dim];
    bound_[dim] = std::max(bound_[dim], plb);
    if (done) {
      bound_[dim] = distance;
      exact_[dim] = true;
    }
    if (!(bound_[dim] > old_bound)) return false;
    for (Dominator& d : dominators_) {
      const Dist s_val = (*d.vec)[dim];
      if (s_val <= bound_[dim]) {
        if (!d.satisfied_dims[dim]) {
          d.satisfied_dims[dim] = true;
          ++d.satisfied;
        }
        if (exact_[dim] && s_val < bound_[dim]) d.strict = true;
        if (Dominating(d)) return true;
      }
    }
    return false;
  }

 private:
  struct Dominator {
    const DistVector* vec;
    std::vector<bool> satisfied_dims;
    std::size_t satisfied;
    bool strict;
  };
  bool Dominating(const Dominator& d) const {
    return d.satisfied == n_ && d.strict;
  }

  std::size_t n_;
  DistVector bound_;
  std::vector<bool> exact_;
  std::vector<Dominator> dominators_;
};

// Random skylines, attributes and probe sequences on a 1/8 grid, so exact
// ties between rows and bounds are frequent. Steps include plb steps that
// do not grow the bound, completions without growth, and completions that
// land below the prior bound.
TEST(LbcScreenTest, MatchesPerCandidateDominatorBookkeeping) {
  Rng rng(41);
  auto grid = [&](std::uint64_t cells) {
    return static_cast<Dist>(rng.NextBounded(cells)) * 0.125;
  };
  int dominated_at_start = 0;
  int dominated_at_step = 0;
  int survived = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(4);
    const std::size_t attr_dims = rng.NextBounded(3);
    const std::size_t size = rng.NextBounded(30);
    std::vector<DistVector> skyline(size, DistVector(n + attr_dims));
    VectorRows rows(n + attr_dims);
    for (DistVector& s : skyline) {
      for (std::size_t i = 0; i < n; ++i) s[i] = grid(17);
      for (std::size_t j = 0; j < attr_dims; ++j) s[n + j] = grid(5);
      rows.Append(s);
    }
    DistVector attrs(attr_dims);
    for (Dist& a : attrs) a = grid(5);
    DistVector bound(n);
    std::vector<bool> exact(n);
    for (std::size_t i = 0; i < n; ++i) {
      bound[i] = grid(9);
      exact[i] = rng.NextBounded(3) == 0;
    }

    ReferenceScreen want(skyline, n, attrs, bound, exact);
    LbcScreen got(rows, n, attrs);
    const bool start = got.Start(bound, exact);
    ASSERT_EQ(start, want.DominatedAtStart()) << "trial " << trial;
    if (start) {
      ++dominated_at_start;
      continue;
    }
    bool dominated = false;
    for (int step = 0; step < 40 && !dominated; ++step) {
      std::vector<std::size_t> open;
      for (std::size_t i = 0; i < n; ++i) {
        if (!exact[i]) open.push_back(i);
      }
      if (open.empty()) break;
      const std::size_t dim = open[rng.NextBounded(open.size())];
      // plb: no growth a third of the time, else up to 3 cells.
      const bool grows = rng.NextBounded(3) != 0;
      const Dist plb = bound[dim] + (grows ? grid(4) : 0.0);
      const bool done = rng.NextBounded(4) == 0;
      // Completion: one cell below the prior bound, at it, or above it.
      const Dist shift = 0.125 * (static_cast<Dist>(rng.NextBounded(4)) - 1.0);
      const Dist distance = std::max<Dist>(0.0, bound[dim] + shift);
      const bool want_dominated = want.Step(dim, plb, done, distance);
      bound[dim] = std::max(bound[dim], plb);
      if (done) {
        bound[dim] = distance;
        exact[dim] = true;
      }
      dominated = got.Step(dim, bound[dim], exact[dim]);
      ASSERT_EQ(dominated, want_dominated)
          << "trial " << trial << " step " << step;
    }
    ++(dominated ? dominated_at_step : survived);
  }
  // The random mix reaches every outcome.
  EXPECT_GT(dominated_at_start, 100);
  EXPECT_GT(dominated_at_step, 100);
  EXPECT_GT(survived, 100);
}

TEST(LbcScreenTest, CompletionWithoutGrowthAddsNoStrictness) {
  // s = (1, 0.75) against bounds (1 exact, 0.5 plb).
  VectorRows rows(2);
  rows.Append(DistVector{1.0, 0.75});
  LbcScreen screen(rows, 2, {});
  EXPECT_FALSE(screen.Start(DistVector{1.0, 0.5}, {true, false}));
  // The plb reaches 1.0: s is satisfied everywhere, strict nowhere
  // (dimension 0 ties, dimension 1 is only a lower bound).
  EXPECT_FALSE(screen.Step(1, 1.0, false));
  // The probe completes at 1.0 without growing the bound: still no strict
  // dimension, although 0.75 < 1.0 is exact now.
  EXPECT_FALSE(screen.Step(1, 1.0, true));
}

TEST(LbcScreenTest, CompletionThatGrowsTheBoundTurnsTiedRowsStrict) {
  VectorRows rows(2);
  rows.Append(DistVector{1.0, 0.75});
  LbcScreen screen(rows, 2, {});
  EXPECT_FALSE(screen.Start(DistVector{1.0, 0.5}, {true, false}));
  EXPECT_FALSE(screen.Step(1, 1.0, false));  // tied
  EXPECT_TRUE(screen.Step(1, 1.25, true));   // 0.75 < 1.25, exact
}

TEST(LbcScreenTest, CompletionBelowThePriorBoundKeepsSatisfaction) {
  // s[1] = 1.0 is covered by the plb 1.0; the completion lands at 0.875,
  // below both. Satisfaction is sticky and no strictness is added, so the
  // tie on dimension 0 keeps p alive.
  VectorRows rows(2);
  rows.Append(DistVector{2.0, 1.0});
  LbcScreen screen(rows, 2, {});
  EXPECT_FALSE(screen.Start(DistVector{2.0, 0.5}, {true, false}));
  EXPECT_FALSE(screen.Step(1, 1.0, false));
  EXPECT_FALSE(screen.Step(1, 0.875, true));
}

TEST(LbcScreenTest, AttributesGateAndBreakTies) {
  // Row 0 is worse on the attribute; row 1 ties the distances and wins on
  // the attribute, so it dominates once both distances are covered.
  VectorRows rows(3);
  rows.Append(DistVector{0.0, 0.0, 2.0});
  rows.Append(DistVector{1.0, 1.0, 0.5});
  const DistVector attrs = {1.0};
  LbcScreen screen(rows, 2, attrs);
  EXPECT_FALSE(screen.Start(DistVector{1.0, 0.25}, {true, false}));
  EXPECT_TRUE(screen.Step(1, 1.0, false));
}

// Every entry LBC reports progressively survives to its final skyline, in
// the same order with the same vector: the tie-safety pass removes
// nothing on these instances.
TEST(LbcProgressiveTest, EmissionsEqualFinalSkylineOnSmallCaAndNa) {
  for (const NetworkClass cls : {NetworkClass::kCA, NetworkClass::kNA}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      WorkloadConfig config;
      config.network = PaperNetworkConfig(cls, 0.05, seed);
      config.static_attr_dims = seed == 2 ? 1 : 0;
      Workload workload(config);
      for (std::uint64_t q = 0; q < 12; ++q) {
        const SkylineQuerySpec spec =
            workload.SampleQuery(2 + q % 4, 100 * seed + q);
        LbcOptions options;
        options.alternate_sources = q % 3 == 2;
        std::vector<SkylineEntry> emitted;
        const SkylineResult result =
            RunLbc(workload.dataset(), spec, options,
                   [&](const SkylineEntry& e) { emitted.push_back(e); });
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        ASSERT_EQ(emitted.size(), result.skyline.size())
            << NetworkClassName(cls) << " seed " << seed << " q " << q;
        for (std::size_t i = 0; i < emitted.size(); ++i) {
          EXPECT_EQ(emitted[i].object, result.skyline[i].object);
          EXPECT_EQ(emitted[i].vector, result.skyline[i].vector);
        }
      }
    }
  }
}

}  // namespace
}  // namespace msq
