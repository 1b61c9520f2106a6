#include "core/dominance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"

namespace msq {
namespace {

TEST(DominanceTest, StrictDominance) {
  EXPECT_TRUE(Dominates({1, 2}, {2, 3}));
  EXPECT_TRUE(Dominates({1, 3}, {2, 3}));  // tie in one dim, strict other
  EXPECT_FALSE(Dominates({1, 2}, {1, 2}));  // equal: not dominance
  EXPECT_FALSE(Dominates({1, 4}, {2, 3}));  // incomparable
  EXPECT_FALSE(Dominates({2, 3}, {1, 4}));
}

TEST(DominanceTest, SingleDimension) {
  EXPECT_TRUE(Dominates({1}, {2}));
  EXPECT_FALSE(Dominates({2}, {1}));
  EXPECT_FALSE(Dominates({1}, {1}));
}

TEST(DominanceTest, InfinityDominatedByFinite) {
  EXPECT_TRUE(Dominates({1, 1}, {1, kInfDist}));
  EXPECT_FALSE(Dominates({1, kInfDist}, {1, 1}));
}

TEST(DominanceTest, DominatesOrEqual) {
  EXPECT_TRUE(DominatesOrEqual({1, 2}, {1, 2}));
  EXPECT_TRUE(DominatesOrEqual({1, 2}, {2, 3}));
  EXPECT_FALSE(DominatesOrEqual({1, 4}, {2, 3}));
}

TEST(DominanceTest, AllFinite) {
  EXPECT_TRUE(AllFinite({1, 2, 3}));
  EXPECT_FALSE(AllFinite({1, kInfDist}));
  EXPECT_TRUE(AllFinite({}));
}

TEST(DominanceSummaryTest, SummarizeComputesComponentRange) {
  const DistSummary s = Summarize({3, 1, 2});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

// SkylineIndices refutes a window comparison from the min/max summaries
// alone when they are out of order; those pairs must stay incomparable.
TEST(DominanceSummaryTest, EarlyExitCasesRefuteWithoutComponentScan) {
  // Candidate min above incumbent max: the canonical fast refute (and the
  // reverse direction dominates).
  EXPECT_EQ(SkylineIndices({{5, 6}, {1, 2}}), (std::vector<std::size_t>{1}));
  // min(a) > min(b) alone refutes even when the ranges overlap.
  EXPECT_EQ(SkylineIndices({{2, 9}, {1, 10}}),
            (std::vector<std::size_t>{0, 1}));
  // max(a) > max(b) alone refutes too.
  EXPECT_EQ(SkylineIndices({{1, 11}, {1, 10}}),
            (std::vector<std::size_t>{1}));
}

TEST(DominanceSummaryTest, AgreesWithDominatesOnRandomVectors) {
  Rng rng(42);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t dims = 1 + rng.NextBounded(5);
    DistVector a(dims), b(dims);
    for (std::size_t i = 0; i < dims; ++i) {
      // A tiny value domain makes ties, dominance, and summary-overlap
      // cases all frequent.
      a[i] = static_cast<Dist>(rng.NextBounded(4));
      b[i] = static_cast<Dist>(rng.NextBounded(4));
    }
    std::vector<std::size_t> expected;
    if (!Dominates(b, a)) expected.push_back(0);
    if (!Dominates(a, b)) expected.push_back(1);
    EXPECT_EQ(SkylineIndices({a, b}), expected) << "trial " << trial;
  }
}

TEST(DominanceSummaryTest, FastPathStillCountsAsOneDominanceTest) {
  // Whether the summary refutes in O(1) or the component loop runs, the
  // dominance-test accounting must advance identically, or QueryStats and
  // profiles would depend on which path resolved the comparison.
  const DistVector lo = {1, 2};
  const DistVector hi = {5, 6};
  const obs::ThreadCounters& tc = obs::ThreadLocalCounters();

  // Window {hi}, candidate lo: "hi dominates lo" is refuted by the
  // summaries, "lo dominates hi" runs the loop. Two tests.
  std::uint64_t before = tc.dominance_tests;
  EXPECT_EQ(SkylineIndices({hi, lo}), (std::vector<std::size_t>{1}));
  EXPECT_EQ(tc.dominance_tests, before + 2);

  // Window {lo}, candidate hi: dominated by the first comparison. One test.
  before = tc.dominance_tests;
  EXPECT_EQ(SkylineIndices({lo, hi}), (std::vector<std::size_t>{0}));
  EXPECT_EQ(tc.dominance_tests, before + 1);
}

// The kernel's contract, modelled row by row: only the rows <= b in the
// dimension where fewest are (the first such dimension on a tie) are
// tested, in descending (value, row) order, `skip` left out; the first that
// dominates is returned. One test per row tested; every other row but
// `skip` is avoided.
struct ReferenceScan {
  std::size_t index;
  std::uint64_t tests = 0;
  std::uint64_t avoided = 0;
};
bool RowDominatesRef(const DistVector& a, const DistVector& b, double margin) {
  bool strict = false;
  for (std::size_t d = 0; d < b.size(); ++d) {
    if (a[d] > b[d]) return false;
    if (a[d] < b[d] - margin) strict = true;
  }
  return strict;
}
std::vector<std::size_t> ReferencePrefix(const std::vector<DistVector>& rows,
                                         const DistVector& b) {
  std::vector<std::size_t> best;
  for (std::size_t k = 0; k < b.size(); ++k) {
    std::vector<std::size_t> prefix;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i][k] <= b[k]) prefix.push_back(i);
    }
    std::stable_sort(prefix.begin(), prefix.end(),
                     [&](std::size_t x, std::size_t y) {
                       return rows[x][k] < rows[y][k];
                     });
    std::reverse(prefix.begin(), prefix.end());
    if (k == 0 || prefix.size() < best.size()) best = prefix;
  }
  return best;
}
ReferenceScan ReferenceFirstDominator(const std::vector<DistVector>& rows,
                                      const DistVector& b, double margin,
                                      std::size_t skip) {
  ReferenceScan scan{rows.size()};
  for (const std::size_t i : ReferencePrefix(rows, b)) {
    if (i == skip) continue;
    ++scan.tests;
    if (RowDominatesRef(rows[i], b, margin)) {
      scan.index = i;
      break;
    }
  }
  scan.avoided = rows.size() - (skip < rows.size() ? 1 : 0) - scan.tests;
  return scan;
}

VectorRows ToRows(const std::vector<DistVector>& vectors, std::size_t dims) {
  VectorRows rows(dims);
  for (const DistVector& v : vectors) rows.Append(v);
  return rows;
}

// Components on a quarter grid: exact ties, values exactly one margin
// (0.25) apart, and +-inf are all frequent.
constexpr Dist kGridValues[] = {-kInfDist, 0.0, 0.25, 0.5, 0.75, 1.0,
                                kInfDist};
constexpr double kMargins[] = {0.0, 0.25, kFpTieMargin};

TEST(FirstDominatorTest, MatchesPerTestLoopOnRandomVectors) {
  const obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  Rng rng(7);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t dims = 1 + rng.NextBounded(8);
    const std::size_t size = 1 + rng.NextBounded(12);
    auto random_vector = [&] {
      DistVector v(dims);
      for (Dist& x : v) x = kGridValues[rng.NextBounded(7)];
      return v;
    };
    std::vector<DistVector> vectors(size);
    for (DistVector& v : vectors) v = random_vector();
    const VectorRows rows = ToRows(vectors, dims);
    // A fresh probe, and each row probed against the set (the tie-safety
    // passes' shape).
    const DistVector probe = random_vector();
    const double margin = kMargins[trial % 3];
    for (const std::size_t skip : {kNoSkip, std::size_t{0}, size / 2,
                                   size - 1}) {
      const DistVector& b = skip == kNoSkip ? probe : vectors[skip];
      const ReferenceScan want =
          ReferenceFirstDominator(vectors, b, margin, skip);
      const std::uint64_t tests0 = tc.dominance_tests;
      const std::uint64_t avoided0 = tc.dominance_avoided;
      EXPECT_EQ(FirstDominator(rows, b, margin, skip), want.index)
          << "trial " << trial << " skip " << skip;
      EXPECT_EQ(tc.dominance_tests - tests0, want.tests) << "trial " << trial;
      EXPECT_EQ(tc.dominance_avoided - avoided0, want.avoided)
          << "trial " << trial;
    }
  }
}

// Brute force: the answer is "none" exactly when no row but `skip`
// dominates, and otherwise a dominating row other than `skip`; the capped
// count is the brute-force count, capped. Rows are appended (and now and
// then swap-removed) between searches, so the lazily extended columns are
// searched at every stage of growth.
TEST(FirstDominatorTest, AgreesWithBruteForceAsRowsAreAppended) {
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t dims = 1 + rng.NextBounded(6);
    auto random_vector = [&] {
      DistVector v(dims);
      for (Dist& x : v) x = kGridValues[rng.NextBounded(7)];
      return v;
    };
    VectorRows rows(dims);
    std::vector<DistVector> vectors;
    for (int step = 0; step < 40; ++step) {
      const std::size_t appends = rng.NextBounded(4);
      for (std::size_t a = 0; a < appends; ++a) {
        vectors.push_back(random_vector());
        rows.Append(vectors.back());
      }
      if (!vectors.empty() && rng.NextBounded(10) == 0) {
        const std::size_t i = rng.NextBounded(vectors.size());
        rows.SwapRemove(i);
        vectors[i] = vectors.back();
        vectors.pop_back();
      }
      const DistVector probe = random_vector();
      const double margin = kMargins[rng.NextBounded(3)];
      const std::size_t skip =
          vectors.empty() || rng.NextBounded(2) == 0
              ? kNoSkip
              : rng.NextBounded(vectors.size());
      const DistVector& b = skip == kNoSkip ? probe : vectors[skip];
      std::size_t dominators = 0;
      for (std::size_t i = 0; i < vectors.size(); ++i) {
        if (i != skip && RowDominatesRef(vectors[i], b, margin)) ++dominators;
      }
      const std::size_t got = FirstDominator(rows, b, margin, skip);
      if (dominators == 0) {
        EXPECT_EQ(got, vectors.size()) << "trial " << trial;
      } else {
        ASSERT_LT(got, vectors.size()) << "trial " << trial;
        EXPECT_NE(got, skip);
        EXPECT_TRUE(RowDominatesRef(vectors[got], b, margin))
            << "trial " << trial;
      }
      if (skip == kNoSkip) {
        const std::size_t cap = rng.NextBounded(vectors.size() + 2);
        EXPECT_EQ(CountDominators(rows, b, margin, cap),
                  std::min(dominators, cap))
            << "trial " << trial;
      }
    }
  }
}

TEST(FirstDominatorTest, EmptySetHasNoDominatorAndCountsNothing) {
  const obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  const std::uint64_t tests0 = tc.dominance_tests;
  EXPECT_EQ(FirstDominator(VectorRows(2), DistVector{1, 1}, 0.0), 0u);
  EXPECT_EQ(tc.dominance_tests, tests0);
}

TEST(FirstDominatorTest, MarginDemandsAStrictWinBeyondIt) {
  const VectorRows rows = ToRows({{1.0, 2.0}}, 2);
  // Ahead by exactly the margin in one dimension: not strict.
  EXPECT_EQ(FirstDominator(rows, DistVector{1.5, 2.0}, 0.5), 1u);
  EXPECT_EQ(FirstDominator(rows, DistVector{1.5, 2.0}, 0.0), 0u);
  EXPECT_EQ(FirstDominator(rows, DistVector{1.5001, 2.0}, 0.5), 0u);
}

TEST(CountDominatorsTest, CountsUpToCapAndOneTestPerRowExamined) {
  const VectorRows rows = ToRows({{1, 1}, {5, 5}, {2, 2}, {0, 3}}, 2);
  const DistVector b = {3, 3};
  const obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  // Three rows are <= 3 in either dimension; {5, 5} is never tested.
  std::uint64_t tests0 = tc.dominance_tests;
  std::uint64_t avoided0 = tc.dominance_avoided;
  EXPECT_EQ(CountDominators(rows, b, 0.0, rows.size()), 3u);
  EXPECT_EQ(tc.dominance_tests - tests0, 3u);
  EXPECT_EQ(tc.dominance_avoided - avoided0, 1u);
  // Dimension 0's prefix, scanned from its largest value down, is {2, 2},
  // {1, 1}, {0, 3}: the cap is reached after the first two.
  tests0 = tc.dominance_tests;
  avoided0 = tc.dominance_avoided;
  EXPECT_EQ(CountDominators(rows, b, 0.0, 2), 2u);
  EXPECT_EQ(tc.dominance_tests - tests0, 2u);
  EXPECT_EQ(tc.dominance_avoided - avoided0, 2u);
}

TEST(VectorRowsTest, AppendAndSwapRemove) {
  VectorRows rows(2);
  rows.Append(DistVector{1, 2});
  rows.Append(DistVector{3, 4});
  rows.Append(DistVector{5, 6});
  rows.SwapRemove(0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(DistVector(rows.row(0).begin(), rows.row(0).end()),
            (DistVector{5, 6}));
  EXPECT_EQ(DistVector(rows.row(1).begin(), rows.row(1).end()),
            (DistVector{3, 4}));
  rows.SwapRemove(1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.row(0)[0], 5.0);
}

TEST(SkylineIndicesTest, BasicSkyline) {
  const std::vector<DistVector> vectors = {
      {1, 5}, {2, 4}, {3, 3}, {2, 6}, {5, 5}};
  // {2,6} dominated by {1,5} and {2,4}; {5,5} dominated by {3,3}.
  EXPECT_EQ(SkylineIndices(vectors), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(SkylineIndicesTest, AllIncomparable) {
  const std::vector<DistVector> vectors = {{1, 3}, {2, 2}, {3, 1}};
  EXPECT_EQ(SkylineIndices(vectors).size(), 3u);
}

TEST(SkylineIndicesTest, SinglePoint) {
  EXPECT_EQ(SkylineIndices({{7, 7}}), (std::vector<std::size_t>{0}));
}

TEST(SkylineIndicesTest, Empty) {
  EXPECT_TRUE(SkylineIndices({}).empty());
}

TEST(SkylineIndicesTest, DuplicatesAllKept) {
  const std::vector<DistVector> vectors = {{1, 1}, {1, 1}, {2, 2}};
  EXPECT_EQ(SkylineIndices(vectors), (std::vector<std::size_t>{0, 1}));
}

TEST(SkylineIndicesTest, NonFiniteExcluded) {
  const std::vector<DistVector> vectors = {{kInfDist, 1}, {5, 5}};
  EXPECT_EQ(SkylineIndices(vectors), (std::vector<std::size_t>{1}));
}

TEST(SkylineIndicesTest, ChainOfDominance) {
  const std::vector<DistVector> vectors = {{3, 3}, {2, 2}, {1, 1}};
  // Later entries dominate earlier ones; only the last survives.
  EXPECT_EQ(SkylineIndices(vectors), (std::vector<std::size_t>{2}));
}

TEST(SkylineIndicesTest, HigherDimensions) {
  const std::vector<DistVector> vectors = {
      {1, 2, 3, 4}, {2, 1, 4, 3}, {1, 2, 3, 5}, {0, 9, 9, 9}};
  // {1,2,3,5} dominated by {1,2,3,4}; others incomparable.
  EXPECT_EQ(SkylineIndices(vectors), (std::vector<std::size_t>{0, 1, 3}));
}

TEST(SkylineIndicesTest, DominanceTestCountPinned) {
  // Batched counting must add exactly what the per-comparison counting it
  // replaced did; these totals were recorded with that code.
  Rng rng(2024);
  std::vector<DistVector> vectors(600, DistVector(4));
  for (DistVector& v : vectors) {
    for (Dist& x : v) x = static_cast<Dist>(rng.NextBounded(40));
  }
  const obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  const std::uint64_t tests0 = tc.dominance_tests;
  const std::uint64_t avoided0 = tc.dominance_avoided;
  EXPECT_EQ(SkylineIndices(vectors).size(), 47u);
  EXPECT_EQ(tc.dominance_tests - tests0, 9629u);
  EXPECT_EQ(tc.dominance_avoided - avoided0, 13557u);
}

}  // namespace
}  // namespace msq
