#include "core/dominance.h"

#include <gtest/gtest.h>

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

// The per-test loop every skyline-set scan used before FirstDominator: one
// counted test per row examined, the rest of the set avoided on a hit.
struct ReferenceScan {
  std::size_t index;
  std::uint64_t tests = 0;
  std::uint64_t avoided = 0;
};
ReferenceScan ReferenceFirstDominator(const std::vector<DistVector>& rows,
                                      const DistVector& b, double margin,
                                      std::size_t skip) {
  ReferenceScan scan{rows.size()};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == skip) continue;
    ++scan.tests;
    bool no_worse = true;
    bool strict = false;
    for (std::size_t d = 0; d < b.size(); ++d) {
      if (rows[i][d] > b[d]) {
        no_worse = false;
        break;
      }
      if (rows[i][d] < b[d] - margin) strict = true;
    }
    if (no_worse && strict) {
      scan.index = i;
      scan.avoided = rows.size() - i - 1;
      return scan;
    }
  }
  return scan;
}

VectorRows ToRows(const std::vector<DistVector>& vectors, std::size_t dims) {
  VectorRows rows(dims);
  for (const DistVector& v : vectors) rows.Append(v);
  return rows;
}

TEST(FirstDominatorTest, MatchesPerTestLoopOnRandomVectors) {
  // Components on a quarter grid: exact ties, values exactly one margin
  // (0.25) apart, and +-inf are all frequent.
  const Dist kValues[] = {-kInfDist, 0.0, 0.25, 0.5, 0.75, 1.0, kInfDist};
  const double kMargins[] = {0.0, 0.25, kFpTieMargin};
  const obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  Rng rng(7);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t dims = 1 + rng.NextBounded(8);
    const std::size_t size = 1 + rng.NextBounded(12);
    auto random_vector = [&] {
      DistVector v(dims);
      for (Dist& x : v) x = kValues[rng.NextBounded(7)];
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
  std::uint64_t tests0 = tc.dominance_tests;
  EXPECT_EQ(CountDominators(rows, b, 0.0, rows.size()), 3u);
  EXPECT_EQ(tc.dominance_tests - tests0, 4u);
  tests0 = tc.dominance_tests;
  EXPECT_EQ(CountDominators(rows, b, 0.0, 2), 2u);  // stops at row 2
  EXPECT_EQ(tc.dominance_tests - tests0, 3u);
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
