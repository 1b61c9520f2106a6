// EXPLAIN-plan checks: for every algorithm, the ExecutionPlan built from a
// run's stats/profile/collector must hold to the ReconcilePlan oracle —
// every plan counter equals its QueryStats twin exactly, the tightness
// histogram agrees with the independently counted sample counters, and the
// phase rollup partitions the totals. Also covers the plan/explainz JSON
// encodings, the oracle's own sensitivity, and the bounded PlanStore ring.
#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "core/skyline_query.h"
#include "obs/plan.h"
#include "obs/trace.h"
#include "testing_support.h"

namespace msq {
namespace {

// Minimal recursive-descent JSON validator (same shape as the one in
// profile_reconcile_test.cc) — enough to prove the encodings are
// well-formed without a JSON library.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '"') return ++pos_, true;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// Runs `algorithm` with tracing + plan collection and returns the plan
// after asserting it reconciles exactly with the run's QueryStats.
struct PlanRun {
  obs::ExecutionPlan plan;
  SkylineResult result;
  std::size_t source_count = 0;
};

PlanRun RunAndReconcile(Algorithm algorithm, std::uint64_t seed) {
  auto workload = testing::MakeRandomWorkload(220, 300, 0.6, seed);
  SkylineQuerySpec spec = workload->SampleQuery(4, seed + 100);
  obs::TraceSession trace;
  obs::PlanCollector collector;
  spec.trace = &trace;
  spec.plan = &collector;
  workload->ResetBuffers();
  PlanRun run;
  run.result = RunSkylineQuery(algorithm, workload->dataset(), spec);
  run.source_count = spec.sources.size();
  EXPECT_TRUE(run.result.status.ok());
  EXPECT_TRUE(run.result.profile.has_value());
  run.plan = obs::BuildExecutionPlan(
      AlgorithmName(algorithm), run.result.stats,
      run.result.profile.has_value() ? &*run.result.profile : nullptr,
      &collector, run.result.truncated);
  EXPECT_EQ(obs::ReconcilePlan(run.plan, run.result.stats), "");
  return run;
}

void ExpectPlanReconciles(Algorithm algorithm, std::uint64_t seed) {
  const PlanRun run = RunAndReconcile(algorithm, seed);
  const obs::ExecutionPlan& plan = run.plan;
  EXPECT_EQ(plan.algorithm, AlgorithmName(algorithm));
  EXPECT_FALSE(plan.truncated);
  EXPECT_EQ(plan.skyline_size, run.result.skyline.size());
  // The phase breakdown exists (the traced run always has a root span) and
  // ends with the synthetic "unattributed" phase carrying the root's self
  // counters.
  ASSERT_FALSE(plan.phases.empty());
  EXPECT_EQ(plan.phases.back().name, "unattributed");
  // Every algorithm records final wavefront progress for every query
  // source exactly once.
  ASSERT_EQ(plan.sources.size(), run.source_count);
  std::uint64_t source_settled = 0;
  for (const obs::PlanSourceProgress& source : plan.sources) {
    EXPECT_LT(source.source, run.source_count);
    EXPECT_FALSE(source.resumed_from_cache);  // cacheless harness
    source_settled += source.settled_nodes;
  }
  EXPECT_GT(source_settled, 0u);
  // Cacheless: every exact distance was computed, none answered from a
  // memo or a cached wavefront, and the cache counters stayed zero.
  EXPECT_EQ(plan.tiers.memo_hits, 0u);
  EXPECT_EQ(plan.tiers.wavefront_exact, 0u);
  EXPECT_GT(plan.tiers.computed, 0u);
  EXPECT_EQ(plan.counters.cache_hits(), 0u);
  EXPECT_EQ(plan.counters.dominance_tests,
            run.result.stats.counters.dominance_tests);
  EXPECT_GT(plan.counters.dominance_tests, 0u);
}

TEST(PlanReconcileTest, NaivePlanReconcilesWithQueryStats) {
  ExpectPlanReconciles(Algorithm::kNaive, 21);
}

TEST(PlanReconcileTest, CePlanReconcilesWithQueryStats) {
  ExpectPlanReconciles(Algorithm::kCe, 22);
}

TEST(PlanReconcileTest, EdcPlanReconcilesWithQueryStats) {
  ExpectPlanReconciles(Algorithm::kEdc, 23);
}

TEST(PlanReconcileTest, EdcIncrementalPlanReconcilesWithQueryStats) {
  ExpectPlanReconciles(Algorithm::kEdcIncremental, 24);
}

TEST(PlanReconcileTest, LbcPlanReconcilesWithQueryStats) {
  ExpectPlanReconciles(Algorithm::kLbc, 25);
}

TEST(PlanReconcileTest, BoundAlgorithmsTakeTightnessSamples) {
  // EDC and LBC complete objects to exact distances after holding a lower
  // bound on them — each completion site records a plb/dN tightness sample,
  // so the histogram (collector path) and the sample counters (thread
  // counter path) must both be non-empty and agree.
  for (const Algorithm algorithm : {Algorithm::kEdc, Algorithm::kLbc}) {
    const PlanRun run = RunAndReconcile(algorithm, 31);
    EXPECT_GT(run.plan.counters.bound_samples, 0u)
        << AlgorithmName(algorithm);
    EXPECT_EQ(run.plan.bound_tightness.count,
              run.plan.counters.bound_samples);
    // Tightness is a percent plb/dN with plb <= dN, so the mean lies in
    // (0, 100].
    EXPECT_GT(run.plan.mean_tightness_pct(), 0.0);
    EXPECT_LE(run.plan.mean_tightness_pct(), 100.0);
  }
}

TEST(PlanReconcileTest, ReconcileDetectsEveryTamperedCounter) {
  PlanRun run = RunAndReconcile(Algorithm::kLbc, 37);
  // Scalar twin drift.
  obs::ExecutionPlan tampered = run.plan;
  tampered.counters.dominance_tests += 1;
  EXPECT_NE(obs::ReconcilePlan(tampered, run.result.stats), "");
  // Histogram-vs-counter drift (the two independent sample paths).
  tampered = run.plan;
  tampered.bound_tightness.count += 1;
  EXPECT_NE(obs::ReconcilePlan(tampered, run.result.stats), "");
  // Phase rollup no longer partitioning the totals.
  tampered = run.plan;
  ASSERT_FALSE(tampered.phases.empty());
  tampered.phases.back().counters.settled_nodes += 1;
  EXPECT_NE(obs::ReconcilePlan(tampered, run.result.stats), "");
}

TEST(PlanReconcileTest, PlanJsonIsValidAndCarriesEverySection) {
  const PlanRun run = RunAndReconcile(Algorithm::kLbc, 41);
  const std::string json = obs::PlanJson(run.plan);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json.substr(0, 400);
  EXPECT_EQ(json.front(), '{');
  for (const char* key :
       {"\"algorithm\":\"lbc\"", "\"dominance_tests\":", "\"bounds\":",
        "\"tightness\":", "\"histogram\":", "\"pages\":", "\"cache\":",
        "\"lookup_tiers\":", "\"phases\":", "\"sources\":",
        "\"candidates\":", "\"skyline_size\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Hostile algorithm names survive the encoding.
  obs::ExecutionPlan hostile = run.plan;
  hostile.algorithm = "we\"ird\\algo\n";
  const std::string hostile_json = obs::PlanJson(hostile);
  EXPECT_TRUE(JsonValidator(hostile_json).Valid()) << hostile_json;
}

TEST(PlanReconcileTest, ExplainzJsonAggregatesPerAlgorithm) {
  // The rollup is fed by Account (every completion), the plans array by
  // Retain (explain-requested only) — exercise both sides of the store.
  obs::PlanStore store;
  std::uint64_t sequence = 0;
  const std::pair<Algorithm, std::uint64_t> cases[] = {
      {Algorithm::kCe, 51}, {Algorithm::kEdc, 52}, {Algorithm::kLbc, 53}};
  for (const auto& [algorithm, seed] : cases) {
    const PlanRun run = RunAndReconcile(algorithm, seed);
    store.Account(run.plan.algorithm, run.result.stats);
    obs::RetainedPlan entry;
    entry.sequence = ++sequence;
    entry.trace_id = "0123456789abcdef0123456789abcdef";
    entry.plan = run.plan;
    store.Retain(std::move(entry));
  }
  EXPECT_EQ(store.accounted_total(), 3u);
  EXPECT_EQ(store.Snapshot().total, 3u);
  const std::string json = obs::ExplainzJson(store);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"pruning_efficiency\":["), std::string::npos);
  EXPECT_NE(json.find("\"plans\":["), std::string::npos);
  for (const char* algo : {"ce", "edc", "lbc"}) {
    EXPECT_NE(json.find(std::string("\"algorithm\":\"") + algo + "\""),
              std::string::npos)
        << algo;
  }
  for (const char* key :
       {"\"queries\":", "\"avoided_ratio\":", "\"prune_ratio\":",
        "\"mean_tightness_pct\":", "\"sequence\":", "\"trace_id\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // An accounted-but-never-retained completion still shows in the rollup.
  obs::PlanStore rollup_only;
  QueryStats stats;
  stats.counters.dominance_tests = 10;
  rollup_only.Account("edc", stats);
  const std::string rollup = obs::ExplainzJson(rollup_only);
  EXPECT_TRUE(JsonValidator(rollup).Valid());
  EXPECT_NE(rollup.find("\"algorithm\":\"edc\""), std::string::npos);
  EXPECT_NE(rollup.find("\"plans\":[]"), std::string::npos);
  // Empty store: both arrays present and empty, still valid JSON.
  const std::string empty = obs::ExplainzJson(obs::PlanStore{});
  EXPECT_TRUE(JsonValidator(empty).Valid());
  EXPECT_NE(empty.find("\"pruning_efficiency\":[]"), std::string::npos);
  EXPECT_NE(empty.find("\"plans\":[]"), std::string::npos);
}

TEST(PlanReconcileTest, PlanStoreKeepsTheMostRecentPlansBounded) {
  obs::PlanStore store(/*capacity=*/4);
  EXPECT_EQ(store.capacity(), 4u);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    obs::RetainedPlan entry;
    entry.sequence = i;
    entry.plan.algorithm = "ce";
    store.Retain(std::move(entry));
  }
  const auto window = store.Snapshot();
  EXPECT_EQ(window.total, 6u);
  EXPECT_EQ(window.evicted, 2u);
  const std::vector<obs::RetainedPlan>& snapshot = window.records;
  ASSERT_EQ(snapshot.size(), 4u);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].sequence, i + 3);  // 3, 4, 5, 6 — oldest dropped
  }
}

TEST(PlanReconcileTest, UncollectedRunBuildsBarePlanThatStillReconciles) {
  // No collector and no profile: the plan still carries the exact scalar
  // totals, and the oracle holds when the run took no tightness samples
  // (CE never does — it has no lower-bound completion sites).
  auto workload = testing::MakeRandomWorkload(150, 200, 0.5, 61);
  const SkylineQuerySpec spec = workload->SampleQuery(3, 71);
  workload->ResetBuffers();
  const SkylineResult result =
      RunSkylineQuery(Algorithm::kCe, workload->dataset(), spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.stats.counters.bound_samples, 0u);
  const obs::ExecutionPlan plan = obs::BuildExecutionPlan(
      "ce", result.stats, /*profile=*/nullptr, /*collector=*/nullptr,
      result.truncated);
  EXPECT_EQ(obs::ReconcilePlan(plan, result.stats), "");
  EXPECT_TRUE(plan.phases.empty());
  EXPECT_TRUE(plan.sources.empty());
  EXPECT_EQ(plan.mean_tightness_pct(), 0.0);
}

}  // namespace
}  // namespace msq
