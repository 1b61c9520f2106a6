// End-to-end tracing checks: per-phase self counters must sum EXACTLY to
// the query's top-level QueryStats for every traced algorithm, and the
// Chrome trace export must be valid JSON.
#include <cctype>
#include <set>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/skyline_query.h"
#include "obs/export.h"
#include "obs/plan.h"
#include "obs/trace.h"
#include "testing_support.h"

namespace msq {
namespace {

// Minimal recursive-descent JSON validator — enough to prove the export is
// well-formed without pulling in a JSON library.
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
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') return ++pos_, true;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
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

// Runs `algorithm` traced and asserts the profile's self-counter totals
// reconcile exactly with the result's QueryStats.
void ExpectProfileMatchesStats(Algorithm algorithm, std::uint64_t seed) {
  auto workload = testing::MakeRandomWorkload(220, 300, 0.6, seed);
  SkylineQuerySpec spec = workload->SampleQuery(4, seed + 100);
  obs::TraceSession trace;
  spec.trace = &trace;
  workload->ResetBuffers();
  const SkylineResult result =
      RunSkylineQuery(algorithm, workload->dataset(), spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.profile.has_value());
  const obs::QueryProfile& profile = *result.profile;
  ASSERT_FALSE(profile.spans.empty());
  EXPECT_EQ(profile.spans[0].parent, -1);
  EXPECT_EQ(profile.dropped_spans, 0u);

  // Every counter row, the page fields, the root-inclusive partition and
  // the derived pages_per_settled_node figure (obs/plan.h).
  EXPECT_EQ(obs::ReconcileProfile(profile, result.stats), "");

  // Trace window timing must cover the stats window (both are the same
  // program points, so the root duration matches total_seconds closely;
  // only assert ordering to stay timer-robust).
  EXPECT_GE(profile.spans[0].end_seconds, profile.spans[0].start_seconds);
}

TEST(ProfileReconcileTest, CeSelfCountersSumToQueryStats) {
  ExpectProfileMatchesStats(Algorithm::kCe, 5);
}

TEST(ProfileReconcileTest, EdcSelfCountersSumToQueryStats) {
  ExpectProfileMatchesStats(Algorithm::kEdc, 6);
}

TEST(ProfileReconcileTest, EdcIncrementalSelfCountersSumToQueryStats) {
  ExpectProfileMatchesStats(Algorithm::kEdcIncremental, 7);
}

TEST(ProfileReconcileTest, LbcSelfCountersSumToQueryStats) {
  ExpectProfileMatchesStats(Algorithm::kLbc, 8);
}

TEST(ProfileReconcileTest, NaiveSelfCountersSumToQueryStats) {
  ExpectProfileMatchesStats(Algorithm::kNaive, 9);
}

TEST(ProfileReconcileTest, UntracedQueryCarriesNoProfile) {
  auto workload = testing::MakeRandomWorkload(120, 160, 0.5, 3);
  const SkylineQuerySpec spec = workload->SampleQuery(3, 44);
  workload->ResetBuffers();
  const SkylineResult result =
      RunSkylineQuery(Algorithm::kCe, workload->dataset(), spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.profile.has_value());
}

TEST(ProfileReconcileTest, ChromeTraceOfCeQueryIsValidJson) {
  auto workload = testing::MakeRandomWorkload(150, 200, 0.5, 11);
  SkylineQuerySpec spec = workload->SampleQuery(3, 21);
  obs::TraceSession trace;
  spec.trace = &trace;
  workload->ResetBuffers();
  const SkylineResult result =
      RunSkylineQuery(Algorithm::kCe, workload->dataset(), spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.profile.has_value());

  const std::string json = obs::ToChromeTrace(*result.profile);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json.substr(0, 400);
  // trace_event shape: an array of complete events.
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ce\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{"), std::string::npos);

  // The validator itself must reject malformed input.
  EXPECT_FALSE(JsonValidator("[{\"a\":}]").Valid());
  EXPECT_FALSE(JsonValidator("[1, 2").Valid());
  EXPECT_FALSE(JsonValidator("{\"a\" 1}").Valid());

  // Names with JSON-hostile characters survive the round trip.
  obs::TraceSession hostile;
  const int id = hostile.OpenSpan("we\"ird\\phase\n");
  hostile.CloseSpan(id);
  const std::string hostile_json = obs::ToChromeTrace(hostile.Take());
  EXPECT_TRUE(JsonValidator(hostile_json).Valid()) << hostile_json;

  // The metrics registry dump is line-delimited JSON.
  const std::string jsonl = obs::MetricsJsonl(obs::GlobalMetrics());
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string_view line(jsonl.data() + start, end - start);
    EXPECT_TRUE(JsonValidator(line).Valid()) << line;
    start = end + 1;
  }
}

// LBC's filter/confirm loop runs once per candidate, but its phases are
// switched, not opened: the profile holds one record per phase however many
// candidates there are, and still reconciles exactly.
TEST(ProfileReconcileTest, LbcSpanCountIsBoundedByPhasesNotCandidates) {
  auto workload = testing::MakeRandomWorkload(600, 780, 1.0, 17);
  SkylineQuerySpec spec = workload->SampleQuery(6, 23, 0.5);
  obs::TraceSession trace;
  obs::PlanCollector collector;
  spec.trace = &trace;
  spec.plan = &collector;
  workload->ResetBuffers();
  const SkylineResult result =
      RunSkylineQuery(Algorithm::kLbc, workload->dataset(), spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.profile.has_value());
  ASSERT_GE(result.stats.candidate_count, 100u);
  const obs::QueryProfile& profile = *result.profile;
  // lbc, lbc.filter, lbc.confirm, lbc.finalize.
  EXPECT_LE(profile.spans.size(), 4u);
  std::set<std::string> names;
  for (const obs::SpanRecord& span : profile.spans) {
    EXPECT_TRUE(names.insert(span.name).second) << span.name;
  }
  EXPECT_EQ(names.count("lbc.filter"), 1u);
  EXPECT_EQ(names.count("lbc.confirm"), 1u);
  EXPECT_EQ(obs::ReconcileProfile(profile, result.stats), "");
  // The plan's phases are those records, still partitioning the totals.
  const obs::ExecutionPlan plan =
      obs::BuildExecutionPlan("lbc", result.stats, &profile, &collector,
                             false);
  EXPECT_EQ(plan.phases.size(), profile.spans.size());
  EXPECT_EQ(obs::ReconcilePlan(plan, result.stats), "");
}

TEST(ProfileReconcileTest, ProfileReportAggregatesPhases) {
  auto workload = testing::MakeRandomWorkload(150, 200, 0.5, 13);
  SkylineQuerySpec spec = workload->SampleQuery(4, 31);
  obs::TraceSession trace;
  spec.trace = &trace;
  workload->ResetBuffers();
  const SkylineResult result =
      RunSkylineQuery(Algorithm::kLbc, workload->dataset(), spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.profile.has_value());
  const std::string report = obs::ProfileReport(*result.profile);
  EXPECT_NE(report.find("lbc"), std::string::npos);
  EXPECT_NE(report.find("lbc.filter"), std::string::npos);
  EXPECT_NE(report.find("total (self sum)"), std::string::npos);
  // The derived layout-locality section follows the table, and its shared
  // derivation reconciles exactly with QueryStats (same integers through
  // the same function).
  EXPECT_NE(report.find("pages_per_settled_node"), std::string::npos);
  const obs::Counters total = result.profile->TotalCounters();
  EXPECT_EQ(
      obs::PagesPerSettledNode(total.network_misses, total.settled_nodes),
      obs::PagesPerSettledNode(result.stats.network_pages,
                               result.stats.counters.settled_nodes));
  EXPECT_EQ(obs::PagesPerSettledNode(0, 0), 0.0);
  EXPECT_EQ(obs::PagesPerSettledNode(6, 4), 1.5);
}

}  // namespace
}  // namespace msq
