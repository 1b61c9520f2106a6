// Absolute deadlines (QueryLimits::deadline_at) racing query start under
// the executor pool — the serving layer's degradation path. Three regimes:
// already expired at submission (queue wait ate everything), expiring
// somewhere inside the queue while a burst saturates the workers, and a
// deadline generous enough to never fire. In every regime each future must
// resolve promptly with a well-formed result — truncated-empty for the
// expired case, never a hang, never an error status — and the flight
// recorder must account for every query exactly once.
#include <cstddef>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/metrics.h"

namespace msq {
namespace {

class DeadlineRaceTest : public ::testing::Test {
 protected:
  DeadlineRaceTest() {
    WorkloadConfig config;
    config.network = NetworkGenConfig{150, 200, 11, 0.0};
    config.object_density = 1.0;
    workload_ = std::make_unique<Workload>(config);
  }

  QueryRequest MakeRequest(std::uint64_t seed, double deadline_at) {
    QueryRequest request;
    request.algorithm = Algorithm::kCe;
    request.spec = workload_->SampleQuery(3, seed);
    request.spec.limits.deadline_at = deadline_at;
    return request;
  }

  std::unique_ptr<Workload> workload_;
};

TEST_F(DeadlineRaceTest, ExpiredAtSubmissionReturnsTruncatedEmpty) {
  obs::TelemetryConfig telemetry;
  obs::MetricsRegistry registry;
  telemetry.registry = &registry;
  QueryExecutor executor(workload_->dataset(), 2, telemetry);
  const double long_gone = MonotonicSeconds() - 1.0;
  std::vector<std::future<SkylineResult>> futures;
  for (std::uint64_t i = 0; i < 16; ++i) {
    futures.push_back(executor.Submit(MakeRequest(i, long_gone)));
  }
  for (std::future<SkylineResult>& f : futures) {
    const SkylineResult result = f.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.truncated);
    EXPECT_EQ(result.truncation_reason, StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(result.skyline.empty());
    // The short-circuit runs before the algorithm: no pages touched.
    EXPECT_EQ(result.stats.network_pages + result.stats.index_pages, 0u);
  }
  executor.Quiesce();
  EXPECT_EQ(executor.telemetry().flight_recorder().Snapshot().total, 16u);
}

TEST_F(DeadlineRaceTest, DeadlineExpiringInsideTheQueueNeverHangs) {
  // One worker and a deep burst: by construction most requests start
  // after their deadline passed, some race it exactly. All must resolve.
  obs::TelemetryConfig telemetry;
  obs::MetricsRegistry registry;
  telemetry.registry = &registry;
  QueryExecutor executor(workload_->dataset(), 1, telemetry);
  constexpr std::size_t kBurst = 48;
  const double now = MonotonicSeconds();
  std::vector<std::future<SkylineResult>> futures;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    // Deadlines staggered from "already passed" to ~20 ms out, so the
    // expiry point sweeps through the queue as the worker drains it.
    const double deadline = now + 0.0005 * static_cast<double>(i);
    futures.push_back(executor.Submit(MakeRequest(100 + i, deadline)));
  }
  std::size_t expired = 0;
  std::size_t completed = 0;
  for (std::future<SkylineResult>& f : futures) {
    // A hang here is the bug this test exists for; gtest's per-test
    // timeout plus the future resolving is the assertion.
    const SkylineResult result = f.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    if (result.truncated) {
      EXPECT_EQ(result.truncation_reason, StatusCode::kDeadlineExceeded);
      ++expired;
    } else {
      ++completed;
    }
  }
  EXPECT_EQ(expired + completed, kBurst);
  // The stagger guarantees at least the first request (deadline == now,
  // already behind by the time the worker picks it up) expires.
  EXPECT_GE(expired, 1u);
  executor.Quiesce();
  EXPECT_EQ(executor.telemetry().flight_recorder().Snapshot().total,
            kBurst);
}

TEST_F(DeadlineRaceTest, GenerousDeadlineDoesNotTruncate) {
  obs::TelemetryConfig telemetry;
  obs::MetricsRegistry registry;
  telemetry.registry = &registry;
  QueryExecutor executor(workload_->dataset(), 2, telemetry);
  const double far_out = MonotonicSeconds() + 300.0;
  std::vector<std::future<SkylineResult>> futures;
  for (std::uint64_t i = 0; i < 8; ++i) {
    futures.push_back(executor.Submit(MakeRequest(200 + i, far_out)));
  }
  for (std::future<SkylineResult>& f : futures) {
    const SkylineResult result = f.get();
    EXPECT_TRUE(result.status.ok());
    EXPECT_FALSE(result.truncated);
    EXPECT_GT(result.skyline.size(), 0u);
  }
}

TEST_F(DeadlineRaceTest, DeadlineAtComposesWithOtherLimits) {
  // deadline_at and max_page_accesses are independent guardrails; when
  // the deadline already passed, it wins before a page is ever counted.
  obs::TelemetryConfig telemetry;
  obs::MetricsRegistry registry;
  telemetry.registry = &registry;
  QueryExecutor executor(workload_->dataset(), 1, telemetry);
  QueryRequest request = MakeRequest(300, MonotonicSeconds() - 0.5);
  request.spec.limits.max_page_accesses = 1;
  const SkylineResult result = executor.Submit(std::move(request)).get();
  EXPECT_TRUE(result.status.ok());
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.truncation_reason, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.skyline.empty());
}

}  // namespace
}  // namespace msq
