// QueryExecutor: concurrent batches over one shared dataset must be
// indistinguishable from sequential runs — same skylines byte for byte,
// same deterministic work counters, exactly reconciling profiles, and
// per-query limits that only bite the query that set them.
#include <cstddef>
#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/plan.h"
#include "testing_support.h"

namespace msq {
namespace {

constexpr Algorithm kAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                     Algorithm::kLbc};

std::unique_ptr<Workload> SharedWorkload() {
  WorkloadConfig config;
  config.network = NetworkGenConfig{220, 290, 5, 0.0};
  config.object_density = 1.0;
  config.object_seed = 11;
  // Multi-shard pools small enough that queries evict each other's pages.
  config.graph_buffer_frames = 32;
  config.index_buffer_frames = 32;
  return std::make_unique<Workload>(config);
}

std::vector<QueryRequest> MixedRequests(const Workload& workload,
                                        std::size_t queries) {
  std::vector<QueryRequest> requests;
  for (std::size_t q = 0; q < queries; ++q) {
    const SkylineQuerySpec spec = workload.SampleQuery(3, 40 + q);
    for (const Algorithm algorithm : kAlgorithms) {
      QueryRequest request;
      request.algorithm = algorithm;
      request.spec = spec;
      requests.push_back(request);
    }
  }
  return requests;
}

TEST(QueryExecutorTest, BatchMatchesSequentialRunByteForByte) {
  auto workload = SharedWorkload();
  const std::vector<QueryRequest> requests = MixedRequests(*workload, 6);

  std::vector<SkylineResult> expected;
  for (const QueryRequest& request : requests) {
    expected.push_back(
        RunSkylineQuery(request.algorithm, workload->dataset(), request.spec));
    ASSERT_TRUE(expected.back().status.ok());
  }

  QueryExecutor executor(workload->dataset(), /*workers=*/4);
  EXPECT_EQ(executor.worker_count(), 4u);
  const std::vector<SkylineResult> results =
      executor.RunBatch(requests);

  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SkylineResult& got = results[i];
    const SkylineResult& want = expected[i];
    ASSERT_TRUE(got.status.ok()) << "request " << i;
    EXPECT_FALSE(got.truncated);
    // Same entries in the same order with bit-identical distance vectors:
    // concurrency must not perturb the deterministic computation.
    ASSERT_EQ(got.skyline.size(), want.skyline.size()) << "request " << i;
    for (std::size_t j = 0; j < got.skyline.size(); ++j) {
      EXPECT_EQ(got.skyline[j].object, want.skyline[j].object);
      EXPECT_EQ(got.skyline[j].vector, want.skyline[j].vector);
    }
    // Cache-independent work counters are identical too; page counts are
    // not compared (they depend on what the shared pool happens to hold).
    EXPECT_EQ(got.stats.counters.settled_nodes,
              want.stats.counters.settled_nodes);
    EXPECT_EQ(got.stats.candidate_count, want.stats.candidate_count);
    EXPECT_EQ(got.stats.skyline_size, want.stats.skyline_size);
  }
}

TEST(QueryExecutorTest, SubmitResolvesFuturesInAnyOrder) {
  auto workload = SharedWorkload();
  QueryExecutor executor(workload->dataset(), /*workers=*/2);

  std::vector<std::future<SkylineResult>> futures;
  for (std::size_t q = 0; q < 4; ++q) {
    QueryRequest request;
    request.algorithm = Algorithm::kCe;
    request.spec = workload->SampleQuery(2, 70 + q);
    futures.push_back(executor.Submit(std::move(request)));
  }
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const SkylineResult result = futures[q].get();
    EXPECT_TRUE(result.status.ok()) << "query " << q;
    EXPECT_FALSE(result.skyline.empty()) << "query " << q;
  }
}

TEST(QueryExecutorTest, ProfilesReconcileExactlyUnderConcurrency) {
  auto workload = SharedWorkload();
  std::vector<QueryRequest> requests = MixedRequests(*workload, 4);
  for (QueryRequest& request : requests) request.collect_profile = true;

  QueryExecutor executor(workload->dataset(), /*workers=*/4);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const SkylineResult& result = results[i];
    ASSERT_TRUE(result.status.ok()) << "request " << i;
    ASSERT_TRUE(result.profile.has_value()) << "request " << i;
    // Per-thread counter attribution: the profile's span totals must equal
    // this query's own stats even while three other workers hammer the
    // same two buffer pools.
    EXPECT_EQ(obs::ReconcileProfile(*result.profile, result.stats), "")
        << "request " << i;
  }
}

TEST(QueryExecutorTest, LimitsBindOnlyTheQueryThatSetThem) {
  auto workload = SharedWorkload();
  const SkylineQuerySpec spec = workload->SampleQuery(3, 90);

  std::vector<QueryRequest> requests;
  for (std::size_t q = 0; q < 8; ++q) {
    QueryRequest request;
    request.algorithm = Algorithm::kCe;
    request.spec = spec;
    // Every other request runs under a budget far below what the query
    // needs; its neighbors must stay unlimited.
    if (q % 2 == 1) request.spec.limits.max_page_accesses = 10;
    requests.push_back(request);
  }

  const SkylineResult reference =
      RunSkylineQuery(Algorithm::kCe, workload->dataset(), spec);
  ASSERT_TRUE(reference.status.ok());
  ASSERT_FALSE(reference.skyline.empty());

  QueryExecutor executor(workload->dataset(), /*workers=*/4);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);

  for (std::size_t q = 0; q < results.size(); ++q) {
    const SkylineResult& result = results[q];
    ASSERT_TRUE(result.status.ok()) << "request " << q;
    if (q % 2 == 1) {
      EXPECT_TRUE(result.truncated) << "request " << q;
      EXPECT_EQ(result.truncation_reason, StatusCode::kResourceExhausted);
    } else {
      EXPECT_FALSE(result.truncated) << "request " << q;
      EXPECT_EQ(testing::SkylineIds(result), testing::SkylineIds(reference));
    }
  }
}

}  // namespace
}  // namespace msq
