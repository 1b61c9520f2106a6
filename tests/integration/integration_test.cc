// End-to-end scenarios across the full stack: generated network, paged
// storage, indexes, middle layer, all algorithms, metrics.
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/skyline_query.h"
#include "gen/workloads.h"
#include "testing_support.h"

namespace msq {
namespace {

TEST(IntegrationTest, ScaledCaWorkloadAllAlgorithmsAgree) {
  WorkloadConfig config;
  config.network = PaperNetworkConfig(NetworkClass::kCA, /*scale=*/0.2, 5);
  config.object_density = 0.5;
  Workload workload(config);
  const auto spec = workload.SampleQuery(4, 3);

  const auto expected = testing::SkylineIds(
      RunSkylineQuery(Algorithm::kNaive, workload.dataset(), spec));
  for (const Algorithm algorithm :
       {Algorithm::kCe, Algorithm::kEdc, Algorithm::kLbc}) {
    workload.ResetBuffers();
    const auto got = testing::SkylineIds(
        RunSkylineQuery(algorithm, workload.dataset(), spec));
    EXPECT_EQ(got, expected) << AlgorithmName(algorithm);
  }
}

TEST(IntegrationTest, MetricsDifferAcrossAlgorithms) {
  WorkloadConfig config;
  config.network = NetworkGenConfig{1500, 2000, 8, 0.0};
  config.object_density = 0.5;
  Workload workload(config);
  const auto spec = workload.SampleQuery(4, 4);

  workload.ResetBuffers();
  const auto ce = RunSkylineQuery(Algorithm::kCe, workload.dataset(), spec);
  workload.ResetBuffers();
  const auto lbc =
      RunSkylineQuery(Algorithm::kLbc, workload.dataset(), spec);

  // LBC's headline property: far less network access than CE.
  EXPECT_LT(lbc.stats.counters.settled_nodes, ce.stats.counters.settled_nodes);
  EXPECT_LE(lbc.stats.network_pages, ce.stats.network_pages);
}

TEST(IntegrationTest, QueriesRunBackToBackOnOneWorkload) {
  WorkloadConfig config;
  config.network = NetworkGenConfig{400, 560, 10, 0.0};
  Workload workload(config);
  std::vector<ObjectId> last;
  for (std::uint64_t q = 0; q < 5; ++q) {
    const auto spec = workload.SampleQuery(3, q);
    const auto naive =
        RunSkylineQuery(Algorithm::kNaive, workload.dataset(), spec);
    const auto lbc =
        RunSkylineQuery(Algorithm::kLbc, workload.dataset(), spec);
    EXPECT_EQ(testing::SkylineIds(lbc), testing::SkylineIds(naive))
        << "query " << q;
  }
}

TEST(IntegrationTest, WarmBufferReducesMisses) {
  WorkloadConfig config;
  config.network = NetworkGenConfig{800, 1100, 12, 0.0};
  Workload workload(config);
  const auto spec = workload.SampleQuery(3, 1);

  workload.ResetBuffers();
  const auto cold = RunSkylineQuery(Algorithm::kLbc, workload.dataset(),
                                    spec);
  // No reset: second run reuses pooled pages.
  const auto warm = RunSkylineQuery(Algorithm::kLbc, workload.dataset(),
                                    spec);
  EXPECT_LE(warm.stats.network_pages, cold.stats.network_pages);
}

TEST(IntegrationTest, FileBackedNetworkRoundTrip) {
  // Save a generated network, reload it, and run a query on the reloaded
  // copy — the external-data path a DCW user would take.
  const RoadNetwork original = GenerateNetwork({.node_count = 300,
                                                .edge_count = 420,
                                                .seed = 31});
  const std::string path = ::testing::TempDir() + "/msq_integration.txt";
  ASSERT_TRUE(original.SaveToEdgeListFile(path));
  std::string error;
  auto loaded = RoadNetwork::LoadFromEdgeListFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  WorkloadConfig config;
  config.object_density = 0.5;
  Workload workload(config, std::move(*loaded));
  const auto spec = workload.SampleQuery(3, 2);
  const auto naive =
      RunSkylineQuery(Algorithm::kNaive, workload.dataset(), spec);
  const auto lbc =
      RunSkylineQuery(Algorithm::kLbc, workload.dataset(), spec);
  EXPECT_EQ(testing::SkylineIds(lbc), testing::SkylineIds(naive));
  std::remove(path.c_str());
}

TEST(IntegrationTest, SmallBufferStillCorrect) {
  // Thrashing-small buffer pools change I/O counts, never results.
  WorkloadConfig config;
  config.network = NetworkGenConfig{500, 700, 17, 0.0};
  config.graph_buffer_frames = 2;
  config.index_buffer_frames = 8;
  Workload workload(config);
  const auto spec = workload.SampleQuery(3, 3);
  const auto naive =
      RunSkylineQuery(Algorithm::kNaive, workload.dataset(), spec);
  for (const Algorithm algorithm :
       {Algorithm::kCe, Algorithm::kEdc, Algorithm::kLbc}) {
    const auto got =
        RunSkylineQuery(algorithm, workload.dataset(), spec);
    EXPECT_EQ(testing::SkylineIds(got), testing::SkylineIds(naive))
        << AlgorithmName(algorithm);
  }
}

TEST(IntegrationTest, AlgorithmNamesRoundTrip) {
  for (const Algorithm a :
       {Algorithm::kNaive, Algorithm::kCe, Algorithm::kEdc,
        Algorithm::kEdcIncremental, Algorithm::kLbc,
        Algorithm::kLbcNoPlb}) {
    Algorithm parsed;
    ASSERT_TRUE(ParseAlgorithm(AlgorithmName(a), &parsed));
    EXPECT_EQ(parsed, a);
  }
  Algorithm parsed;
  EXPECT_FALSE(ParseAlgorithm("nonsense", &parsed));
}

}  // namespace
}  // namespace msq
