// Determinism and cross-module integration checks: identical
// configurations must produce bit-identical workloads and results (the
// reproducibility contract behind every benchmark number), and the
// simplification/landmark extensions must compose with the query stack.
#include <gtest/gtest.h>

#include "core/skyline_query.h"
#include "gen/workloads.h"
#include "graph/simplify.h"
#include "testing_support.h"

namespace msq {
namespace {

TEST(DeterminismTest, WorkloadsIdenticalForSameConfig) {
  WorkloadConfig config;
  config.network = NetworkGenConfig{300, 400, 77, 0.3, 1.5};
  config.object_density = 0.5;
  config.static_attr_dims = 2;
  Workload a(config);
  Workload b(config);

  ASSERT_EQ(a.objects().size(), b.objects().size());
  for (std::size_t i = 0; i < a.objects().size(); ++i) {
    EXPECT_EQ(a.objects()[i].edge, b.objects()[i].edge);
    EXPECT_DOUBLE_EQ(a.objects()[i].offset, b.objects()[i].offset);
  }
  ASSERT_EQ(a.static_attributes().size(), b.static_attributes().size());
  for (std::size_t i = 0; i < a.static_attributes().size(); ++i) {
    EXPECT_EQ(a.static_attributes()[i], b.static_attributes()[i]);
  }
}

TEST(DeterminismTest, QuerySamplingDeterministic) {
  WorkloadConfig config;
  config.network = NetworkGenConfig{300, 400, 79, 0.0};
  Workload workload(config);
  const auto s1 = workload.SampleQuery(5, 42);
  const auto s2 = workload.SampleQuery(5, 42);
  const auto s3 = workload.SampleQuery(5, 43);
  ASSERT_EQ(s1.sources.size(), s2.sources.size());
  for (std::size_t i = 0; i < s1.sources.size(); ++i) {
    EXPECT_EQ(s1.sources[i], s2.sources[i]);
  }
  // Different seeds diverge (with overwhelming probability).
  bool differs = false;
  for (std::size_t i = 0; i < s1.sources.size(); ++i) {
    if (!(s1.sources[i] == s3.sources[i])) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(DeterminismTest, AlgorithmResultsStableAcrossRuns) {
  auto workload = testing::MakeRandomWorkload(300, 420, 0.5, 83);
  const auto spec = workload->SampleQuery(4, 9);
  for (const Algorithm algorithm :
       {Algorithm::kCe, Algorithm::kEdc, Algorithm::kLbc}) {
    const auto r1 =
        RunSkylineQuery(algorithm, workload->dataset(), spec);
    const auto r2 =
        RunSkylineQuery(algorithm, workload->dataset(), spec);
    EXPECT_EQ(testing::SkylineIds(r1), testing::SkylineIds(r2))
        << AlgorithmName(algorithm);
    // Deterministic candidate counts too.
    EXPECT_EQ(r1.stats.candidate_count, r2.stats.candidate_count)
        << AlgorithmName(algorithm);
  }
}

TEST(DeterminismTest, BufferStateDoesNotAffectResults) {
  // Warm vs cold caches change I/O counters, never answers.
  auto workload = testing::MakeRandomWorkload(300, 420, 0.5, 89);
  const auto spec = workload->SampleQuery(3, 3);
  workload->ResetBuffers();
  const auto cold =
      RunSkylineQuery(Algorithm::kLbc, workload->dataset(), spec);
  const auto warm =
      RunSkylineQuery(Algorithm::kLbc, workload->dataset(), spec);
  EXPECT_EQ(testing::SkylineIds(cold), testing::SkylineIds(warm));
}

TEST(SimplifyIntegrationTest, QueriesOnSimplifiedNetworkAgree) {
  // Simplify a polyline-heavy network, re-snap the objects and query
  // points onto the contracted graph via surviving junctions, and verify
  // node-to-node skylines agree between the two representations when the
  // objects sit exactly on junctions.
  const RoadNetwork original = GenerateNetwork({.node_count = 500,
                                                .edge_count = 580,
                                                .seed = 97,
                                                .curvature = 0.0,
                                                .junction_edge_ratio = 1.7});
  const auto simplified = SimplifyDegree2Chains(original);

  // Choose object/query positions at surviving junctions; express each as
  // an offset-0 location on an incident edge in each network.
  auto junction_location = [](const RoadNetwork& network, NodeId node) {
    for (EdgeId e = 0; e < network.edge_count(); ++e) {
      const auto& edge = network.EdgeAt(e);
      if (edge.u == node) return Location{e, 0.0};
      if (edge.v == node) return Location{e, edge.length};
    }
    ADD_FAILURE() << "isolated node";
    return Location{0, 0.0};
  };

  std::vector<NodeId> junctions;
  for (NodeId v = 0; v < original.node_count() && junctions.size() < 14;
       ++v) {
    if (simplified.node_map[v] != kInvalidNode) junctions.push_back(v);
  }
  ASSERT_GE(junctions.size(), 14u);

  std::vector<Location> objects_orig, objects_simp;
  for (std::size_t i = 0; i < 10; ++i) {
    objects_orig.push_back(junction_location(original, junctions[i]));
    objects_simp.push_back(junction_location(
        simplified.network, simplified.node_map[junctions[i]]));
  }
  SkylineQuerySpec spec_orig, spec_simp;
  for (std::size_t i = 10; i < 13; ++i) {
    spec_orig.sources.push_back(junction_location(original, junctions[i]));
    spec_simp.sources.push_back(junction_location(
        simplified.network, simplified.node_map[junctions[i]]));
  }

  WorkloadConfig config;
  RoadNetwork original_copy = original;  // Workload takes ownership
  Workload workload_orig(config, std::move(original_copy), objects_orig);
  RoadNetwork simplified_copy = simplified.network;
  Workload workload_simp(config, std::move(simplified_copy), objects_simp);

  const auto sky_orig = testing::SkylineIds(RunSkylineQuery(
      Algorithm::kNaive, workload_orig.dataset(), spec_orig));
  const auto sky_simp = testing::SkylineIds(RunSkylineQuery(
      Algorithm::kNaive, workload_simp.dataset(), spec_simp));
  EXPECT_EQ(sky_orig, sky_simp);

  // The LBC answer agrees on both representations too.
  const auto lbc_simp = testing::SkylineIds(RunSkylineQuery(
      Algorithm::kLbc, workload_simp.dataset(), spec_simp));
  EXPECT_EQ(lbc_simp, sky_simp);
}

TEST(SimplifyIntegrationTest, SimplifiedNetworkCostsLess) {
  const RoadNetwork original = GenerateNetwork({.node_count = 3000,
                                                .edge_count = 3500,
                                                .seed = 101,
                                                .curvature = 0.0,
                                                .junction_edge_ratio = 1.7});
  auto simplified = SimplifyDegree2Chains(original);

  WorkloadConfig config;
  config.object_density = 0.5;
  RoadNetwork original_copy = original;
  Workload workload_orig(config, std::move(original_copy));
  Workload workload_simp(config, std::move(simplified.network));

  const auto spec_orig = workload_orig.SampleQuery(3, 1);
  const auto spec_simp = workload_simp.SampleQuery(3, 1);
  workload_orig.ResetBuffers();
  const auto r_orig = RunSkylineQuery(Algorithm::kLbc,
                                      workload_orig.dataset(), spec_orig);
  workload_simp.ResetBuffers();
  const auto r_simp = RunSkylineQuery(Algorithm::kLbc,
                                      workload_simp.dataset(), spec_simp);
  // Fewer nodes to settle on the contracted topology (different object
  // sets, so compare the infrastructure cost only).
  EXPECT_LT(r_simp.stats.counters.settled_nodes,
            r_orig.stats.counters.settled_nodes);
}

}  // namespace
}  // namespace msq
