// Adversarial randomized end-to-end suite: many small workloads designed
// to hit the corner cases measure-zero arguments sweep away — exact
// distance ties (grid networks), co-located objects, objects at edge
// endpoints (offset 0 / length), query points placed exactly on objects,
// and duplicate locations. Every algorithm must agree with the oracle on
// every instance.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/constrained.h"
#include "core/naive.h"
#include "core/skyband.h"
#include "core/skyline_query.h"
#include "gen/workloads.h"
#include "testing_support.h"

namespace msq {
namespace {

// Builds an adversarial object set: random offsets plus endpoint hits,
// duplicates, and co-located pairs.
std::vector<Location> AdversarialObjects(const RoadNetwork& network,
                                         std::size_t count, Rng& rng) {
  std::vector<Location> objects;
  objects.reserve(count);
  while (objects.size() < count) {
    const EdgeId edge =
        static_cast<EdgeId>(rng.NextBounded(network.edge_count()));
    const Dist length = network.EdgeAt(edge).length;
    switch (rng.NextBounded(6)) {
      case 0:
        objects.push_back(Location{edge, 0.0});  // at endpoint u
        break;
      case 1:
        objects.push_back(Location{edge, length});  // at endpoint v
        break;
      case 2:
        objects.push_back(Location{edge, length * 0.5});  // midpoint (ties)
        break;
      case 3:
        if (!objects.empty()) {
          // Exact duplicate of an earlier object.
          objects.push_back(objects[rng.NextBounded(objects.size())]);
          break;
        }
        [[fallthrough]];
      default:
        objects.push_back(Location{edge, rng.NextDouble() * length});
        break;
    }
  }
  return objects;
}

// Query points: mixture of object positions (distance-zero cases) and
// random locations.
SkylineQuerySpec AdversarialQueries(const RoadNetwork& network,
                                    const std::vector<Location>& objects,
                                    std::size_t count, Rng& rng) {
  SkylineQuerySpec spec;
  while (spec.sources.size() < count) {
    if (!objects.empty() && rng.NextBounded(3) == 0) {
      spec.sources.push_back(objects[rng.NextBounded(objects.size())]);
    } else {
      const EdgeId edge =
          static_cast<EdgeId>(rng.NextBounded(network.edge_count()));
      spec.sources.push_back(
          Location{edge, rng.NextDouble() * network.EdgeAt(edge).length});
    }
  }
  return spec;
}

// Network distances reached through different searches (A* probes against
// the oracle's Dijkstra sweeps) agree up to rounding.
void ExpectNearVector(const DistVector& got, const DistVector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t d = 0; d < got.size(); ++d) {
    EXPECT_NEAR(got[d], want[d], 1e-9) << "dimension " << d;
  }
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, AllAlgorithmsMatchOracleOnAdversarialInstances) {
  Rng rng(GetParam() * 7919 + 13);
  for (int instance = 0; instance < 12; ++instance) {
    // Alternate between tie-heavy grids and random networks.
    RoadNetwork network =
        (instance % 2 == 0)
            ? testing::MakeGridNetwork(3 + rng.NextBounded(4))
            : GenerateNetwork(
                  {.node_count = 20 + rng.NextBounded(60),
                   .edge_count = 25 + rng.NextBounded(90),
                   .seed = rng.Next(),
                   .curvature = rng.NextDouble()});
    const std::size_t object_count = 1 + rng.NextBounded(25);
    auto objects = AdversarialObjects(network, object_count, rng);
    const auto spec =
        AdversarialQueries(network, objects, 1 + rng.NextBounded(4), rng);

    auto workload = testing::MakeWorkload(std::move(network),
                                          std::move(objects));
    const auto expected = testing::SkylineIds(
        RunSkylineQuery(Algorithm::kNaive, workload->dataset(), spec));
    for (const Algorithm algorithm :
         {Algorithm::kCe, Algorithm::kEdc, Algorithm::kEdcIncremental,
          Algorithm::kLbc, Algorithm::kLbcNoPlb}) {
      const auto got = testing::SkylineIds(
          RunSkylineQuery(algorithm, workload->dataset(), spec));
      ASSERT_EQ(got, expected)
          << AlgorithmName(algorithm) << " diverged on instance "
          << instance << " of seed " << GetParam();
    }
    // The alternation extension as well.
    const auto alt = testing::SkylineIds(RunLbc(
        workload->dataset(), spec, LbcOptions{.alternate_sources = true}));
    ASSERT_EQ(alt, expected) << "lbc-alt diverged on instance " << instance;
  }
}

TEST_P(FuzzTest, VariantsConsistentOnAdversarialInstances) {
  Rng rng(GetParam() * 104729 + 7);
  for (int instance = 0; instance < 6; ++instance) {
    RoadNetwork network = GenerateNetwork(
        {.node_count = 30 + rng.NextBounded(50),
         .edge_count = 40 + rng.NextBounded(60),
         .seed = rng.Next()});
    auto objects = AdversarialObjects(network, 1 + rng.NextBounded(20),
                                      rng);
    const auto spec =
        AdversarialQueries(network, objects, 1 + rng.NextBounded(3), rng);
    auto workload = testing::MakeWorkload(std::move(network),
                                          std::move(objects));

    // Skyline == 1-skyband == constrained skyline at infinite radius.
    const auto skyline = testing::SkylineIds(
        RunSkylineQuery(Algorithm::kNaive, workload->dataset(), spec));
    const auto band =
        RunSkybandLbc(workload->dataset(), spec, 1);
    std::vector<ObjectId> band_ids;
    for (const auto& entry : band.entries) band_ids.push_back(entry.object);
    std::sort(band_ids.begin(), band_ids.end());
    ASSERT_EQ(band_ids, skyline) << "skyband k=1 diverged";

    const auto constrained = testing::SkylineIds(
        RunConstrainedSkylineLbc(workload->dataset(), spec, 1e9));
    ASSERT_EQ(constrained, skyline) << "constrained r=inf diverged";

    // At a finite radius, the median over reachable objects of their
    // farthest query point, the constrained skyline matches its oracle
    // entry by entry.
    std::vector<Dist> reach;
    for (const DistVector& v :
         ComputeAllNetworkVectors(workload->dataset(), spec)) {
      if (AllFinite(v)) reach.push_back(*std::max_element(v.begin(), v.end()));
    }
    std::sort(reach.begin(), reach.end());
    const Dist radius = reach.empty() ? 0.0 : reach[reach.size() / 2];
    auto by_object = [](std::vector<SkylineEntry> entries) {
      std::sort(entries.begin(), entries.end(),
                [](const SkylineEntry& a, const SkylineEntry& b) {
                  return a.object < b.object;
                });
      return entries;
    };
    const auto lbc_range = by_object(
        RunConstrainedSkylineLbc(workload->dataset(), spec, radius).skyline);
    const auto naive_range = by_object(
        RunConstrainedSkylineNaive(workload->dataset(), spec, radius)
            .skyline);
    ASSERT_EQ(lbc_range.size(), naive_range.size())
        << "constrained r=" << radius << " diverged";
    for (std::size_t i = 0; i < lbc_range.size(); ++i) {
      ASSERT_EQ(lbc_range[i].object, naive_range[i].object)
          << "constrained r=" << radius << " diverged";
      ExpectNearVector(lbc_range[i].vector, naive_range[i].vector);
    }

    // The 2-skyband: the same entries, dominator counts and distances.
    const auto lbc_band = RunSkybandLbc(workload->dataset(), spec, 2);
    const auto naive_band = RunSkybandNaive(workload->dataset(), spec, 2);
    ASSERT_EQ(lbc_band.entries.size(), naive_band.entries.size())
        << "skyband k=2 diverged";
    for (std::size_t i = 0; i < lbc_band.entries.size(); ++i) {
      ASSERT_EQ(lbc_band.entries[i].object, naive_band.entries[i].object)
          << "skyband k=2 diverged";
      ASSERT_EQ(lbc_band.entries[i].dominator_count,
                naive_band.entries[i].dominator_count)
          << "skyband k=2 diverged";
      ExpectNearVector(lbc_band.entries[i].vector,
                       naive_band.entries[i].vector);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace msq
