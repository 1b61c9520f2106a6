// CLI workbench: load a road network from an edge-list file (or generate
// one), scatter objects, and run any of the skyline algorithms with
// configurable |Q| and object density. This is the drop-in path for real
// datasets (e.g. DCW extracts converted to the edge-list format described
// in README.md).
//
//   $ ./build/examples/network_explorer --algo lbc --queries 4 --density 0.5
//   $ ./build/examples/network_explorer --file mynetwork.txt --algo ce
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/skyline_query.h"
#include "gen/dataset_io.h"
#include "gen/workloads.h"

namespace {

void Usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --file PATH      load network from edge-list file (default:\n"
      "                   generate a synthetic one)\n"
      "  --nodes N        synthetic network node count (default 3000)\n"
      "  --edges M        synthetic network edge count (default 3900)\n"
      "  --algo NAME      naive | ce | edc | edc-inc | lbc | lbc-noplb\n"
      "                   (default lbc)\n"
      "  --queries N      number of query points (default 4)\n"
      "  --density W      object density |D|/|E| (default 0.5)\n"
      "  --seed S         workload seed (default 1)\n"
      "  --attrs K        static attribute dimensions (default 0)\n"
      "  --objects PATH   load object locations from file (see\n"
      "                   gen/dataset_io.h for the format)\n"
      "  --attr-file PATH load static attributes from file\n"
      "  --landmarks L    build an ALT index with L landmarks (default 0)\n"
      "  --alternate      rotate LBC's discovery source across all query\n"
      "                   points (LBC only)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msq;

  std::string file, objects_file, attrs_file;
  std::size_t nodes = 3000, edges = 3900, queries = 4, attrs = 0;
  std::size_t landmarks = 0;
  bool alternate = false;
  double density = 0.5;
  std::uint64_t seed = 1;
  Algorithm algorithm = Algorithm::kLbc;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--file") == 0) {
      file = need_value("--file");
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes = std::strtoull(need_value("--nodes"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--edges") == 0) {
      edges = std::strtoull(need_value("--edges"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--algo") == 0) {
      const char* name = need_value("--algo");
      if (!ParseAlgorithm(name, &algorithm)) {
        std::fprintf(stderr, "unknown algorithm '%s' (valid: %s)\n", name,
                     AlgorithmNames().c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      queries = std::strtoull(need_value("--queries"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--density") == 0) {
      density = std::atof(need_value("--density"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(need_value("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--attrs") == 0) {
      attrs = std::strtoull(need_value("--attrs"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--objects") == 0) {
      objects_file = need_value("--objects");
    } else if (std::strcmp(argv[i], "--attr-file") == 0) {
      attrs_file = need_value("--attr-file");
    } else if (std::strcmp(argv[i], "--landmarks") == 0) {
      landmarks = std::strtoull(need_value("--landmarks"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--alternate") == 0) {
      alternate = true;
    } else {
      Usage(argv[0]);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }

  WorkloadConfig config;
  config.network = NetworkGenConfig{nodes, edges, seed, 0.0};
  config.object_density = density;
  config.static_attr_dims = attrs;
  config.object_seed = seed * 1001;
  config.landmark_count = landmarks;

  std::unique_ptr<Workload> workload;
  if (!file.empty()) {
    std::string error;
    auto network = RoadNetwork::LoadFromEdgeListFile(file, &error);
    if (!network.has_value()) {
      std::fprintf(stderr, "failed to load network: %s\n", error.c_str());
      return 1;
    }
    if (network->clamped_edge_count() > 0) {
      std::fprintf(stderr,
                   "note: %zu edge lengths were below the endpoint "
                   "Euclidean distance and were clamped up\n",
                   network->clamped_edge_count());
    }
    if (!objects_file.empty()) {
      auto loaded_objects = LoadLocations(objects_file, *network, &error);
      if (!loaded_objects.has_value()) {
        std::fprintf(stderr, "failed to load objects: %s\n", error.c_str());
        return 1;
      }
      std::vector<DistVector> loaded_attrs;
      if (!attrs_file.empty()) {
        auto parsed = LoadAttributes(attrs_file, &error);
        if (!parsed.has_value() ||
            parsed->size() != loaded_objects->size()) {
          std::fprintf(stderr, "failed to load attributes: %s\n",
                       error.c_str());
          return 1;
        }
        loaded_attrs = std::move(*parsed);
      }
      workload = std::make_unique<Workload>(config, std::move(*network),
                                            std::move(*loaded_objects),
                                            std::move(loaded_attrs));
    } else {
      workload = std::make_unique<Workload>(config, std::move(*network));
    }
  } else {
    workload = std::make_unique<Workload>(config);
  }

  const auto spec = workload->SampleQuery(queries, seed + 17);
  std::printf("network: %zu nodes, %zu edges; objects: %zu; |Q|=%zu; "
              "algorithm: %s\n\n",
              workload->network().node_count(),
              workload->network().edge_count(),
              workload->objects().size(), spec.sources.size(),
              std::string(AlgorithmName(algorithm)).c_str());

  SkylineResult result;
  if (alternate && algorithm == Algorithm::kLbc) {
    result = RunLbc(workload->dataset(), spec,
                    LbcOptions{.alternate_sources = true});
  } else {
    result = RunSkylineQuery(algorithm, workload->dataset(), spec);
  }

  std::printf("skyline (%zu points):\n", result.skyline.size());
  for (const SkylineEntry& entry : result.skyline) {
    std::printf("  object %-6u [", entry.object);
    for (std::size_t d = 0; d < entry.vector.size(); ++d) {
      std::printf("%s%.4f", d ? ", " : "", entry.vector[d]);
    }
    std::printf("]\n");
  }
  std::printf("\ncandidates:      %zu\n", result.stats.candidate_count);
  std::printf("network pages:   %llu\n",
              static_cast<unsigned long long>(result.stats.network_pages));
  std::printf("index pages:     %llu\n",
              static_cast<unsigned long long>(result.stats.index_pages));
  std::printf("settled nodes:   %zu\n", result.stats.counters.settled_nodes);
  std::printf("total time:      %.2f ms\n",
              result.stats.total_seconds * 1000.0);
  std::printf("initial result:  %.2f ms\n",
              result.stats.initial_seconds * 1000.0);
  return 0;
}
