// Pins the exact per-query work of CE, EDC and LBC on a small fixed NA
// instance: every counter-table row, the four page fields of QueryStats,
// the candidate and skyline sizes, and a digest of the skyline (object ids
// and the bit patterns of every distance). A change to the search
// internals that is meant to be work-preserving (a different heap
// discipline, a skipped lookup that cannot find anything) must leave these
// values alone except where the comment on a row says otherwise; a change
// that moves a value must re-pin it here with a reason.
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/skyline_query.h"
#include "gen/workloads.h"

namespace msq {
namespace {

// FNV-1a over the skyline's ids and distance bit patterns, in result order.
std::uint64_t SkylineDigest(const SkylineResult& result) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const SkylineEntry& entry : result.skyline) {
    mix(entry.object);
    for (const double value : entry.vector) {
      mix(std::bit_cast<std::uint64_t>(value));
    }
  }
  return hash;
}

// One line per run: every field this test pins, by name.
std::string WorkLine(const SkylineResult& result) {
  const QueryStats& stats = result.stats;
  std::ostringstream line;
  line << "candidates=" << stats.candidate_count
       << " skyline=" << stats.skyline_size
       << " network_pages=" << stats.network_pages
       << " network_page_accesses=" << stats.network_page_accesses
       << " index_pages=" << stats.index_pages
       << " index_page_accesses=" << stats.index_page_accesses;
  for (const obs::CounterRow& row : obs::kCounterRows) {
    line << " " << row.field << "=" << stats.counters.*row.member;
  }
  line << " digest=" << std::hex << SkylineDigest(result);
  return line.str();
}

struct Pin {
  Algorithm algorithm;
  std::uint64_t qset_seed;
  const char* work;
};

// Captured with a cold pool before each query (NA x0.05, network seed 1,
// default object density and seed, 16 adjacency frames so the network
// store evicts, default index frames; query sets SampleQuery(4, 1000+i)).
// CE's index_hits and index_page_accesses fell when NetworkNnStream began
// skipping the middle-layer lookup of edges that carry no object; its
// index misses and every other value stayed the same. They fell again,
// with CE's network_hits and network_page_accesses and EDC's index_hits
// and index_page_accesses, when each record became read once per query:
// the NN stream probes from the adjacency its wavefront decoded, CE's
// streams share one memo of middle-layer lookups, and EDC bounds each
// R-tree node once. Every miss, settle, dominance count and digest stayed.
// dominance_tests fell and dominance_avoided rose when every dominator
// search began testing only the rows of its shortest sorted-column prefix
// and counting every other row as avoided (DESIGN.md §19); every other
// value stayed.
constexpr Pin kPins[] = {
    {Algorithm::kCe, 1000,
     "candidates=354 skyline=76 network_pages=358 "
     "network_page_accesses=4133 index_pages=22 "
     "index_page_accesses=1613 network_hits=3775 "
     "network_misses=358 index_hits=1591 index_misses=22 "
     "settled_nodes=4133 dominance_tests=1082 "
     "dominance_avoided=7468 bound_pruned=917 bound_examined=76 "
     "bound_samples=0 bound_pct_sum=0 cache_wavefront_hits=0 "
     "cache_wavefront_misses=0 cache_memo_hits=0 "
     "cache_memo_misses=0 digest=6e68a22a45be1782"},
    {Algorithm::kEdc, 1000,
     "candidates=211 skyline=76 network_pages=9 "
     "network_page_accesses=1180 index_pages=8 "
     "index_page_accesses=14 network_hits=1171 network_misses=9 "
     "index_hits=6 index_misses=8 settled_nodes=1180 "
     "dominance_tests=22978 dominance_avoided=107137 "
     "bound_pruned=2365 bound_examined=211 bound_samples=844 "
     "bound_pct_sum=68613 cache_wavefront_hits=0 "
     "cache_wavefront_misses=0 cache_memo_hits=0 "
     "cache_memo_misses=0 digest=9d808503e0d74b86"},
    {Algorithm::kLbc, 1000,
     "candidates=211 skyline=76 network_pages=9 "
     "network_page_accesses=980 index_pages=8 "
     "index_page_accesses=8 network_hits=971 network_misses=9 "
     "index_hits=0 index_misses=8 settled_nodes=980 "
     "dominance_tests=2161 dominance_avoided=47851 "
     "bound_pruned=120 bound_examined=91 bound_samples=407 "
     "bound_pct_sum=33075 cache_wavefront_hits=0 "
     "cache_wavefront_misses=0 cache_memo_hits=0 "
     "cache_memo_misses=0 digest=eb757a4d591cdb96"},
    {Algorithm::kCe, 1001,
     "candidates=831 skyline=168 network_pages=1134 "
     "network_page_accesses=7354 index_pages=22 "
     "index_page_accesses=2346 network_hits=6220 "
     "network_misses=1134 index_hits=2324 index_misses=22 "
     "settled_nodes=7354 dominance_tests=4159 "
     "dominance_avoided=37925 bound_pruned=1285 bound_examined=168 "
     "bound_samples=0 bound_pct_sum=0 cache_wavefront_hits=0 "
     "cache_wavefront_misses=0 cache_memo_hits=0 "
     "cache_memo_misses=0 digest=a94aae2d85dd1fab"},
    {Algorithm::kEdc, 1001,
     "candidates=555 skyline=168 network_pages=18 "
     "network_page_accesses=3834 index_pages=10 "
     "index_page_accesses=18 network_hits=3816 "
     "network_misses=18 index_hits=8 index_misses=10 "
     "settled_nodes=3834 dominance_tests=125339 "
     "dominance_avoided=307812 bound_pruned=2021 "
     "bound_examined=555 bound_samples=2220 bound_pct_sum=168713 "
     "cache_wavefront_hits=0 cache_wavefront_misses=0 "
     "cache_memo_hits=0 cache_memo_misses=0 "
     "digest=ba300f0d93cf1f2f"},
    {Algorithm::kLbc, 1001,
     "candidates=555 skyline=168 network_pages=15 "
     "network_page_accesses=2959 index_pages=10 "
     "index_page_accesses=10 network_hits=2944 network_misses=15 "
     "index_hits=0 index_misses=10 settled_nodes=2959 "
     "dominance_tests=5892 dominance_avoided=118082 "
     "bound_pruned=326 bound_examined=229 bound_samples=1062 "
     "bound_pct_sum=80314 cache_wavefront_hits=0 "
     "cache_wavefront_misses=0 cache_memo_hits=0 "
     "cache_memo_misses=0 digest=28a57b4e51eb2c3f"},
    {Algorithm::kCe, 1002,
     "candidates=426 skyline=74 network_pages=119 "
     "network_page_accesses=3159 index_pages=22 "
     "index_page_accesses=1380 network_hits=3040 "
     "network_misses=119 index_hits=1358 index_misses=22 "
     "settled_nodes=3159 dominance_tests=846 "
     "dominance_avoided=7257 bound_pruned=770 bound_examined=74 "
     "bound_samples=0 bound_pct_sum=0 cache_wavefront_hits=0 "
     "cache_wavefront_misses=0 cache_memo_hits=0 "
     "cache_memo_misses=0 digest=4ac598d050d286b7"},
    {Algorithm::kEdc, 1002,
     "candidates=223 skyline=74 network_pages=14 "
     "network_page_accesses=1532 index_pages=9 "
     "index_page_accesses=16 network_hits=1518 "
     "network_misses=14 index_hits=7 index_misses=9 "
     "settled_nodes=1532 dominance_tests=24463 "
     "dominance_avoided=122348 bound_pruned=2353 "
     "bound_examined=223 bound_samples=892 bound_pct_sum=68624 "
     "cache_wavefront_hits=0 cache_wavefront_misses=0 "
     "cache_memo_hits=0 cache_memo_misses=0 "
     "digest=3459013e9201431f"},
    {Algorithm::kLbc, 1002,
     "candidates=204 skyline=74 network_pages=12 "
     "network_page_accesses=991 index_pages=9 "
     "index_page_accesses=9 network_hits=979 network_misses=12 "
     "index_hits=0 index_misses=9 settled_nodes=991 "
     "dominance_tests=1928 dominance_avoided=37940 "
     "bound_pruned=115 bound_examined=89 bound_samples=334 "
     "bound_pct_sum=26891 cache_wavefront_hits=0 "
     "cache_wavefront_misses=0 cache_memo_hits=0 "
     "cache_memo_misses=0 digest=551c9f38086698f7"},
    {Algorithm::kCe, 1003,
     "candidates=418 skyline=130 network_pages=189 "
     "network_page_accesses=3431 index_pages=22 "
     "index_page_accesses=1528 network_hits=3242 "
     "network_misses=189 index_hits=1506 index_misses=22 "
     "settled_nodes=3431 dominance_tests=2718 "
     "dominance_avoided=22437 bound_pruned=822 bound_examined=130 "
     "bound_samples=0 bound_pct_sum=0 cache_wavefront_hits=0 "
     "cache_wavefront_misses=0 cache_memo_hits=0 "
     "cache_memo_misses=0 digest=569ad8ede70caa60"},
    {Algorithm::kEdc, 1003,
     "candidates=238 skyline=130 network_pages=9 "
     "network_page_accesses=1539 index_pages=8 "
     "index_page_accesses=15 network_hits=1530 network_misses=9 "
     "index_hits=7 index_misses=8 settled_nodes=1539 "
     "dominance_tests=51360 dominance_avoided=187473 "
     "bound_pruned=2338 bound_examined=238 bound_samples=952 "
     "bound_pct_sum=77458 cache_wavefront_hits=0 "
     "cache_wavefront_misses=0 cache_memo_hits=0 "
     "cache_memo_misses=0 digest=ea3ec7612bd5cc04"},
    {Algorithm::kLbc, 1003,
     "candidates=238 skyline=130 network_pages=9 "
     "network_page_accesses=1232 index_pages=8 "
     "index_page_accesses=8 network_hits=1223 network_misses=9 "
     "index_hits=0 index_misses=8 settled_nodes=1232 "
     "dominance_tests=3168 dominance_avoided=72309 "
     "bound_pruned=83 bound_examined=155 bound_samples=543 "
     "bound_pct_sum=44217 cache_wavefront_hits=0 "
     "cache_wavefront_misses=0 cache_memo_hits=0 "
     "cache_memo_misses=0 digest=ba84ee00f6d0ea1c"},
};

TEST(ProbeWorkPinTest, CountersPagesAndSkylinesArePinned) {
  WorkloadConfig config;
  config.network = PaperNetworkConfig(NetworkClass::kNA, 0.05, 1);
  config.graph_buffer_frames = 16;
  Workload workload(config);

  for (const Pin& pin : kPins) {
    const SkylineQuerySpec spec = workload.SampleQuery(4, pin.qset_seed);
    workload.ResetBuffers();
    const SkylineResult result =
        RunSkylineQuery(pin.algorithm, workload.dataset(), spec);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(WorkLine(result), pin.work)
        << AlgorithmName(pin.algorithm) << " qset " << pin.qset_seed;
    // Read once, independent of the pinned values: every settle of a
    // sequential, cache-less run decodes one adjacency list and nothing
    // else reads one.
    EXPECT_EQ(result.stats.network_page_accesses,
              result.stats.counters.settled_nodes)
        << AlgorithmName(pin.algorithm) << " qset " << pin.qset_seed;
  }
}

}  // namespace
}  // namespace msq
