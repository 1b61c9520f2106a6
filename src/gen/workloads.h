// Workload assembly: builds and owns a full experiment stack — network,
// paged storage, indexes, middle layer, objects, attributes — and hands
// out the non-owning Dataset view the algorithms run against. Includes the
// CA/AU/NA presets of Section 6.1.
#ifndef MSQ_GEN_WORKLOADS_H_
#define MSQ_GEN_WORKLOADS_H_

#include <memory>
#include <optional>
#include <string>

#include "core/query.h"
#include "gen/network_gen.h"
#include "graph/graph_pager.h"
#include "graph/landmarks.h"
#include "gen/object_gen.h"
#include "gen/query_gen.h"
#include "index/rtree.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"

namespace msq {

// The paper's three real networks, by density class, plus kCNT — a
// synthetic "continental" tier at 5x the NA counts (so the default
// continental benchmark point, scale=2.0, is a 10x-NA network) used to
// prove the storage layout holds beyond the paper's sizes.
enum class NetworkClass { kCA, kAU, kNA, kCNT };

// Name used in benchmark tables ("CA", "AU", "NA", "CNT").
std::string NetworkClassName(NetworkClass cls);

// Node/edge counts of the paper's dataset for `cls`, scaled by `scale`
// (scale=1.0 reproduces the published sizes: CA 3,044/3,607;
// AU 23,269/30,289; NA 86,318/103,042; CNT is synthetic at
// 431,590/515,210).
NetworkGenConfig PaperNetworkConfig(NetworkClass cls, double scale = 1.0,
                                    std::uint64_t seed = 1);

// The 10x-NA continental preset (kCNT at scale=2.0): 863,180 nodes /
// 1,030,420 edges of straight, well-connected roads.
NetworkGenConfig ContinentalNetworkConfig(std::uint64_t seed = 1);

// How the adjacency pages of the workload's graph are laid out.
//  kSeed       — insertion-order ids, Morton-sorted row pages (the
//                original format; the oracle every other layout must match)
//  kHilbert    — node ids relabeled in Hilbert-curve order at build time,
//                row pages packed in id order
//  kHilbertCsr — Hilbert relabel + CSR-compressed adjacency pages
// Relabeling only renumbers nodes: edge ids, orientation, and lengths are
// untouched, so objects and queries (edge-keyed Locations) and all results
// are identical across layouts.
enum class GraphLayout { kSeed, kHilbert, kHilbertCsr };

// Name used in benchmark tables ("seed", "hilbert", "hilbert_csr").
std::string GraphLayoutName(GraphLayout layout);

// Pager options realizing `layout`.
GraphPagerOptions PagerOptionsFor(GraphLayout layout);

struct WorkloadConfig {
  NetworkGenConfig network;
  // Storage layout for the adjacency pages (and the node numbering).
  GraphLayout graph_layout = GraphLayout::kSeed;
  // ω = |D|/|E| (the paper sweeps {5%, 20%, 50%, 100%, 200%}).
  double object_density = 0.5;
  // Number of static attribute dimensions appended to distance vectors.
  std::size_t static_attr_dims = 0;
  std::uint64_t object_seed = 7;
  // Build an ALT landmark index with this many landmarks (0 = none; the
  // paper's algorithm class uses no precomputed distances).
  std::size_t landmark_count = 0;
  // When non-empty, back the page stores with files in this directory
  // ("<dir>/graph.pages", "<dir>/index.pages") instead of memory — the
  // configuration for datasets larger than RAM and for persistence tests.
  // The directory must exist; existing page files are truncated.
  std::string storage_dir;
  std::size_t graph_buffer_frames = kDefaultBufferFrames;
  std::size_t index_buffer_frames = kDefaultBufferFrames;
  // When set, both page stores are wrapped in seeded
  // FaultInjectingDiskManager decorators (the index store derives its seed
  // from the configured one). Decorators start disarmed, so the stack build
  // stays fault-free; arm them through graph_faults()/index_faults().
  std::optional<FaultInjectionConfig> fault_injection;
  // Retry policy handed to both buffer managers.
  RetryPolicy retry;
};

// Owns every structure a Dataset points into.
class Workload {
 public:
  // Builds the full stack (generates the network unless `network` is
  // supplied pre-built).
  explicit Workload(const WorkloadConfig& config);
  Workload(const WorkloadConfig& config, RoadNetwork network);
  // Fully handcrafted stack: explicit object locations (and optionally
  // explicit static attributes, overriding config.static_attr_dims). Used
  // by the worked-example tests.
  Workload(const WorkloadConfig& config, RoadNetwork network,
           std::vector<Location> objects,
           std::vector<DistVector> attrs = {});

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Non-owning view for the algorithms. Valid while the workload lives.
  Dataset dataset();

  // Samples a query spec: `count` query points inside a `region_fraction`
  // window (paper default 10%).
  SkylineQuerySpec SampleQuery(std::size_t count, std::uint64_t seed,
                               double region_fraction = 0.1) const;

  // Cold-cache reset: drops buffered pages and zeroes buffer statistics.
  // Benchmarks call this before each measured run.
  void ResetBuffers();

  // --- dynamic world ----------------------------------------------------
  //
  // The mutation orchestrators below run at build time or under the
  // executor's exclusive write barrier (QueryExecutor::SubmitExclusive),
  // never concurrently with queries. Every call — success or failure —
  // bumps the pager's data_epoch(), so cached wavefronts, distance memos,
  // and probe bounds from before the mutation are unreachable afterwards,
  // unless QueryCache::Maintain carries them over the step. Each bump
  // names what changed (GraphPager::LastStep); a failed mutation names
  // kUnknown, which carries nothing over.
  // On a storage error the stack converges to a consistent world (the
  // in-memory tables are authoritative; the B+-tree is rebuilt from them)
  // and the error is surfaced for accounting.

  // Reassigns edge `edge`'s length end to end: network CSR mirrors, object
  // offsets (rescaled proportionally, so planar positions and both R-trees
  // are untouched), middle-layer endpoint distances, paged adjacency
  // records, and the landmark tables when present. Returns the applied
  // length (clamped up to the endpoint Euclidean distance).
  StatusOr<Dist> UpdateEdgeWeight(EdgeId edge, Dist length);

  // Adds an object at `loc` through the middle layer and object R-tree;
  // returns its fresh id. A static-attribute row is generated when the
  // workload carries static attributes.
  StatusOr<ObjectId> InsertObject(const Location& loc);

  // Tombstones object `id` (middle layer + object R-tree; the id stays
  // allocated). Returns whether it was live. A clean "not live" no-op does
  // not bump the data epoch.
  StatusOr<bool> DeleteObject(ObjectId id);

  // Rebuilds the graph pager under `layout`, relabeling node ids when the
  // layout calls for it (and rebuilding the node-keyed landmark index).
  // Objects, queries, and results are unaffected — but node ids and the
  // pager's layout_epoch() change, so callers must not hold NN streams or
  // Datasets across the call, and epoch-stamped cache entries become
  // unreachable (the invalidation property the regression tests pin down).
  void Relayout(GraphLayout layout);

  GraphLayout graph_layout() const { return graph_layout_; }

  const RoadNetwork& network() const { return network_; }
  const SpatialMapping& mapping() const { return *mapping_; }
  const RTree& object_rtree() const { return *object_rtree_; }
  const RTree& edge_rtree() const { return *edge_rtree_; }
  const std::vector<Location>& objects() const { return objects_; }
  const std::vector<DistVector>& static_attributes() const { return attrs_; }
  // Null unless WorkloadConfig::landmark_count > 0.
  const LandmarkIndex* landmarks() const { return landmarks_.get(); }
  BufferManager& graph_buffer() { return *graph_buffer_; }
  BufferManager& index_buffer() { return *index_buffer_; }
  // Null unless WorkloadConfig::fault_injection is set.
  FaultInjectingDiskManager* graph_faults() { return graph_faults_.get(); }
  FaultInjectingDiskManager* index_faults() { return index_faults_.get(); }

 private:
  void BuildStack(const WorkloadConfig& config);

  RoadNetwork network_;
  // Exactly one backend pair is active, selected by storage_dir.
  InMemoryDiskManager graph_disk_;
  InMemoryDiskManager index_disk_;
  std::unique_ptr<FileDiskManager> graph_file_disk_;
  std::unique_ptr<FileDiskManager> index_file_disk_;
  std::unique_ptr<FaultInjectingDiskManager> graph_faults_;
  std::unique_ptr<FaultInjectingDiskManager> index_faults_;
  std::unique_ptr<BufferManager> graph_buffer_;
  std::unique_ptr<BufferManager> index_buffer_;
  std::unique_ptr<GraphPager> graph_pager_;
  std::unique_ptr<RTree> edge_rtree_;
  std::vector<Location> objects_;
  std::unique_ptr<SpatialMapping> mapping_;
  std::unique_ptr<RTree> object_rtree_;
  std::unique_ptr<LandmarkIndex> landmarks_;
  std::vector<DistVector> attrs_;
  GraphLayout graph_layout_ = GraphLayout::kSeed;
  std::size_t static_attr_dims_ = 0;
  std::uint64_t attr_seed_ = 0;
  std::size_t landmark_count_ = 0;
  std::uint64_t landmark_seed_ = 0;
  std::uint64_t query_seed_mix_ = 0;
  bool use_custom_objects_ = false;
  std::vector<Location> custom_objects_;
  std::vector<DistVector> custom_attrs_;
};

}  // namespace msq

#endif  // MSQ_GEN_WORKLOADS_H_
