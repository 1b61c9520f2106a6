#include "gen/workloads.h"

#include <cmath>

#include "common/check.h"

namespace msq {

std::string NetworkClassName(NetworkClass cls) {
  switch (cls) {
    case NetworkClass::kCA:
      return "CA";
    case NetworkClass::kAU:
      return "AU";
    case NetworkClass::kNA:
      return "NA";
    case NetworkClass::kCNT:
      return "CNT";
  }
  MSQ_CHECK(false);
  return "";
}

std::string GraphLayoutName(GraphLayout layout) {
  switch (layout) {
    case GraphLayout::kSeed:
      return "seed";
    case GraphLayout::kHilbert:
      return "hilbert";
    case GraphLayout::kHilbertCsr:
      return "hilbert_csr";
  }
  MSQ_CHECK(false);
  return "";
}

GraphPagerOptions PagerOptionsFor(GraphLayout layout) {
  switch (layout) {
    case GraphLayout::kSeed:
      return GraphPagerOptions{};
    case GraphLayout::kHilbert:
      return GraphPagerOptions{NodeOrdering::kAsIs, AdjacencyFormat::kRow};
    case GraphLayout::kHilbertCsr:
      return GraphPagerOptions{NodeOrdering::kAsIs, AdjacencyFormat::kCsr};
  }
  MSQ_CHECK(false);
  return GraphPagerOptions{};
}

NetworkGenConfig PaperNetworkConfig(NetworkClass cls, double scale,
                                    std::uint64_t seed) {
  MSQ_CHECK(scale > 0.0);
  NetworkGenConfig config;
  config.seed = seed;
  std::size_t nodes = 0, edges = 0;
  // Curvature and junction ratio realize the paper's density/detour
  // ordering (Section 6.3: δ decreases from CA to NA). The DCW extracts
  // are polylines — most nodes are degree-2 shape points — so the raw
  // |E|/|V| ≈ 1.2 hides the junction topology. NA's dense merged coverage
  // gets a well-connected junction skeleton (ratio 1.8, straight roads,
  // low δ); CA's sparse winding rural coverage keeps a near-tree skeleton
  // with curved roads (high δ). See DESIGN.md §3.
  switch (cls) {
    case NetworkClass::kCA:
      nodes = 3044;
      edges = 3607;
      config.curvature = 0.8;
      config.junction_edge_ratio = 0.0;
      break;
    case NetworkClass::kAU:
      nodes = 23269;
      edges = 30289;
      config.curvature = 0.2;
      config.junction_edge_ratio = 1.5;
      break;
    case NetworkClass::kNA:
      nodes = 86318;
      edges = 103042;
      config.curvature = 0.0;
      config.junction_edge_ratio = 1.8;
      break;
    case NetworkClass::kCNT:
      // Synthetic continental tier: NA's density profile at 5x its size
      // (so scale=2.0 — ContinentalNetworkConfig — is a 10x-NA network).
      nodes = 431590;
      edges = 515210;
      config.curvature = 0.0;
      config.junction_edge_ratio = 1.8;
      break;
  }
  config.node_count = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::llround(scale * nodes)));
  config.edge_count = std::max(
      config.node_count,
      static_cast<std::size_t>(std::llround(scale * edges)));
  return config;
}

NetworkGenConfig ContinentalNetworkConfig(std::uint64_t seed) {
  return PaperNetworkConfig(NetworkClass::kCNT, 2.0, seed);
}

Workload::Workload(const WorkloadConfig& config)
    : network_(GenerateNetwork(config.network)) {
  BuildStack(config);
}

Workload::Workload(const WorkloadConfig& config, RoadNetwork network)
    : network_(std::move(network)) {
  MSQ_CHECK(network_.finalized());
  BuildStack(config);
}

Workload::Workload(const WorkloadConfig& config, RoadNetwork network,
                   std::vector<Location> objects,
                   std::vector<DistVector> attrs)
    : network_(std::move(network)) {
  MSQ_CHECK(network_.finalized());
  custom_objects_ = std::move(objects);
  use_custom_objects_ = true;
  custom_attrs_ = std::move(attrs);
  BuildStack(config);
}

void Workload::BuildStack(const WorkloadConfig& config) {
  graph_layout_ = config.graph_layout;
  if (graph_layout_ != GraphLayout::kSeed) {
    // Hilbert layouts renumber nodes before anything node-keyed is built.
    // Edge ids/orientation/lengths are preserved, so the edge R-tree,
    // middle layer, objects, and queries are identical across layouts.
    network_ = RelabelNodes(network_, HilbertNodeOrder(network_));
  }
  DiskManager* graph_disk = &graph_disk_;
  DiskManager* index_disk = &index_disk_;
  if (!config.storage_dir.empty()) {
    auto graph_open = FileDiskManager::Open(
        config.storage_dir + "/graph.pages", /*truncate=*/true);
    auto index_open = FileDiskManager::Open(
        config.storage_dir + "/index.pages", /*truncate=*/true);
    MSQ_CHECK_MSG(graph_open.ok() && index_open.ok(),
                  "cannot create page files under %s",
                  config.storage_dir.c_str());
    graph_file_disk_ = std::move(graph_open.value());
    index_file_disk_ = std::move(index_open.value());
    graph_disk = graph_file_disk_.get();
    index_disk = index_file_disk_.get();
  }
  if (config.fault_injection.has_value()) {
    FaultInjectionConfig index_cfg = *config.fault_injection;
    index_cfg.seed ^= 0x1d8afULL;
    graph_faults_ = std::make_unique<FaultInjectingDiskManager>(
        graph_disk, *config.fault_injection);
    index_faults_ =
        std::make_unique<FaultInjectingDiskManager>(index_disk, index_cfg);
    graph_disk = graph_faults_.get();
    index_disk = index_faults_.get();
  }
  graph_buffer_ = std::make_unique<BufferManager>(
      graph_disk, config.graph_buffer_frames, config.retry);
  index_buffer_ = std::make_unique<BufferManager>(
      index_disk, config.index_buffer_frames, config.retry);
  // Role-split registry mirroring: query-phase tracing reads these to
  // attribute network- vs index-page traffic to spans.
  graph_buffer_->AttachMetrics(&obs::GlobalMetrics(),
                               obs::metric::kNetworkBufferPrefix);
  index_buffer_->AttachMetrics(&obs::GlobalMetrics(),
                               obs::metric::kIndexBufferPrefix);
  graph_pager_ = std::make_unique<GraphPager>(&network_, graph_buffer_.get(),
                                              PagerOptionsFor(graph_layout_));

  // Edge R-tree (Section 6.1: "The edges are indexed by an R-tree on edge
  // MBRs"), bulk-loaded.
  edge_rtree_ = std::make_unique<RTree>(index_buffer_.get());
  {
    std::vector<RTreeEntry> entries;
    entries.reserve(network_.edge_count());
    for (EdgeId e = 0; e < network_.edge_count(); ++e) {
      entries.push_back(RTreeEntry{network_.EdgeMbr(e), e});
    }
    edge_rtree_->BulkLoad(std::move(entries));
  }

  if (use_custom_objects_) {
    objects_ = std::move(custom_objects_);
  } else {
    objects_ = GenerateObjectsWithDensity(network_, config.object_density,
                                          config.object_seed);
  }
  mapping_ = std::make_unique<SpatialMapping>(&network_, index_buffer_.get(),
                                              objects_);

  // Object R-tree over object positions.
  object_rtree_ = std::make_unique<RTree>(index_buffer_.get());
  {
    std::vector<RTreeEntry> entries;
    entries.reserve(objects_.size());
    for (ObjectId id = 0; id < objects_.size(); ++id) {
      entries.push_back(
          RTreeEntry{Mbr::FromPoint(mapping_->ObjectPosition(id)), id});
    }
    object_rtree_->BulkLoad(std::move(entries));
  }

  attr_seed_ = config.object_seed ^ 0x5eedf00dULL;
  if (!custom_attrs_.empty()) {
    MSQ_CHECK(custom_attrs_.size() == objects_.size());
    attrs_ = std::move(custom_attrs_);
    static_attr_dims_ = attrs_.front().size();
  } else if (config.static_attr_dims > 0) {
    static_attr_dims_ = config.static_attr_dims;
    attrs_ = GenerateStaticAttributes(objects_.size(),
                                      config.static_attr_dims, attr_seed_);
  }
  landmark_count_ = config.landmark_count;
  landmark_seed_ = config.network.seed ^ 0xa17aULL;
  if (landmark_count_ > 0) {
    landmarks_ = std::make_unique<LandmarkIndex>(&network_, landmark_count_,
                                                 landmark_seed_);
  }
  query_seed_mix_ = config.network.seed * 0x9e3779b97f4a7c15ULL;
  ResetBuffers();
}

Dataset Workload::dataset() {
  Dataset d;
  d.network = &network_;
  d.graph_pager = graph_pager_.get();
  d.mapping = mapping_.get();
  d.object_rtree = object_rtree_.get();
  d.graph_buffer = graph_buffer_.get();
  d.index_buffer = index_buffer_.get();
  d.static_attributes = attrs_.empty() ? nullptr : &attrs_;
  d.landmarks = landmarks_.get();
  return d;
}

SkylineQuerySpec Workload::SampleQuery(std::size_t count, std::uint64_t seed,
                                       double region_fraction) const {
  SkylineQuerySpec spec;
  spec.sources = GenerateQueries(network_, count, region_fraction,
                                 seed ^ query_seed_mix_);
  return spec;
}

void Workload::Relayout(GraphLayout layout) {
  if (layout != GraphLayout::kSeed) {
    network_ = RelabelNodes(network_, HilbertNodeOrder(network_));
  }
  graph_layout_ = layout;
  // Return the old pager's pages to the free list before building the new
  // one, so the rebuild reuses the slots instead of growing the backing
  // store (repeated relayouts stay bounded). Relayout runs with no queries
  // in flight, so no frame is pinned and Free cannot fail.
  for (const PageId page : graph_pager_->pages()) {
    MSQ_CHECK(graph_buffer_->FreePage(page).ok());
  }
  // A fresh pager draws a fresh layout_epoch (and starts its data_epoch
  // there), so epoch-stamped cache entries from the old layout become
  // unreachable.
  graph_pager_ = std::make_unique<GraphPager>(&network_, graph_buffer_.get(),
                                              PagerOptionsFor(layout));
  if (landmark_count_ > 0) {
    // Landmark distance tables are node-indexed; rebuild them against the
    // new numbering.
    landmarks_ = std::make_unique<LandmarkIndex>(&network_, landmark_count_,
                                                 landmark_seed_);
  }
  ResetBuffers();
}

StatusOr<Dist> Workload::UpdateEdgeWeight(EdgeId edge, Dist length) {
  MSQ_CHECK(edge < network_.edge_count());
  const Dist old_length = network_.EdgeAt(edge).length;
  const bool had_objects = mapping_->HasObjects(edge);
  // The network commit is infallible; everything after converges to the
  // new length even through storage errors.
  const Dist applied = network_.UpdateEdgeLength(edge, length);
  const double scale = old_length > 0.0 ? applied / old_length : 0.0;
  Status status = mapping_->RefreshEdgeObjects(edge, scale);
  if (!status.ok()) {
    // The location table is already rescaled; restore tree agreement from
    // it. A rebuild failure supersedes the refresh failure.
    if (const Status rebuilt = mapping_->RebuildIndex(); !rebuilt.ok()) {
      status = rebuilt;
    }
  }
  if (const Status refreshed = graph_pager_->RefreshEdge(edge);
      !refreshed.ok() && status.ok()) {
    status = refreshed;
  }
  if (landmarks_ != nullptr) landmarks_->Resweep();
  objects_ = mapping_->locations();
  // Bump even on failure (named kUnknown): it only costs cache
  // warmth, while a missed bump after a partial change would serve stale
  // results.
  graph_pager_->BumpDataEpoch(
      status.ok() ? DataChange{.kind = DataChange::Kind::kEdgeLength,
                               .edge = edge,
                               .old_length = old_length,
                               .edge_has_objects = had_objects}
                  : DataChange{});
  if (!status.ok()) return status;
  return applied;
}

StatusOr<ObjectId> Workload::InsertObject(const Location& loc) {
  if (!network_.IsValidLocation(loc)) {
    return Status::InvalidArgument("object location invalid");
  }
  Status status;
  ObjectId id = kInvalidObject;
  StatusOr<ObjectId> inserted = mapping_->InsertObject(loc);
  if (!inserted.ok()) {
    status = inserted.status();
    // A failed tree insert can leave the B+-tree mid-split; the location
    // table (which does not yet contain the object) is the recovery source.
    if (const Status rebuilt = mapping_->RebuildIndex(); !rebuilt.ok()) {
      status = rebuilt;
    }
  } else {
    id = *inserted;
    if (static_attr_dims_ > 0) {
      // One deterministic row per id, so reruns of the same churn schedule
      // generate identical attributes.
      attrs_.push_back(GenerateStaticAttributes(
                           1, static_attr_dims_,
                           attr_seed_ ^ (0x9e3779b97f4a7c15ULL * (id + 1)))
                           .front());
    }
    status = object_rtree_->InsertChecked(
        Mbr::FromPoint(mapping_->ObjectPosition(id)), id);
    if (!status.ok()) {
      // Undo the middle-layer registration; the id stays burned as a
      // tombstone (its attribute row, if any, is retained — per-object
      // arrays are sized by object_count()).
      if (StatusOr<bool> undone = mapping_->DeleteObject(id); !undone.ok()) {
        (void)mapping_->RebuildIndex();
      }
    }
  }
  objects_ = mapping_->locations();
  graph_pager_->BumpDataEpoch(
      status.ok() ? DataChange{.kind = DataChange::Kind::kInsertObject,
                               .object = id}
                  : DataChange{});
  if (!status.ok()) return status;
  return id;
}

StatusOr<bool> Workload::DeleteObject(ObjectId id) {
  if (id >= mapping_->object_count() || !mapping_->IsLive(id)) {
    // Clean no-op: nothing changed, keep the caches warm.
    return false;
  }
  const Mbr mbr = Mbr::FromPoint(mapping_->ObjectPosition(id));
  // R-tree first: its checked delete is atomic, and a later middle-layer
  // failure can undo it with an equally atomic insert. The reverse order
  // could leave a live R-tree entry pointing at a tombstoned location,
  // which crashes Euclidean browsers.
  Status status;
  StatusOr<bool> rtree_removed = object_rtree_->DeleteChecked(mbr, id);
  if (!rtree_removed.ok()) {
    status = rtree_removed.status();
  } else {
    MSQ_CHECK(*rtree_removed);
    StatusOr<bool> removed = mapping_->DeleteObject(id);
    if (!removed.ok()) {
      status = removed.status();
      // The object is still live in the location table; restore the tree
      // and the R-tree entry to match.
      (void)mapping_->RebuildIndex();
      (void)object_rtree_->InsertChecked(mbr, id);
    } else {
      MSQ_CHECK(*removed);
    }
  }
  objects_ = mapping_->locations();
  graph_pager_->BumpDataEpoch(
      status.ok() ? DataChange{.kind = DataChange::Kind::kDeleteObject,
                               .object = id}
                  : DataChange{});
  if (!status.ok()) return status;
  return true;
}

void Workload::ResetBuffers() {
  // The stack is fault-free at this point (faults, if any, are armed by the
  // caller after construction), so a failed flush is a programming error.
  MSQ_CHECK(graph_buffer_->Clear().ok());
  graph_buffer_->ResetStats();
  MSQ_CHECK(index_buffer_->Clear().ok());
  index_buffer_->ResetStats();
  graph_buffer_->disk()->ResetCounters();
  index_buffer_->disk()->ResetCounters();
}

}  // namespace msq
