// The object<->network "middle layer" of Section 3.
//
// "If an object p is on a network edge e between two adjacent nodes v, v',
// the distances d(v,p) and d(v',p) are pre-computed, and the id of e is
// stored in the middle layer with the id of p and the two pre-computed
// distances. This middle layer can be indexed using a B+-tree on edge ids"
// — used by the wavefront algorithms to check each visited edge for
// resident objects without online geometric mapping.
#ifndef MSQ_GRAPH_SPATIAL_MAPPING_H_
#define MSQ_GRAPH_SPATIAL_MAPPING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/road_network.h"
#include "index/bptree.h"
#include "storage/buffer_manager.h"

namespace msq {

// One middle-layer record: an object resident on some edge with its
// pre-computed distances to the edge's endpoints.
struct EdgeObject {
  ObjectId object = kInvalidObject;
  Dist dist_u = 0.0;  // along-edge distance to the edge's u endpoint
  Dist dist_v = 0.0;  // along-edge distance to the edge's v endpoint
};

class SpatialMapping {
 public:
  // Builds the middle layer for `objects` (Location per object id, indexed
  // by position in the vector). Every location must be valid on `network`.
  // The B+-tree pages live in `buffer`'s disk space.
  SpatialMapping(const RoadNetwork* network, BufferManager* buffer,
                 const std::vector<Location>& objects);

  // Appends all objects resident on `edge` (B+-tree range probe read in
  // place; the probe I/O is counted by the buffer manager). Fails with the
  // underlying read error, or kCorruption for a structurally invalid node or
  // a stored record that references an unknown object. `*out` is cleared on
  // failure.
  Status ObjectsOnEdge(EdgeId edge, std::vector<EdgeObject>* out) const;

  // Whether some live object sits on `edge`. An in-memory bit per edge,
  // derived from the location table, so a caller can skip the
  // ObjectsOnEdge probe of an edge that cannot return anything.
  bool HasObjects(EdgeId edge) const { return occupied_[edge]; }

  // Total ids ever allocated, including tombstones — per-object arrays in
  // the algorithms are sized by this, so ids stay stable across churn.
  std::size_t object_count() const { return locations_.size(); }
  // Ids currently resident on the network (excludes tombstones).
  std::size_t live_object_count() const { return live_count_; }
  const Location& ObjectLocation(ObjectId id) const;
  Point ObjectPosition(ObjectId id) const;
  const std::vector<Location>& locations() const { return locations_; }

  const RoadNetwork& network() const { return *network_; }

  // --- dynamic churn ----------------------------------------------------
  //
  // All mutators run at build time or under the executor's exclusive write
  // barrier, never concurrently with readers. On a storage error the
  // in-memory location table stays authoritative; callers recover the
  // B+-tree with RebuildIndex().

  // Adds a new object at `loc` (must be a valid location) and returns its
  // id (always a fresh id, one past the previous object_count()).
  StatusOr<ObjectId> InsertObject(const Location& loc);

  // Tombstones `id`: removes its middle-layer record and parks its
  // location at kInvalidEdge so the id stays allocated (ids are never
  // reused). Returns whether the object existed and was live.
  StatusOr<bool> DeleteObject(ObjectId id);

  // Whether `id` names a live (non-tombstoned) object.
  bool IsLive(ObjectId id) const;

  // Rescales every object on `edge` after its length changed to
  // `scale` times the old length: offsets scale proportionally, so each
  // object keeps its planar position (LocationPosition parameterizes by
  // offset/length) and spatial indexes need no update. Endpoint distances
  // are recomputed against the network's current edge length, which must
  // already be updated.
  Status RefreshEdgeObjects(EdgeId edge, double scale);

  // Bulk-reloads the B+-tree from the live locations. Fault recovery: a
  // storage error mid-mutation can leave the tree behind the authoritative
  // location table, and this restores agreement. The old tree's pages are
  // orphaned — bounded, since recovery only runs after a fault. The
  // occupancy bits are re-derived from the location table too; they only
  // change if a delete ran against a tree left behind by a failed rebuild.
  Status RebuildIndex();

 private:
  // Sets occupied_ from the live locations.
  void DeriveOccupancy();

  const RoadNetwork* network_;
  std::vector<Location> locations_;
  std::vector<Point> positions_;
  std::size_t live_count_ = 0;
  // One bit per edge: some live location is on it. Set at build and by
  // InsertObject, cleared by the DeleteObject that removes an edge's last
  // record.
  std::vector<bool> occupied_;
  BpTree index_;
};

// Query-scoped memo of middle-layer lookups. The first Get of an edge
// reads its records from the B+-tree (ObjectsOnEdge, I/O counted as
// usual); every later Get of that edge returns the stored copy without
// touching an index page. The middle layer only changes between queries
// (at build time or under the executor's exclusive write barrier), so a
// memo that lives for one query cannot go stale — it must not outlive
// the query. Not thread-safe: only streams driven by one thread may share
// a memo.
class EdgeObjectMemo {
 public:
  // `mapping` is not owned. The per-edge table is allocated on first Get.
  explicit EdgeObjectMemo(const SpatialMapping* mapping);

  // The objects on `edge`, exactly as ObjectsOnEdge returns them. The
  // span is valid until the next Get. A failed lookup memoizes nothing.
  StatusOr<std::span<const EdgeObject>> Get(EdgeId edge);

 private:
  struct Range {
    std::uint32_t begin;
    std::uint32_t count;
  };

  const SpatialMapping* mapping_;
  // Per edge: 0 before its first lookup, else 1 + its index in ranges_.
  std::vector<std::uint32_t> slot_;
  std::vector<Range> ranges_;
  std::vector<EdgeObject> records_;
  std::vector<EdgeObject> scratch_;
};

}  // namespace msq

#endif  // MSQ_GRAPH_SPATIAL_MAPPING_H_
