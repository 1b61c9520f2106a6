// Incremental network nearest-neighbor stream from one query point.
//
// CE (Section 4.1) visits the objects around each query point "in the
// ascending order according to their network distance to this query point".
// This stream couples a resumable Dijkstra wavefront with middle-layer
// probes: whenever a node settles, each incident edge that carries an
// object (SpatialMapping::HasObjects) is looked up in the B+-tree middle
// layer for its resident objects, whose distances become exact as soon as
// they drop below the wavefront radius. The probes walk the adjacency list
// the wavefront decoded to settle the node, and each edge's records come
// from a query-scoped EdgeObjectMemo, so one query reads every adjacency
// record once per settle and every occupied edge's records once.
//
// A finished (or truncated) stream can be snapshotted — Dijkstra checkpoint
// plus the per-object distance estimates — and a later stream from the same
// source resumed from the snapshot: already-discovered objects re-emit in
// ascending order without touching the graph, and the wavefront resumes
// expansion only when the emission radius must grow past the checkpoint.
// Emission ties are broken by object id, so a resumed stream emits exactly
// the sequence a cold stream would.
#ifndef MSQ_GRAPH_NN_STREAM_H_
#define MSQ_GRAPH_NN_STREAM_H_

#include <memory>
#include <optional>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/spatial_mapping.h"

namespace msq {

// Construction and Next() read graph/middle-layer pages and throw
// StorageFault on I/O failure; run inside a query boundary (see
// common/status.h).
class NetworkNnStream {
 public:
  // Checkpoint of one stream: the wavefront plus the best-known distance
  // per object (exact for objects within the settled radius, an upper
  // bound beyond it). Plain data, shareable across threads as an immutable
  // copy. The consumed-emission state is deliberately NOT captured: a
  // resumed stream re-emits from distance zero.
  struct Snapshot {
    DijkstraSearch::Checkpoint search;
    std::vector<Dist> object_best;

    std::size_t bytes() const {
      return search.bytes() + object_best.capacity() * sizeof(Dist) +
             sizeof(Snapshot) - sizeof(DijkstraSearch::Checkpoint);
    }
  };

  // Streams objects of `mapping` by network distance from `source`.
  // Neither pointer is owned. When `resume` is non-null it must have been
  // snapshotted from a stream with the same source over the same network
  // and object set, or a prefix of it (objects inserted since, which the
  // snapshot has not discovered, are padded with kInfDist); the new stream
  // copies it and the snapshot may be freed afterwards. `memo` (not owned) serves the
  // middle-layer lookups and may be shared by streams of one query that
  // run on one thread; when null the stream keeps a memo of its own.
  NetworkNnStream(const GraphPager* pager, const SpatialMapping* mapping,
                  Location source, const Snapshot* resume = nullptr,
                  EdgeObjectMemo* memo = nullptr);

  struct Visit {
    ObjectId object;
    Dist distance;  // exact network distance from the source
  };

  // Returns the next-nearest unvisited object, or std::nullopt when every
  // object reachable from the source has been visited. The full emission
  // sequence is lexicographic in (distance, object id): an object emits
  // only once the wavefront radius strictly exceeds its distance, at which
  // point all of its distance twins are guaranteed discovered too.
  std::optional<Visit> Next();

  // Nodes settled by the underlying wavefront so far (total extent —
  // includes a resumed snapshot's settles).
  std::size_t settled_count() const { return search_.settled_count(); }

  // Snapshot of the current stream state for the cross-query cache.
  Snapshot MakeSnapshot() const;

  const DijkstraSearch& search() const { return search_; }

 private:
  struct HeapItem {
    Dist dist;
    ObjectId object;
    // Distance ties emit in ascending object id — deterministic across
    // cold and resumed streams regardless of heap insertion history.
    bool operator>(const HeapItem& other) const {
      if (dist != other.dist) return dist > other.dist;
      return object > other.object;
    }
  };

  // Offers a candidate distance for `object`.
  void Offer(ObjectId object, Dist dist);
  // Probes `edge` given that endpoint-side distance `node_dist` is exact
  // and the settled node is `node`.
  void ProbeEdge(EdgeId edge, NodeId node, Dist node_dist);
  void HeapPush(HeapItem item);
  void HeapPop();

  DijkstraSearch search_;
  const SpatialMapping* mapping_;
  std::unique_ptr<EdgeObjectMemo> own_memo_;  // set when none was passed
  EdgeObjectMemo* memo_;
  std::vector<Dist> best_;
  std::vector<std::uint8_t> emitted_;
  // Min-heap via std::push_heap/pop_heap (vector is directly rebuildable
  // from a snapshot).
  std::vector<HeapItem> heap_;
};

}  // namespace msq

#endif  // MSQ_GRAPH_NN_STREAM_H_
