// Resumable Dijkstra wavefront expansion from a network location.
//
// Section 3 of the paper: the wavefront is kept in a heap and can be
// expanded incrementally; "the frontier nodes on the wavefront are
// maintained such that the expansion can continue from a previous state".
// This incremental form is the engine of the CE algorithm, which alternates
// expansion among the query points.
//
// A search can be checkpointed (labels + frontier heap) and a later search
// from the same source resumed from the checkpoint — the substrate of the
// cross-query wavefront cache (cache/query_cache.h). Heap ordering breaks
// distance ties by node id, so settle order — and everything derived from
// it — is deterministic and identical between a cold run and a resumed one.
#ifndef MSQ_GRAPH_DIJKSTRA_H_
#define MSQ_GRAPH_DIJKSTRA_H_

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph_pager.h"
#include "graph/road_network.h"

namespace msq {

// Expansion reads adjacency pages through the pager and throws StorageFault
// on I/O failure; run inside a query boundary (see common/status.h).
class DijkstraSearch {
 public:
  // One frontier heap entry. Ties in distance are broken by node id (lower
  // id settles first) so expansion order is deterministic regardless of
  // insertion history — required for byte-identical resumed searches.
  struct HeapItem {
    Dist dist;
    NodeId node;
    bool operator>(const HeapItem& other) const {
      if (dist != other.dist) return dist > other.dist;
      return node > other.node;
    }
  };

  // Checkpoint of a wavefront: labels, settled flags, and the frontier
  // heap, sufficient to resume expansion exactly where it stopped. Plain
  // data — immutable copies are shared across threads by the query cache.
  struct Checkpoint {
    std::vector<Dist> dist;
    std::vector<std::uint8_t> settled;
    std::vector<HeapItem> frontier;  // heap-ordered (std::make_heap layout)
    std::size_t settled_count = 0;

    // Approximate heap footprint, for cache byte budgeting.
    std::size_t bytes() const {
      return dist.capacity() * sizeof(Dist) +
             settled.capacity() * sizeof(std::uint8_t) +
             frontier.capacity() * sizeof(HeapItem) + sizeof(Checkpoint);
    }
  };

  // Starts a wavefront at `source`. The pager is not owned.
  DijkstraSearch(const GraphPager* pager, Location source);

  // Resumes from `checkpoint`, which must have been taken from a search
  // with the same source on the same network (asserted by size).
  DijkstraSearch(const GraphPager* pager, Location source,
                 const Checkpoint& checkpoint);

  struct Settled {
    NodeId node;
    Dist distance;
    // The node's adjacency list as decoded to expand it; valid until the
    // next NextSettled/DistanceTo call on this search. Callers that probe
    // the incident edges read it here instead of decoding it again.
    std::span<const AdjacencyEntry> adjacency;
  };

  // Settles and returns the next-nearest node, expanding the wavefront by
  // one step. std::nullopt when the reachable network is exhausted.
  std::optional<Settled> NextSettled();

  // Distance of the next node to settle: a lower bound on the distance of
  // every not-yet-settled node. kInfDist when exhausted.
  Dist Radius();

  // Current label of `node` (exact iff settled; kInfDist if unlabeled).
  Dist Label(NodeId node) const;
  bool IsSettled(NodeId node) const;

  // Exact network distance from the source to `target`, expanding as far
  // as needed. kInfDist when unreachable. Further incremental use of the
  // search remains valid afterwards.
  Dist DistanceTo(const Location& target);

  // Copies the current wavefront state (labels + frontier) into a
  // checkpoint a later DijkstraSearch can resume from.
  Checkpoint MakeCheckpoint() const;

  // Number of nodes settled so far (the paper's per-query network node
  // access measure for Dijkstra-based search). For a resumed search this
  // includes the checkpoint's settles — the total wavefront extent.
  std::size_t settled_count() const { return settled_count_; }

  const Location& source() const { return source_; }

 private:
  // Relaxes `node`'s neighbors given its exact distance `dist`; leaves
  // the decoded adjacency in scratch_adjacency_.
  void Expand(NodeId node, Dist dist);
  // Pops stale heap entries.
  void CleanTop();
  void HeapPush(HeapItem item);
  void HeapPop();

  const GraphPager* pager_;
  Location source_;
  std::vector<Dist> dist_;
  std::vector<std::uint8_t> settled_;
  // Min-heap via std::push_heap/pop_heap so the underlying vector is
  // directly checkpointable.
  std::vector<HeapItem> heap_;
  std::size_t settled_count_ = 0;
  std::vector<AdjacencyEntry> scratch_adjacency_;
};

}  // namespace msq

#endif  // MSQ_GRAPH_DIJKSTRA_H_
