// Resumable A* search with shared labels and path-distance-lower-bound
// (plb) probes.
//
// This implements two ideas the paper builds LBC and EDC on:
//
//  1. Label reuse across targets ([26], adopted in Section 3): one
//     AStarSearch per query point keeps every computed network distance
//     ("each query point keeps a hash table to store the intermediate nodes
//     visited, together with their network distances"), so successive
//     distance computations from the same query point resume rather than
//     restart.
//
//  2. The path distance lower bound of Section 4.3: while expanding toward
//     a target t, the smallest f = d(vs,v) + dE(v,t) over the frontier can
//     only grow, never exceeds dN(vs,t), and equals it at termination. A
//     Probe exposes one expansion step at a time so LBC can abandon a
//     dominated candidate after paying only as much network access as
//     needed to prove domination — the mechanism behind the
//     instance-optimality proof (Theorem 1).
//
// The search owns one frontier heap, keyed by f = d + h for whichever
// target it was last asked about. A probe toward a different target first
// re-keys the whole frontier in one O(F) pass that drops stale entries,
// then rebuilds the heap with std::make_heap; while the target stays the
// same, new labels are pushed already keyed for it. So each pop
// takes the minimum f over the complete current frontier for the popping
// probe's target, the standard A* exactness argument applies, and any
// number of live probes may interleave on one search: every node one probe
// settles is an exact label every other probe reuses.
#ifndef MSQ_GRAPH_ASTAR_H_
#define MSQ_GRAPH_ASTAR_H_

#include <vector>

#include "graph/graph_pager.h"
#include "graph/landmarks.h"
#include "graph/road_network.h"

namespace msq {

// Settling reads adjacency pages through the pager and throws StorageFault
// on I/O failure; run inside a query boundary (see common/status.h).
class AStarSearch {
 public:
  // Starts a reusable search from `source`. Neither the pager nor the
  // optional landmark index is owned. When `landmarks` is supplied, the
  // heuristic is max(Euclidean, ALT landmark bound) — still consistent,
  // but tighter on high-detour networks (see graph/landmarks.h for why
  // this steps outside the paper's Theorem 1 algorithm class).
  AStarSearch(const GraphPager* pager, Location source,
              const LandmarkIndex* landmarks = nullptr);

  AStarSearch(const AStarSearch&) = delete;
  AStarSearch& operator=(const AStarSearch&) = delete;

  // An incremental distance computation toward one target. Valid only
  // while its parent AStarSearch is alive. Multiple probes may be live and
  // interleaved arbitrarily.
  class Probe {
   public:
    // Performs at most one node expansion and returns the updated path
    // distance lower bound. Idempotent once done().
    Dist Advance();

    // Advances until the exact distance is known; returns it (kInfDist when
    // the target is unreachable).
    Dist Run();

    // Whether the exact network distance has been determined.
    bool done() const { return done_; }

    // Current path distance lower bound: plb <= dN(source, target), and
    // plb == dN(source, target) once done. Non-decreasing over time.
    Dist plb() const { return plb_; }

    // Exact distance; requires done().
    Dist distance() const;

   private:
    friend class AStarSearch;
    Probe(AStarSearch* parent, const Location& target);

    // Best known complete path: settled endpoint labels + the direct
    // along-edge path when source and target share an edge.
    Dist CurrentBestTarget() const;
    // Marks the probe done with exact distance `distance`; returns it.
    Dist Finish(Dist distance);

    AStarSearch* parent_;
    Location target_;
    NodeId end_u_, end_v_;
    Dist target_du_, target_dv_;  // along-edge offsets of the target
    Dist direct_;                 // same-edge direct distance or kInfDist
    Dist plb_;
    // Whether Advance() ran once; the settled-endpoints shortcut is taken
    // only before the first expansion step.
    bool started_ = false;
    bool done_ = false;
    Dist distance_ = kInfDist;
  };

  // Creates a probe toward `target`.
  Probe NewProbe(const Location& target);

  // Convenience: exact network distance to `target` (expands as needed;
  // all labels are retained for future probes).
  Dist DistanceTo(const Location& target);

  // Number of nodes settled so far across all probes (the paper's network
  // node access measure for A*-based search).
  std::size_t settled_count() const { return settled_count_; }

  // Largest exact distance settled so far — the radius the wavefront has
  // verifiably reached (0 when nothing was settled).
  Dist max_settled_distance() const { return max_settled_dist_; }

  const Location& source() const { return source_; }
  const GraphPager& pager() const { return *pager_; }

 private:
  friend class Probe;

  struct HeapItem {
    Dist f;  // d + Heuristic(node) for the current target
    // Label when pushed; the entry is stale once dist_[node] < d. Each push
    // for a node carries a smaller label than the last, and a node settles
    // by popping its live entry, so every entry left for a settled node is
    // stale.
    Dist d;
    NodeId node;
    bool operator>(const HeapItem& other) const { return f > other.f; }
  };

  // Applies a label improvement and pushes it onto the frontier.
  void Improve(NodeId node, Dist dist);
  // Settles `node` at exact distance `dist` and relaxes its neighbors.
  void Settle(NodeId node, Dist dist);
  // Re-keys the frontier for `target` and rebuilds the heap, dropping
  // stale entries; a no-op when `target` is already current.
  void Retarget(const Location& target);
  // Drops stale entries off the top of the frontier.
  void CleanTop();
  void PopTop();
  // Consistent lower bound on the distance from `node` to the current
  // target (0 before the first retarget).
  Dist Heuristic(NodeId node) const;

  const GraphPager* pager_;
  Location source_;
  const LandmarkIndex* landmarks_;
  std::vector<Dist> dist_;
  std::vector<std::uint8_t> settled_;
  // Min-heap on f via std::push_heap/pop_heap; may hold stale entries,
  // which CleanTop and Retarget discard.
  std::vector<HeapItem> frontier_;
  // The target the frontier is keyed for (edge kInvalidEdge: none yet).
  Location target_;
  Point target_point_;
  std::size_t settled_count_ = 0;
  Dist max_settled_dist_ = 0.0;
  std::vector<AdjacencyEntry> scratch_adjacency_;
};

}  // namespace msq

#endif  // MSQ_GRAPH_ASTAR_H_
