// In-memory road network model: G = (V, E) with planar node coordinates.
//
// Section 3 of the paper: nodes are road junctions, (non-directional) edges
// are road segments; dN is shortest-path distance along edges, dE the
// Euclidean distance. Edge lengths must be >= the Euclidean distance
// between their endpoints so that dE is a valid lower bound for A* (the
// loader clamps violations and reports them).
#ifndef MSQ_GRAPH_ROAD_NETWORK_H_
#define MSQ_GRAPH_ROAD_NETWORK_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "geom/mbr.h"
#include "geom/point.h"
#include "geom/segment.h"

namespace msq {

// A position on the network: an edge plus an arc-length offset from the
// edge's `u` endpoint. Both query points and data objects are Locations —
// the paper places objects "on the edges".
struct Location {
  EdgeId edge = kInvalidEdge;
  Dist offset = 0.0;

  friend bool operator==(const Location& a, const Location& b) {
    return a.edge == b.edge && a.offset == b.offset;
  }
};

// One directed half of an undirected edge, as seen from a node's adjacency
// list.
struct AdjacencyEntry {
  NodeId neighbor = kInvalidNode;
  EdgeId edge = kInvalidEdge;
  Dist length = 0.0;
};

class RoadNetwork {
 public:
  struct Edge {
    NodeId u = kInvalidNode;
    NodeId v = kInvalidNode;
    Dist length = 0.0;
  };

  RoadNetwork() = default;

  // --- construction ---------------------------------------------------

  // Adds a node; returns its id (dense, in insertion order).
  NodeId AddNode(Point position);

  // Adds an undirected edge between existing nodes. `length` <= 0 means
  // "use the Euclidean distance". Self-loops are rejected (returns
  // kInvalidEdge). A length below the endpoint Euclidean distance is
  // clamped up to it (A* admissibility) and counted in
  // clamped_edge_count().
  EdgeId AddEdge(NodeId u, NodeId v, Dist length = 0.0);

  // Builds the CSR adjacency structure. Must be called after the last
  // AddNode/AddEdge and before any query. Idempotent.
  void Finalize();
  bool finalized() const { return finalized_; }

  // --- dynamic updates --------------------------------------------------

  // Reassigns edge `id`'s length (<= 0 means "use the Euclidean distance").
  // Lengths below the endpoint Euclidean distance are clamped up to it —
  // the same A* admissibility rule as AddEdge — and counted in
  // clamped_edge_count(). Both CSR adjacency mirrors are updated; requires
  // Finalize(). Returns the applied length. Derived state (paged layouts,
  // object offsets, landmark tables) belongs to the caller and must be
  // refreshed by the caller.
  Dist UpdateEdgeLength(EdgeId id, Dist length);

  // --- basic accessors --------------------------------------------------

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edges_.size(); }
  std::size_t clamped_edge_count() const { return clamped_edges_; }

  const Point& NodePosition(NodeId id) const;
  const Edge& EdgeAt(EdgeId id) const;
  Segment EdgeSegment(EdgeId id) const;
  Mbr EdgeMbr(EdgeId id) const;

  // Adjacency list of `node` (requires Finalize()).
  std::span<const AdjacencyEntry> Adjacent(NodeId node) const;

  // --- locations --------------------------------------------------------

  // Whether `loc` names an existing edge with offset within [0, length].
  bool IsValidLocation(const Location& loc) const;

  // Planar coordinates of a network location.
  Point LocationPosition(const Location& loc) const;

  // Distances from the location to the edge's two endpoints:
  // (offset from u, length - offset).
  std::pair<Dist, Dist> EndpointDistances(const Location& loc) const;

  // The location on edge `edge` closest (in the plane) to point `p`.
  Location SnapToEdge(EdgeId edge, const Point& p) const;

  // Bounding box of all nodes.
  Mbr BoundingBox() const;

  // --- connectivity -----------------------------------------------------

  // Connected-component label per node (0-based), plus component count.
  std::pair<std::vector<std::uint32_t>, std::uint32_t> ConnectedComponents()
      const;
  bool IsConnected() const;

  // Single-source distances from `source` to every node over the in-memory
  // adjacency, never crossing edge `skip` (kInvalidEdge: none). Exact for
  // every node within `radius`; a node beyond it keeps an upper bound or
  // kInfDist, and its true distance exceeds `radius`. Requires Finalize().
  std::vector<Dist> NodeDistances(NodeId source, EdgeId skip = kInvalidEdge,
                                  Dist radius = kInfDist) const;

  // --- persistence --------------------------------------------------

  // Plain-text format: first line "N M"; then N lines "x y"; then M lines
  // "u v length" (length optional). Returns std::nullopt plus a message in
  // *error on malformed input. The result is finalized.
  static std::optional<RoadNetwork> LoadFromEdgeListFile(
      const std::string& path, std::string* error);
  bool SaveToEdgeListFile(const std::string& path) const;

 private:
  std::vector<Point> nodes_;
  std::vector<Edge> edges_;
  std::size_t clamped_edges_ = 0;

  // CSR adjacency, valid after Finalize().
  bool finalized_ = false;
  std::vector<std::uint32_t> adj_offsets_;
  std::vector<AdjacencyEntry> adj_entries_;
};

}  // namespace msq

#endif  // MSQ_GRAPH_ROAD_NETWORK_H_
