#include "graph/road_network.h"

#include <algorithm>
#include <cstdio>
#include <deque>

#include "common/check.h"

namespace msq {

NodeId RoadNetwork::AddNode(Point position) {
  MSQ_CHECK(!finalized_);
  nodes_.push_back(position);
  return static_cast<NodeId>(nodes_.size() - 1);
}

EdgeId RoadNetwork::AddEdge(NodeId u, NodeId v, Dist length) {
  MSQ_CHECK(!finalized_);
  MSQ_CHECK(u < nodes_.size() && v < nodes_.size());
  if (u == v) return kInvalidEdge;
  const Dist euclid = EuclideanDistance(nodes_[u], nodes_[v]);
  Dist final_length = length;
  if (final_length <= 0.0) {
    final_length = euclid;
  } else if (final_length < euclid) {
    final_length = euclid;
    ++clamped_edges_;
  }
  edges_.push_back(Edge{u, v, final_length});
  return static_cast<EdgeId>(edges_.size() - 1);
}

void RoadNetwork::Finalize() {
  if (finalized_) return;
  std::vector<std::uint32_t> degrees(nodes_.size() + 1, 0);
  for (const Edge& e : edges_) {
    ++degrees[e.u];
    ++degrees[e.v];
  }
  adj_offsets_.assign(nodes_.size() + 1, 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    adj_offsets_[i + 1] = adj_offsets_[i] + degrees[i];
  }
  adj_entries_.resize(adj_offsets_.back());
  std::vector<std::uint32_t> cursor(adj_offsets_.begin(),
                                    adj_offsets_.end() - 1);
  for (EdgeId id = 0; id < edges_.size(); ++id) {
    const Edge& e = edges_[id];
    adj_entries_[cursor[e.u]++] = AdjacencyEntry{e.v, id, e.length};
    adj_entries_[cursor[e.v]++] = AdjacencyEntry{e.u, id, e.length};
  }
  finalized_ = true;
}

Dist RoadNetwork::UpdateEdgeLength(EdgeId id, Dist length) {
  MSQ_CHECK(finalized_);
  MSQ_CHECK(id < edges_.size());
  Edge& e = edges_[id];
  const Dist euclid = EuclideanDistance(nodes_[e.u], nodes_[e.v]);
  Dist final_length = length;
  if (final_length <= 0.0) {
    final_length = euclid;
  } else if (final_length < euclid) {
    final_length = euclid;
    ++clamped_edges_;
  }
  e.length = final_length;
  for (const NodeId endpoint : {e.u, e.v}) {
    for (std::uint32_t i = adj_offsets_[endpoint];
         i < adj_offsets_[endpoint + 1]; ++i) {
      if (adj_entries_[i].edge == id) adj_entries_[i].length = final_length;
    }
  }
  return final_length;
}

const Point& RoadNetwork::NodePosition(NodeId id) const {
  MSQ_CHECK(id < nodes_.size());
  return nodes_[id];
}

const RoadNetwork::Edge& RoadNetwork::EdgeAt(EdgeId id) const {
  MSQ_CHECK(id < edges_.size());
  return edges_[id];
}

Segment RoadNetwork::EdgeSegment(EdgeId id) const {
  const Edge& e = EdgeAt(id);
  return Segment{nodes_[e.u], nodes_[e.v]};
}

Mbr RoadNetwork::EdgeMbr(EdgeId id) const {
  const Edge& e = EdgeAt(id);
  return Mbr::FromSegment(nodes_[e.u], nodes_[e.v]);
}

std::span<const AdjacencyEntry> RoadNetwork::Adjacent(NodeId node) const {
  MSQ_CHECK(finalized_);
  MSQ_CHECK(node < nodes_.size());
  return std::span<const AdjacencyEntry>(
      adj_entries_.data() + adj_offsets_[node],
      adj_offsets_[node + 1] - adj_offsets_[node]);
}

bool RoadNetwork::IsValidLocation(const Location& loc) const {
  if (loc.edge >= edges_.size()) return false;
  return loc.offset >= 0.0 && loc.offset <= edges_[loc.edge].length;
}

Point RoadNetwork::LocationPosition(const Location& loc) const {
  MSQ_CHECK(IsValidLocation(loc));
  const Edge& e = edges_[loc.edge];
  // Edges are rendered as straight segments; for clamped lengths the
  // parameterization scales linearly along the chord.
  if (e.length <= 0.0) return nodes_[e.u];
  return Lerp(nodes_[e.u], nodes_[e.v], loc.offset / e.length);
}

std::pair<Dist, Dist> RoadNetwork::EndpointDistances(
    const Location& loc) const {
  MSQ_CHECK(IsValidLocation(loc));
  const Edge& e = edges_[loc.edge];
  return {loc.offset, e.length - loc.offset};
}

Location RoadNetwork::SnapToEdge(EdgeId edge, const Point& p) const {
  const Edge& e = EdgeAt(edge);
  const Segment seg = EdgeSegment(edge);
  const Dist seg_len = seg.Length();
  Dist offset = 0.0;
  if (seg_len > 0.0) {
    // Scale the chord offset to the (possibly longer) network length.
    offset = seg.ClosestOffset(p) / seg_len * e.length;
  }
  return Location{edge, std::clamp(offset, 0.0, e.length)};
}

Mbr RoadNetwork::BoundingBox() const {
  Mbr box = Mbr::Empty();
  for (const Point& p : nodes_) box.Extend(p);
  return box;
}

std::pair<std::vector<std::uint32_t>, std::uint32_t>
RoadNetwork::ConnectedComponents() const {
  MSQ_CHECK(finalized_);
  constexpr std::uint32_t kUnvisited = 0xffffffffu;
  std::vector<std::uint32_t> label(nodes_.size(), kUnvisited);
  std::uint32_t components = 0;
  std::deque<NodeId> queue;
  for (NodeId start = 0; start < nodes_.size(); ++start) {
    if (label[start] != kUnvisited) continue;
    const std::uint32_t comp = components++;
    label[start] = comp;
    queue.push_back(start);
    while (!queue.empty()) {
      const NodeId node = queue.front();
      queue.pop_front();
      for (const AdjacencyEntry& adj : Adjacent(node)) {
        if (label[adj.neighbor] == kUnvisited) {
          label[adj.neighbor] = comp;
          queue.push_back(adj.neighbor);
        }
      }
    }
  }
  return {std::move(label), components};
}

bool RoadNetwork::IsConnected() const {
  if (nodes_.empty()) return true;
  return ConnectedComponents().second == 1;
}

std::optional<RoadNetwork> RoadNetwork::LoadFromEdgeListFile(
    const std::string& path, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  auto fail = [&](const std::string& msg) -> std::optional<RoadNetwork> {
    if (error != nullptr) *error = msg + " in " + path;
    std::fclose(file);
    return std::nullopt;
  };

  char line[256];
  auto next_line = [&]() -> bool {
    while (std::fgets(line, sizeof(line), file) != nullptr) {
      // Skip blank and comment lines.
      const char* s = line;
      while (*s == ' ' || *s == '\t') ++s;
      if (*s == '\n' || *s == '\0' || *s == '#') continue;
      return true;
    }
    return false;
  };

  std::size_t n = 0, m = 0;
  if (!next_line() || std::sscanf(line, "%zu %zu", &n, &m) != 2) {
    return fail("malformed header (expected 'N M')");
  }
  RoadNetwork network;
  for (std::size_t i = 0; i < n; ++i) {
    double x, y;
    if (!next_line() || std::sscanf(line, "%lf %lf", &x, &y) != 2) {
      return fail("malformed node line");
    }
    network.AddNode(Point{x, y});
  }
  for (std::size_t i = 0; i < m; ++i) {
    // Length is optional; a bare "u v" line uses the Euclidean length.
    unsigned long u, v;
    double length = 0.0;
    if (!next_line()) return fail("missing edge line");
    const int fields = std::sscanf(line, "%lu %lu %lf", &u, &v, &length);
    if (fields < 2) return fail("malformed edge line");
    if (fields == 2) length = 0.0;
    if (u >= n || v >= n) return fail("edge endpoint out of range");
    if (u == v) return fail("self-loop edge");
    network.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v), length);
  }
  std::fclose(file);
  network.Finalize();
  return network;
}

bool RoadNetwork::SaveToEdgeListFile(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "%zu %zu\n", nodes_.size(), edges_.size());
  for (const Point& p : nodes_) {
    std::fprintf(file, "%.17g %.17g\n", p.x, p.y);
  }
  for (const Edge& e : edges_) {
    std::fprintf(file, "%u %u %.17g\n", e.u, e.v, e.length);
  }
  std::fclose(file);
  return true;
}

std::vector<Dist> RoadNetwork::NodeDistances(NodeId source, EdgeId skip,
                                             Dist radius) const {
  struct Item {
    Dist dist;
    NodeId node;
  };
  const auto later = [](const Item& a, const Item& b) {
    return a.dist > b.dist;
  };
  std::vector<Dist> dist(node_count(), kInfDist);
  std::vector<Item> heap;
  dist[source] = 0.0;
  heap.push_back({0.0, source});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Item top = heap.back();
    heap.pop_back();
    if (top.dist > dist[top.node]) continue;
    if (top.dist > radius) break;
    for (const AdjacencyEntry& adj : Adjacent(top.node)) {
      const Dist next = top.dist + adj.length;
      if (next < dist[adj.neighbor] && adj.edge != skip) {
        dist[adj.neighbor] = next;
        heap.push_back({next, adj.neighbor});
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
  return dist;
}

}  // namespace msq
