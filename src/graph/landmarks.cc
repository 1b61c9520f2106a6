#include "graph/landmarks.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace msq {

LandmarkIndex::LandmarkIndex(const RoadNetwork* network, std::size_t count,
                             std::uint64_t seed)
    : network_(network) {
  MSQ_CHECK(network != nullptr);
  MSQ_CHECK(network->finalized());
  MSQ_CHECK(network->node_count() > 0);
  count = std::min(count, network->node_count());

  // Farthest-point sampling: start from a random node, then repeatedly
  // take the node maximizing the distance to the chosen set (unreachable
  // nodes excluded — they would produce useless all-infinite columns).
  Rng rng(seed);
  NodeId current =
      static_cast<NodeId>(rng.NextBounded(network->node_count()));
  std::vector<Dist> to_set;  // min distance to any chosen landmark
  for (std::size_t i = 0; i < count; ++i) {
    landmarks_.push_back(current);
    distances_.push_back(network->NodeDistances(current));
    const std::vector<Dist>& latest = distances_.back();
    if (i == 0) {
      to_set = latest;
    } else {
      for (NodeId v = 0; v < to_set.size(); ++v) {
        to_set[v] = std::min(to_set[v], latest[v]);
      }
    }
    // Pick the farthest reachable node as the next landmark.
    NodeId best = kInvalidNode;
    Dist best_dist = -1.0;
    for (NodeId v = 0; v < to_set.size(); ++v) {
      if (std::isfinite(to_set[v]) && to_set[v] > best_dist) {
        best_dist = to_set[v];
        best = v;
      }
    }
    if (best == kInvalidNode || best_dist <= 0.0) break;  // exhausted
    current = best;
  }
}

void LandmarkIndex::Resweep() {
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    distances_[i] = network_->NodeDistances(landmarks_[i]);
  }
}

Dist LandmarkIndex::LandmarkDistance(std::size_t i, NodeId node) const {
  MSQ_CHECK(i < distances_.size());
  MSQ_CHECK(node < distances_[i].size());
  return distances_[i][node];
}

Dist LandmarkIndex::LandmarkDistance(std::size_t i,
                                     const Location& loc) const {
  const RoadNetwork::Edge& e = network_->EdgeAt(loc.edge);
  const auto [du, dv] = network_->EndpointDistances(loc);
  return std::min(LandmarkDistance(i, e.u) + du,
                  LandmarkDistance(i, e.v) + dv);
}

Dist LandmarkIndex::LowerBound(NodeId node, const Location& target) const {
  Dist bound = 0.0;
  for (std::size_t i = 0; i < distances_.size(); ++i) {
    const Dist to_node = distances_[i][node];
    const Dist to_target = LandmarkDistance(i, target);
    if (!std::isfinite(to_node) || !std::isfinite(to_target)) continue;
    bound = std::max(bound, std::abs(to_node - to_target));
  }
  return bound;
}

Dist LandmarkIndex::LowerBound(const Location& a, const Location& b) const {
  Dist bound = 0.0;
  for (std::size_t i = 0; i < distances_.size(); ++i) {
    const Dist da = LandmarkDistance(i, a);
    const Dist db = LandmarkDistance(i, b);
    if (!std::isfinite(da) || !std::isfinite(db)) continue;
    bound = std::max(bound, std::abs(da - db));
  }
  return bound;
}

}  // namespace msq
