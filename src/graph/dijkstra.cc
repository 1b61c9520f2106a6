#include "graph/dijkstra.h"

#include <algorithm>
#include <functional>

#include "common/check.h"
#include "obs/metrics.h"

namespace msq {
namespace {

// Cached at load so the settle path pays one load + increment.
obs::Counter* const g_settled = obs::GlobalMetrics().counter(
    obs::metric::kSettledNodes);
obs::Gauge* const g_heap_peak = obs::GlobalMetrics().gauge(
    obs::metric::kHeapPeak);

}  // namespace

DijkstraSearch::DijkstraSearch(const GraphPager* pager, Location source)
    : pager_(pager), source_(source) {
  MSQ_CHECK(pager != nullptr);
  const RoadNetwork& network = pager->network();
  MSQ_CHECK(network.IsValidLocation(source));
  dist_.assign(network.node_count(), kInfDist);
  settled_.assign(network.node_count(), 0);

  // Seed the wavefront with the source edge's endpoints.
  const RoadNetwork::Edge& e = network.EdgeAt(source.edge);
  const auto [du, dv] = network.EndpointDistances(source);
  if (du < dist_[e.u]) {
    dist_[e.u] = du;
    HeapPush(HeapItem{du, e.u});
  }
  if (dv < dist_[e.v]) {
    dist_[e.v] = dv;
    HeapPush(HeapItem{dv, e.v});
  }
}

DijkstraSearch::DijkstraSearch(const GraphPager* pager, Location source,
                               const Checkpoint& checkpoint)
    : pager_(pager), source_(source) {
  MSQ_CHECK(pager != nullptr);
  const RoadNetwork& network = pager->network();
  MSQ_CHECK(network.IsValidLocation(source));
  MSQ_CHECK(checkpoint.dist.size() == network.node_count());
  MSQ_CHECK(checkpoint.settled.size() == network.node_count());
  dist_ = checkpoint.dist;
  settled_ = checkpoint.settled;
  heap_ = checkpoint.frontier;
  settled_count_ = checkpoint.settled_count;
}

DijkstraSearch::Checkpoint DijkstraSearch::MakeCheckpoint() const {
  Checkpoint checkpoint;
  checkpoint.dist = dist_;
  checkpoint.settled = settled_;
  checkpoint.frontier = heap_;
  checkpoint.settled_count = settled_count_;
  return checkpoint;
}

void DijkstraSearch::HeapPush(HeapItem item) {
  heap_.push_back(item);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void DijkstraSearch::HeapPop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  heap_.pop_back();
}

void DijkstraSearch::CleanTop() {
  while (!heap_.empty()) {
    const HeapItem top = heap_.front();
    if (settled_[top.node] || top.dist > dist_[top.node]) {
      HeapPop();
      continue;
    }
    return;
  }
}

Dist DijkstraSearch::Radius() {
  CleanTop();
  return heap_.empty() ? kInfDist : heap_.front().dist;
}

Dist DijkstraSearch::Label(NodeId node) const {
  MSQ_CHECK(node < dist_.size());
  return dist_[node];
}

bool DijkstraSearch::IsSettled(NodeId node) const {
  MSQ_CHECK(node < settled_.size());
  return settled_[node] != 0;
}

void DijkstraSearch::Expand(NodeId node, Dist dist) {
  OkOrThrow(pager_->AdjacencyOf(node, &scratch_adjacency_));
  for (const AdjacencyEntry& adj : scratch_adjacency_) {
    if (settled_[adj.neighbor]) continue;
    const Dist candidate = dist + adj.length;
    if (candidate < dist_[adj.neighbor]) {
      dist_[adj.neighbor] = candidate;
      HeapPush(HeapItem{candidate, adj.neighbor});
    }
  }
}

std::optional<DijkstraSearch::Settled> DijkstraSearch::NextSettled() {
  CleanTop();
  if (heap_.empty()) return std::nullopt;
  const HeapItem top = heap_.front();
  HeapPop();
  settled_[top.node] = 1;
  ++settled_count_;
  g_settled->Inc();
  ++obs::ThreadLocalCounters().settled_nodes;
  Expand(top.node, top.dist);
  // Settle granularity keeps the gauge off the per-relaxation path; the
  // heap grows by at most one node degree between settles.
  g_heap_peak->Update(static_cast<double>(heap_.size()));
  obs::ThreadLocalCounters().UpdateHeap(static_cast<double>(heap_.size()));
  return Settled{top.node, top.dist, scratch_adjacency_};
}

Dist DijkstraSearch::DistanceTo(const Location& target) {
  const RoadNetwork& network = pager_->network();
  MSQ_CHECK(network.IsValidLocation(target));
  const RoadNetwork::Edge& e = network.EdgeAt(target.edge);
  const auto [tu, tv] = network.EndpointDistances(target);

  // Direct along-edge path when source and target share an edge.
  Dist best = kInfDist;
  if (target.edge == source_.edge) {
    best = std::abs(target.offset - source_.offset);
  }

  if (settled_[e.u]) best = std::min(best, dist_[e.u] + tu);
  if (settled_[e.v]) best = std::min(best, dist_[e.v] + tv);

  // Expand until every remaining node is farther than the best known path:
  // any later endpoint settlement would contribute >= Radius() >= best.
  while (Radius() < best) {
    const auto settled = NextSettled();
    if (!settled.has_value()) break;
    if (settled->node == e.u) best = std::min(best, settled->distance + tu);
    if (settled->node == e.v) best = std::min(best, settled->distance + tv);
  }
  return best;
}

}  // namespace msq
