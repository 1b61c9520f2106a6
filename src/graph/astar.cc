#include "graph/astar.h"

#include <algorithm>
#include <cmath>
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

AStarSearch::AStarSearch(const GraphPager* pager, Location source,
                         const LandmarkIndex* landmarks)
    : pager_(pager), source_(source), landmarks_(landmarks) {
  MSQ_CHECK(pager != nullptr);
  const RoadNetwork& network = pager->network();
  MSQ_CHECK(network.IsValidLocation(source));
  dist_.assign(network.node_count(), kInfDist);
  settled_.assign(network.node_count(), 0);

  const RoadNetwork::Edge& e = network.EdgeAt(source.edge);
  const auto [du, dv] = network.EndpointDistances(source);
  Improve(e.u, du);
  Improve(e.v, dv);
}

void AStarSearch::Improve(NodeId node, Dist dist) {
  if (settled_[node] || dist >= dist_[node]) return;
  dist_[node] = dist;
  frontier_.push_back(HeapItem{dist + Heuristic(node), dist, node});
  std::push_heap(frontier_.begin(), frontier_.end(), std::greater<>());
}

void AStarSearch::Settle(NodeId node, Dist dist) {
  MSQ_CHECK(!settled_[node]);
  settled_[node] = 1;
  ++settled_count_;
  max_settled_dist_ = std::max(max_settled_dist_, dist);
  g_settled->Inc();
  ++obs::ThreadLocalCounters().settled_nodes;
  OkOrThrow(pager_->AdjacencyOf(node, &scratch_adjacency_));
  for (const AdjacencyEntry& adj : scratch_adjacency_) {
    Improve(adj.neighbor, dist + adj.length);
  }
}

void AStarSearch::Retarget(const Location& target) {
  if (target == target_) return;
  target_ = target;
  target_point_ = pager_->network().LocationPosition(target);
  std::size_t live = 0;
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    const NodeId node = frontier_[i].node;
    const Dist d = frontier_[i].d;
    if (d > dist_[node]) continue;
    frontier_[live++] = HeapItem{d + Heuristic(node), d, node};
  }
  frontier_.resize(live);
  std::make_heap(frontier_.begin(), frontier_.end(), std::greater<>());
}

void AStarSearch::PopTop() {
  std::pop_heap(frontier_.begin(), frontier_.end(), std::greater<>());
  frontier_.pop_back();
}

void AStarSearch::CleanTop() {
  while (!frontier_.empty()) {
    const HeapItem& top = frontier_.front();
    if (top.d <= dist_[top.node]) return;
    PopTop();
  }
}

Dist AStarSearch::Heuristic(NodeId node) const {
  if (target_.edge == kInvalidEdge) return 0.0;
  const Point& p = pager_->network().NodePosition(node);
  // Remaining distance to the target point is at least the straight-line
  // distance (edge lengths are >= endpoint Euclidean distances).
  Dist bound = EuclideanDistance(p, target_point_);
  if (landmarks_ != nullptr) {
    bound = std::max(bound, landmarks_->LowerBound(node, target_));
  }
  return bound;
}

AStarSearch::Probe AStarSearch::NewProbe(const Location& target) {
  return Probe(this, target);
}

Dist AStarSearch::DistanceTo(const Location& target) {
  return NewProbe(target).Run();
}

AStarSearch::Probe::Probe(AStarSearch* parent, const Location& target)
    : parent_(parent), target_(target) {
  const RoadNetwork& network = parent->pager_->network();
  MSQ_CHECK(network.IsValidLocation(target));
  const RoadNetwork::Edge& e = network.EdgeAt(target.edge);
  end_u_ = e.u;
  end_v_ = e.v;
  const auto [tu, tv] = network.EndpointDistances(target);
  target_du_ = tu;
  target_dv_ = tv;
  direct_ = (target.edge == parent->source_.edge)
                ? std::abs(target.offset - parent->source_.offset)
                : kInfDist;
  // The initial plb is the Euclidean distance between source and target
  // (Section 4.3: "the initial path distance lower bound is the Euclidean
  // distance between vs and vd").
  plb_ = EuclideanDistance(network.LocationPosition(parent->source_),
                           network.LocationPosition(target));
  if (parent->landmarks_ != nullptr) {
    plb_ = std::max(plb_,
                    parent->landmarks_->LowerBound(parent->source_, target));
  }
  if (direct_ < kInfDist) plb_ = std::min(plb_, direct_);
}

Dist AStarSearch::Probe::CurrentBestTarget() const {
  Dist best = direct_;
  if (parent_->settled_[end_u_]) {
    best = std::min(best, parent_->dist_[end_u_] + target_du_);
  }
  if (parent_->settled_[end_v_]) {
    best = std::min(best, parent_->dist_[end_v_] + target_dv_);
  }
  return best;
}

Dist AStarSearch::Probe::Finish(Dist distance) {
  done_ = true;
  distance_ = distance;
  plb_ = distance;
  return plb_;
}

Dist AStarSearch::Probe::Advance() {
  if (done_) return plb_;
  if (!started_) {
    started_ = true;
    // Exactness shortcut: with both endpoints settled, every path to the
    // target enters through a node with a final label, so the best known
    // complete path is the exact distance and the frontier is irrelevant.
    // This makes probes into already-explored territory O(1) — the common
    // case for LBC's probe-per-(candidate, query point) pattern.
    if (parent_->settled_[end_u_] && parent_->settled_[end_v_]) {
      return Finish(CurrentBestTarget());
    }
  }
  parent_->Retarget(target_);
  parent_->CleanTop();
  const std::vector<HeapItem>& frontier = parent_->frontier_;

  const Dist best_target = CurrentBestTarget();
  if (frontier.empty() || frontier.front().f >= best_target) {
    // No remaining frontier node can begin a shorter path: the best known
    // complete path is the shortest (kInfDist when no path exists).
    return Finish(best_target);
  }

  const HeapItem top = frontier.front();
  parent_->PopTop();
  parent_->Settle(top.node, top.d);
  parent_->CleanTop();
  // Per-expansion granularity keeps the gauge off the relaxation path.
  g_heap_peak->Update(static_cast<double>(frontier.size()));
  obs::ThreadLocalCounters().UpdateHeap(static_cast<double>(frontier.size()));

  const Dist new_best = CurrentBestTarget();
  const Dist frontier_bound = frontier.empty() ? kInfDist : frontier.front().f;
  if (frontier_bound >= new_best) return Finish(new_best);
  // The frontier minimum is a valid lower bound on dN(source, target); it
  // is non-decreasing under a consistent heuristic.
  plb_ = std::max(plb_, std::min(frontier_bound, new_best));
  return plb_;
}

Dist AStarSearch::Probe::Run() {
  while (!done_) Advance();
  return distance_;
}

Dist AStarSearch::Probe::distance() const {
  MSQ_CHECK(done_);
  return distance_;
}

}  // namespace msq
