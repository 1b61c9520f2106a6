#include "core/aggregate_nn.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "common/check.h"
#include "core/naive.h"
#include "graph/astar.h"
#include "index/rtree.h"

namespace msq {
namespace {

// Keeps the best-k entries seen so far (max-heap on score).
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) {}

  void Offer(AggregateNnResult::Entry entry) {
    if (!std::isfinite(entry.score)) return;
    if (heap_.size() < k_) {
      heap_.push(std::move(entry));
      return;
    }
    if (entry.score < heap_.top().score) {
      heap_.pop();
      heap_.push(std::move(entry));
    }
  }

  // k-th best score so far (worst retained); kInfDist while under-full.
  Dist Threshold() const {
    return heap_.size() < k_ ? kInfDist : heap_.top().score;
  }

  std::vector<AggregateNnResult::Entry> Extract() {
    std::vector<AggregateNnResult::Entry> entries;
    entries.reserve(heap_.size());
    while (!heap_.empty()) {
      entries.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(entries.begin(), entries.end());
    return entries;
  }

 private:
  struct ByScore {
    bool operator()(const AggregateNnResult::Entry& a,
                    const AggregateNnResult::Entry& b) const {
      return a.score < b.score;
    }
  };
  std::size_t k_;
  std::priority_queue<AggregateNnResult::Entry,
                      std::vector<AggregateNnResult::Entry>, ByScore>
      heap_;
};

}  // namespace

Dist AggregateScore(AggregateFn fn, const DistVector& distances) {
  Dist score = 0.0;
  for (const Dist d : distances) {
    switch (fn) {
      case AggregateFn::kSum:
        score += d;
        break;
      case AggregateFn::kMax:
        score = std::max(score, d);
        break;
    }
  }
  return score;
}

AggregateNnResult RunAggregateNnNaive(const Dataset& dataset,
                                      const SkylineQuerySpec& spec,
                                      AggregateFn fn, std::size_t k) {
  // Extension algorithms keep the abort-on-invalid contract; only the
  // paper's main entry points degrade gracefully.
  MSQ_CHECK(ValidateQuery(dataset, spec).ok());
  StatsScope scope(dataset, spec.trace, "ann.naive");
  AggregateNnResult result;

  const auto vectors = ComputeAllNetworkVectors(dataset, spec);
  TopK top_k(k);
  for (ObjectId id = 0; id < vectors.size(); ++id) {
    AggregateNnResult::Entry entry;
    entry.object = id;
    entry.distances = vectors[id];
    entry.score = AggregateScore(fn, vectors[id]);
    top_k.Offer(std::move(entry));
  }
  result.entries = top_k.Extract();
  result.stats.candidate_count = dataset.object_count();
  scope.Finish(&result.stats);
  return result;
}

AggregateNnResult RunAggregateNnIer(const Dataset& dataset,
                                    const SkylineQuerySpec& spec,
                                    AggregateFn fn, std::size_t k) {
  // Extension algorithms keep the abort-on-invalid contract; only the
  // paper's main entry points degrade gracefully.
  MSQ_CHECK(ValidateQuery(dataset, spec).ok());
  StatsScope scope(dataset, spec.trace, "ann.ier");
  AggregateNnResult result;

  const std::size_t n = spec.sources.size();
  std::vector<Point> query_points;
  query_points.reserve(n);
  std::vector<std::unique_ptr<AStarSearch>> searches;
  for (const Location& source : spec.sources) {
    query_points.push_back(dataset.network->LocationPosition(source));
    searches.push_back(std::make_unique<AStarSearch>(
        dataset.graph_pager, source, dataset.landmarks));
  }

  // Best-first browse of the object R-tree by aggregate Euclidean
  // distance, a lower bound on the aggregate network distance.
  struct QueueItem {
    Dist bound;
    bool is_node;
    PageId page;
    ObjectId object;
    bool operator>(const QueueItem& other) const {
      return bound > other.bound;
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>
      queue;
  auto enqueue_node = [&](PageId page) {
    const RTreeNode node = dataset.object_rtree->ReadNode(page);
    for (const RTreeEntry& e : node.entries) {
      DistVector lb;
      lb.reserve(n);
      for (const Point& q : query_points) lb.push_back(e.mbr.MinDist(q));
      QueueItem item;
      item.bound = AggregateScore(fn, lb);
      item.is_node = !node.is_leaf;
      item.page = node.is_leaf ? kInvalidPage : e.id;
      item.object = node.is_leaf ? e.id : kInvalidObject;
      queue.push(item);
    }
  };
  enqueue_node(dataset.object_rtree->root_page());

  TopK top_k(k);
  while (!queue.empty()) {
    const QueueItem top = queue.top();
    queue.pop();
    // Termination: everything unfetched has aggregate Euclidean distance
    // >= top.bound, and aggregate network distance >= that.
    if (top.bound >= top_k.Threshold()) break;
    if (top.is_node) {
      enqueue_node(top.page);
      continue;
    }
    ++result.stats.candidate_count;
    AggregateNnResult::Entry entry;
    entry.object = top.object;
    entry.distances.reserve(n);
    const Location& loc = dataset.mapping->ObjectLocation(top.object);
    for (auto& search : searches) {
      entry.distances.push_back(search->DistanceTo(loc));
    }
    if (!AllFinite(entry.distances)) continue;
    entry.score = AggregateScore(fn, entry.distances);
    top_k.Offer(std::move(entry));
  }

  result.entries = top_k.Extract();
  scope.Finish(&result.stats);
  return result;
}

}  // namespace msq
