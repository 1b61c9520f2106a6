#include "graph/nn_stream.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.h"
#include "obs/metrics.h"

namespace msq {
namespace {

obs::Gauge* const g_heap_peak = obs::GlobalMetrics().gauge(
    obs::metric::kHeapPeak);

}  // namespace

NetworkNnStream::NetworkNnStream(const GraphPager* pager,
                                 const SpatialMapping* mapping,
                                 Location source, const Snapshot* resume,
                                 EdgeObjectMemo* memo)
    : search_(resume != nullptr
                  ? DijkstraSearch(pager, source, resume->search)
                  : DijkstraSearch(pager, source)),
      mapping_(mapping),
      own_memo_(memo == nullptr ? std::make_unique<EdgeObjectMemo>(mapping)
                                : nullptr),
      memo_(memo == nullptr ? own_memo_.get() : memo) {
  MSQ_CHECK(mapping != nullptr);
  emitted_.assign(mapping->object_count(), 0);

  if (resume != nullptr) {
    // Resume: the snapshot's per-object estimates already include every
    // offer made while its wavefront grew (source-edge objects included).
    // Re-seed the emission heap from them; expansion continues from the
    // checkpointed frontier only when the radius must grow. Objects
    // inserted since the snapshot are padded as undiscovered: the cache
    // keeps a snapshot across an insert only when no settled node and not
    // the source edge touches the new object's edge (DESIGN.md §16).
    MSQ_CHECK(resume->object_best.size() <= mapping->object_count());
    best_ = resume->object_best;
    best_.resize(mapping->object_count(), kInfDist);
    heap_.reserve(best_.size());
    for (ObjectId id = 0; id < best_.size(); ++id) {
      if (std::isfinite(best_[id])) heap_.push_back(HeapItem{best_[id], id});
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    return;
  }

  best_.assign(mapping->object_count(), kInfDist);
  // Objects sharing the source edge are reachable directly along it.
  for (const EdgeObject& obj : ValueOrThrow(memo_->Get(source.edge))) {
    Offer(obj.object, std::abs(obj.dist_u - source.offset));
  }
}

NetworkNnStream::Snapshot NetworkNnStream::MakeSnapshot() const {
  Snapshot snapshot;
  snapshot.search = search_.MakeCheckpoint();
  snapshot.object_best = best_;
  return snapshot;
}

void NetworkNnStream::HeapPush(HeapItem item) {
  heap_.push_back(item);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void NetworkNnStream::HeapPop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  heap_.pop_back();
}

void NetworkNnStream::Offer(ObjectId object, Dist dist) {
  if (emitted_[object] || dist >= best_[object]) return;
  best_[object] = dist;
  HeapPush(HeapItem{dist, object});
}

void NetworkNnStream::ProbeEdge(EdgeId edge, NodeId node, Dist node_dist) {
  // Most edges carry no object; their middle-layer lookup would touch the
  // B+-tree only to come back empty.
  if (!mapping_->HasObjects(edge)) return;
  const std::span<const EdgeObject> objects = ValueOrThrow(memo_->Get(edge));
  if (objects.empty()) return;
  const RoadNetwork::Edge& e = mapping_->network().EdgeAt(edge);
  const bool node_is_u = (e.u == node);
  MSQ_DCHECK(node_is_u || e.v == node);
  for (const EdgeObject& obj : objects) {
    Offer(obj.object, node_dist + (node_is_u ? obj.dist_u : obj.dist_v));
  }
}

std::optional<NetworkNnStream::Visit> NetworkNnStream::Next() {
  for (;;) {
    // Drop stale heap entries.
    while (!heap_.empty()) {
      const HeapItem& top = heap_.front();
      if (emitted_[top.object] || top.dist > best_[top.object]) {
        HeapPop();
        continue;
      }
      break;
    }

    // The top object's distance is final once it is strictly inside the
    // wavefront radius: any unsettled endpoint has distance >= radius, so
    // no path through it can be shorter. STRICT < matters: once radius
    // exceeds d, every node with label <= d has settled and therefore
    // every object at distance d has been offered — ties then emit in
    // ascending id, making the whole sequence lexicographic in (dist, id).
    // Emitting at equality (<=) would release an already-offered object
    // ahead of its not-yet-discovered distance twins, an order a resumed
    // stream (which seeds all known objects at once) cannot reproduce.
    if (!heap_.empty() && heap_.front().dist < search_.Radius()) {
      const HeapItem top = heap_.front();
      HeapPop();
      emitted_[top.object] = 1;
      // Emission granularity keeps the gauge off the per-offer path.
      g_heap_peak->Update(static_cast<double>(heap_.size()));
      obs::ThreadLocalCounters().UpdateHeap(static_cast<double>(heap_.size()));
      return Visit{top.object, top.dist};
    }

    const auto settled = search_.NextSettled();
    if (!settled.has_value()) {
      // Wavefront exhausted; everything still in the heap is final.
      if (heap_.empty()) return std::nullopt;
      continue;
    }
    // Probe every incident edge from this (now exact) endpoint, reading
    // the adjacency the wavefront decoded to settle it.
    for (const AdjacencyEntry& adj : settled->adjacency) {
      ProbeEdge(adj.edge, settled->node, settled->distance);
    }
  }
}

}  // namespace msq
