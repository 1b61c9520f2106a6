#include "euclid/bbs.h"

#include <numeric>

#include "common/check.h"

namespace msq {

EuclideanSkylineBrowser::EuclideanSkylineBrowser(const RTree* tree,
                                                 std::vector<Point> queries,
                                                 PrunePredicate prune,
                                                 AttributeProvider attr_of,
                                                 DistVector min_attrs)
    : tree_(tree),
      queries_(std::move(queries)),
      prune_(std::move(prune)),
      attr_of_(std::move(attr_of)),
      min_attrs_(std::move(min_attrs)),
      reported_(queries_.size() + (attr_of_ ? min_attrs_.size() : 0)) {
  MSQ_CHECK(tree != nullptr);
  MSQ_CHECK(!queries_.empty());
  EnqueueNode(tree_->root_page());
}

void EuclideanSkylineBrowser::LowerBoundVector(const RTreeEntry& entry,
                                               bool is_leaf,
                                               DistVector* lb) const {
  lb->clear();
  for (const Point& q : queries_) lb->push_back(entry.mbr.MinDist(q));
  if (attr_of_) {
    if (is_leaf) {
      const DistVector attrs = attr_of_(entry.id);
      lb->insert(lb->end(), attrs.begin(), attrs.end());
    } else {
      lb->insert(lb->end(), min_attrs_.begin(), min_attrs_.end());
    }
  }
}

bool EuclideanSkylineBrowser::DominatedByReported(const DistVector& lb) const {
  return FirstDominator(reported_, lb, 0.0) < reported_.size();
}

void EuclideanSkylineBrowser::EnqueueNode(PageId page) {
  const RTreeNode node = tree_->ReadNode(page);
  for (const RTreeEntry& e : node.entries) {
    // Dominated entries are dropped before their bound is copied out of
    // the scratch vector.
    LowerBoundVector(e, node.is_leaf, &scratch_lb_);
    if (DominatedByReported(scratch_lb_)) continue;
    if (prune_ && prune_(e, node.is_leaf)) continue;
    QueueItem item;
    item.lower_bound = scratch_lb_;
    item.mindist_sum = std::accumulate(item.lower_bound.begin(),
                                       item.lower_bound.end(), 0.0);
    item.is_node = !node.is_leaf;
    item.page = node.is_leaf ? kInvalidPage : e.id;
    item.entry = e;
    queue_.push(std::move(item));
  }
}

EuclideanSkylineBrowser::Item EuclideanSkylineBrowser::Next() {
  while (!queue_.empty()) {
    QueueItem top = queue_.top();
    queue_.pop();
    // Re-check against the (possibly grown) reported set and the caller's
    // pruning state.
    if (DominatedByReported(top.lower_bound)) continue;
    if (prune_ && prune_(top.entry, !top.is_node)) continue;
    if (top.is_node) {
      EnqueueNode(top.page);
      continue;
    }
    // Leaf entries store points, so the lower bound is the exact vector.
    Item item;
    item.found = true;
    item.object = top.entry.id;
    item.position = top.entry.mbr.Center();
    item.vector = std::move(top.lower_bound);
    reported_.Append(item.vector);
    return item;
  }
  return Item{};
}

}  // namespace msq
