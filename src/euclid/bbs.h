// Branch-and-Bound-Skyline-style progressive multi-source Euclidean skyline
// over an R-tree (the extension of Papadias et al.'s BBS described in
// Section 4.2 of the paper).
//
// "Starting from the root of the R-tree, all accessed entries are kept in a
// heap ordered by their mindist", where mindist of an object is the SUM of
// its Euclidean distances to all query points and the mindist of an MBR is
// the sum of the per-query-point minimum distances. Leaf entries popped
// undominated are Euclidean skyline points, in ascending mindist order —
// which is what EDC's incremental variant consumes.
#ifndef MSQ_EUCLID_BBS_H_
#define MSQ_EUCLID_BBS_H_

#include <functional>
#include <queue>
#include <vector>

#include "core/dominance.h"
#include "geom/point.h"
#include "index/rtree.h"

namespace msq {

class EuclideanSkylineBrowser {
 public:
  // Optional external pruning on top of skyline dominance. EDC's
  // incremental variant prunes entries lying entirely inside regions whose
  // objects were already fetched.
  using PrunePredicate =
      std::function<bool(const RTreeEntry& entry, bool is_leaf_entry)>;

  // Optional static attributes: `attr_of` supplies the exact attribute
  // vector of a leaf object and `min_attrs` a component-wise lower bound
  // valid for every object (used for internal entries). When supplied, the
  // browser's vectors are distance dims followed by attribute dims and the
  // skyline is computed over the combined vector.
  using AttributeProvider = std::function<DistVector(ObjectId)>;

  EuclideanSkylineBrowser(const RTree* tree, std::vector<Point> queries,
                          PrunePredicate prune = nullptr,
                          AttributeProvider attr_of = nullptr,
                          DistVector min_attrs = {});

  struct Item {
    bool found = false;
    ObjectId object = kInvalidObject;
    Point position;
    // Exact Euclidean distances to the query points, followed by the static
    // attributes when an AttributeProvider was supplied.
    DistVector vector;
  };

  // Returns the next Euclidean skyline point (ascending sum of distances),
  // or found=false when exhausted.
  Item Next();

 private:
  struct QueueItem {
    Dist mindist_sum;
    bool is_node;
    PageId page;
    RTreeEntry entry;
    DistVector lower_bound;
  };
  struct QueueCmp {
    bool operator()(const QueueItem& a, const QueueItem& b) const {
      return a.mindist_sum > b.mindist_sum;
    }
  };

  // Lower-bound vector of an entry (exact for leaf points), into `lb`.
  void LowerBoundVector(const RTreeEntry& entry, bool is_leaf,
                        DistVector* lb) const;
  bool DominatedByReported(const DistVector& lb) const;
  void EnqueueNode(PageId page);

  const RTree* tree_;
  std::vector<Point> queries_;
  PrunePredicate prune_;
  AttributeProvider attr_of_;
  DistVector min_attrs_;
  std::priority_queue<QueueItem, std::vector<QueueItem>, QueueCmp> queue_;
  VectorRows reported_;  // vectors of the skyline points reported so far
  DistVector scratch_lb_;
};

}  // namespace msq

#endif  // MSQ_EUCLID_BBS_H_
