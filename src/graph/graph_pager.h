// Disk layout + paged access path for road-network adjacency lists.
//
// Section 6.1 of the paper: "the adjacency lists of the network nodes are
// clustered on the disk to minimize the I/O cost during network distance
// computation". We order nodes along a grid-major (Z-like) space-filling
// ordering of their coordinates, pack adjacency records sequentially into
// 4 KB pages, and serve every adjacency access through a BufferManager —
// so the "network disk pages accessed" metric of Figures 5 and 6 is a real
// buffer-miss count.
//
// Node coordinates (needed for A*'s Euclidean heuristic) stay in memory,
// mirroring the common SNDB setup where the paged "environment data" is the
// adjacency structure; only adjacency access is charged I/O.
#ifndef MSQ_GRAPH_GRAPH_PAGER_H_
#define MSQ_GRAPH_GRAPH_PAGER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "graph/road_network.h"
#include "storage/buffer_manager.h"

namespace msq {

// How adjacency records are assigned to pages. kMorton is the seed
// behavior: the pager sorts nodes by Morton (Z-order) key of their
// coordinates before packing. kAsIs packs in node-id order and trusts the
// dataset builder to have already relabeled node ids in a
// locality-preserving (Hilbert) order — see gen/network_gen.h.
enum class NodeOrdering {
  kMorton,
  kAsIs,
};

// On-page record encoding. kRow is the seed format (u32 degree, then
// fixed 16-byte neighbor triples). kCsr delta-encodes neighbor ids
// (zigzag varints against the node id, then the previous neighbor),
// delta-encodes edge ids (ascending within a list by construction), and
// elides lengths that bit-equal the endpoints' Euclidean distance — a
// CSR-style compressed row that fits 2-4x more nodes per page. Pages
// carry a format-versioned header; the out-of-band CRC page trailer of
// FileDiskManager applies to both formats unchanged.
enum class AdjacencyFormat {
  kRow,
  kCsr,
};

// What one data-epoch step changed. The mutation orchestrator
// (gen/workloads.h) names one with every bump, so cached traversal state
// can be carried over the step instead of dropped (QueryCache::Maintain,
// DESIGN.md §16).
struct DataChange {
  enum class Kind : std::uint8_t {
    // Anything the other kinds cannot describe, a failed mutation included:
    // nothing cached carries over it.
    kUnknown,
    // `edge` changed length from `old_length` to its current length.
    kEdgeLength,
    // `object` was inserted (a fresh id).
    kInsertObject,
    // `object` was tombstoned.
    kDeleteObject,
  };
  Kind kind = Kind::kUnknown;
  EdgeId edge = kInvalidEdge;
  ObjectId object = kInvalidObject;
  Dist old_length = 0.0;
  // kEdgeLength: whether objects lay on `edge` when it changed.
  bool edge_has_objects = false;
};

// One step: the data epoch advanced from `from_epoch` to
// `to_epoch` because of `change`.
struct DataStep {
  std::uint64_t from_epoch = 0;
  std::uint64_t to_epoch = 0;
  DataChange change;
};

struct GraphPagerOptions {
  NodeOrdering ordering = NodeOrdering::kMorton;
  AdjacencyFormat format = AdjacencyFormat::kRow;
};

class GraphPager {
 public:
  // Lays out `network` (must be finalized) into pages of `buffer`'s disk
  // space. Neither pointer is owned; both must outlive the pager.
  // Layout happens at build time, before faults are armed, so construction
  // aborts on I/O failure rather than returning a status. Default options
  // reproduce the seed layout byte-for-byte.
  GraphPager(const RoadNetwork* network, BufferManager* buffer,
             GraphPagerOptions options = {});

  // Adjacency list of `node`, read through the buffer pool. Fails with the
  // buffer's read error, or kCorruption when the decoded record is
  // inconsistent with the network (degree overflowing the page, neighbor or
  // edge ids out of range). `*out` is cleared on failure.
  Status AdjacencyOf(NodeId node, std::vector<AdjacencyEntry>* out) const;

  const RoadNetwork& network() const { return *network_; }
  BufferManager* buffer() const { return buffer_; }
  const GraphPagerOptions& options() const { return options_; }

  // Number of pages occupied by the adjacency data.
  std::size_t page_count() const { return page_count_; }

  // Process-unique id of this pager's layout, drawn from a global counter
  // at construction. Anything that memoizes traversal state over the
  // paged graph (QueryCache wavefront snapshots, distance memos) stamps
  // entries with this epoch: rebuilding a pager — even over the same
  // network — yields a fresh epoch, so stale snapshots keyed to the old
  // node numbering can never be resumed.
  std::uint64_t layout_epoch() const { return layout_epoch_; }

  // Epoch of the *data* served through this pager. Starts equal to
  // layout_epoch() and advances past every committed mutation (edge-weight
  // update, object churn), drawing from the same process-global counter so
  // epochs never collide across pagers. Cached traversal state stamps
  // entries with this value instead of the layout epoch: a bump makes every
  // pre-mutation snapshot, distance memo, and probe bound unreachable.
  std::uint64_t data_epoch() const {
    return data_epoch_.load(std::memory_order_acquire);
  }

  // Advances data_epoch() to a fresh process-unique value and records
  // `change` as the step's cause. Called by the mutation orchestrator
  // after (attempting) a mutation; a failed mutation bumps too, naming
  // kUnknown — it only costs cache warmth, while a missed bump after a
  // partial change would serve stale results.
  void BumpDataEpoch(const DataChange& change);

  // The step that produced data_epoch(). Only the last step is kept:
  // every executor write is one mutation per exclusive job, followed by
  // QueryCache::Maintain, so a cache entry the step does not start from
  // (`from_epoch` differs from its stamp) is at least two steps stale and
  // falls back to the epoch drop. Before the first bump the step is
  // kUnknown with from_epoch == to_epoch == layout_epoch().
  DataStep LastStep() const;

  // Re-encodes the adjacency records of `edge`'s two endpoints after the
  // network's edge length changed (RoadNetwork::UpdateEdgeLength). The
  // rewrite is all-or-nothing: every needed page is pinned (and any spill
  // page allocated) before the first byte moves, so a read fault or
  // allocation failure surfaces here with the layout untouched. A CSR
  // record that outgrew its build-time slot relocates to a pager-owned
  // spill page sized so later growth of the same record stays in place;
  // row records are fixed-size and always rewrite in place. Same
  // concurrency contract as every mutation: build time or the executor's
  // exclusive write barrier.
  Status RefreshEdge(EdgeId edge);

  // Every page this pager allocated (layout + spill), so the owner can
  // return them to the free list when the pager is rebuilt.
  const std::vector<PageId>& pages() const { return pages_; }

 private:
  struct Slot {
    PageId page = kInvalidPage;
    std::uint16_t offset = 0;  // byte offset of the record inside the page
    std::uint16_t cap = 0;     // bytes reserved for the record at `offset`
  };

  void BuildLayout();
  Status DecodeRow(NodeId node, Slot slot, const Page& page,
                   std::vector<AdjacencyEntry>* out) const;
  Status DecodeCsr(NodeId node, Slot slot, const Page& page,
                   std::vector<AdjacencyEntry>* out) const;

  const RoadNetwork* network_;
  BufferManager* buffer_;
  GraphPagerOptions options_;
  std::uint64_t layout_epoch_;
  std::atomic<std::uint64_t> data_epoch_;
  mutable std::mutex step_mu_;
  DataStep last_step_;  // under step_mu_
  std::vector<Slot> directory_;  // per node
  std::size_t page_count_ = 0;
  std::vector<PageId> pages_;    // every page allocated by this pager

  // CSR spill area for records that outgrew their build-time slot:
  // the page currently being filled and its next free byte.
  PageId spill_page_ = kInvalidPage;
  std::size_t spill_used_ = 0;
};

}  // namespace msq

#endif  // MSQ_GRAPH_GRAPH_PAGER_H_
