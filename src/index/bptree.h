// Disk-paged B+-tree with 64-bit keys and small fixed-size payloads.
//
// The paper (Section 3) stores the object-to-network "middle layer" —
// edge id -> (object id, distance to each edge endpoint) — "indexed using a
// B+-tree on edge ids" so the wavefront can probe each visited edge for
// resident objects cheaply. Keys here are (edge id << 32 | sequence) so all
// objects of one edge form a contiguous key range.
#ifndef MSQ_INDEX_BPTREE_H_
#define MSQ_INDEX_BPTREE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/buffer_manager.h"

namespace msq {

// Opaque fixed-size payload. Callers pack/unpack trivially-copyable records.
struct BpTreeValue {
  std::array<std::byte, 24> bytes{};

  template <typename T>
  static BpTreeValue Pack(const T& record) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= sizeof(bytes));
    BpTreeValue v;
    std::memcpy(v.bytes.data(), &record, sizeof(T));
    return v;
  }

  template <typename T>
  T Unpack() const {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= sizeof(bytes));
    T record;
    std::memcpy(&record, bytes.data(), sizeof(T));
    return record;
  }
};

class BpTree {
 public:
  using Key = std::uint64_t;
  using Item = std::pair<Key, BpTreeValue>;

  static std::size_t LeafCapacity();
  static std::size_t InternalCapacity();

  // Creates an empty tree whose nodes live in `buffer`'s disk space.
  explicit BpTree(BufferManager* buffer);

  // Replaces the contents with a bottom-up build from `items`, which must be
  // sorted by key (strictly increasing). Build-time operation: throws
  // StorageFault on I/O failure.
  void BulkLoad(const std::vector<Item>& items);

  // Inserts one item. Duplicate keys are allowed; they are stored adjacent
  // and all returned by range scans. Throws StorageFault on I/O failure.
  void Insert(Key key, const BpTreeValue& value);

  // Removes one item with `key` (with duplicates, an arbitrary copy),
  // rebalancing underfull nodes by borrow-then-merge and returning merged
  // pages to the buffer's free list. Returns whether an item was removed;
  // fails with the underlying storage error. Same concurrency contract as
  // Insert: mutations run at build time or under the executor's exclusive
  // write barrier, never concurrently with readers.
  StatusOr<bool> Delete(Key key);

  // Overwrites the payload of the first item with `key` in place (no
  // structural change). Returns whether an item was found.
  StatusOr<bool> UpdateValue(Key key, const BpTreeValue& value);

  // Returns whether some item with `key` exists; fills `*value` with the
  // first one when found. Fails with the underlying read error or
  // kCorruption for a structurally invalid node.
  StatusOr<bool> Lookup(Key key, BpTreeValue* value) const;

  // Calls `visit(key, value)` for every item with lo <= key <= hi, in key
  // order. Readers search each node in place under its pin and hold at most
  // one index pin at a time. Fails like Lookup, after visiting a prefix of
  // the answer.
  template <typename Visit>
  Status VisitRange(Key lo, Key hi, Visit visit) const {
    return Scan(lo, hi, &visit,
                [](void* fn, Key key, const BpTreeValue& value) {
                  (*static_cast<Visit*>(fn))(key, value);
                });
  }

  // Appends all items with lo <= key <= hi, in key order. `*out` may hold a
  // prefix of the answer on failure.
  Status ScanRange(Key lo, Key hi, std::vector<Item>* out) const {
    return VisitRange(lo, hi, [out](Key key, const BpTreeValue& value) {
      out->emplace_back(key, value);
    });
  }

  std::size_t size() const { return size_; }
  std::uint32_t height() const { return height_; }

 private:
  struct LeafNode {
    std::vector<Item> items;
    PageId next_leaf = kInvalidPage;
  };
  struct InternalNode {
    // children.size() == keys.size() + 1; subtree children[i] holds keys
    // < keys[i]; children.back() holds keys >= keys.back().
    std::vector<Key> keys;
    std::vector<PageId> children;
  };

  // Pin `page` after checking its leaf/internal flag and its item count
  // against the node capacity; a violation throws kCorruption.
  PageGuard PinLeaf(PageId page) const;
  PageGuard PinInternal(PageId page) const;
  // Decoded copies for the write paths; the pin is held only while
  // decoding.
  LeafNode ReadLeaf(PageId page) const;
  InternalNode ReadInternal(PageId page) const;
  void WriteLeaf(PageId page, const LeafNode& node);
  void WriteInternal(PageId page, const InternalNode& node);
  PageId NewLeaf(const LeafNode& node);
  PageId NewInternal(const InternalNode& node);

  // Descends to the leftmost leaf that may contain `key` and returns it
  // pinned, with one fetch per level; each parent's pin is released before
  // its child is fetched. Duplicates equal to a split separator can sit in
  // the left sibling, so readers continue across next_leaf links from
  // here.
  PageGuard FindLeaf(Key key) const;

  // Pins the leaf holding the first item with key >= `key` and sets *index
  // to its slot; returns an empty guard when no such item exists.
  PageGuard SeekLeaf(Key key, std::size_t* index) const;

  using ItemVisitor = void (*)(void* fn, Key key, const BpTreeValue& value);
  Status Scan(Key lo, Key hi, void* fn, ItemVisitor visit) const;

  // Recursive insert; on child split returns true and fills the separator
  // key + new right-sibling page.
  bool InsertRecursive(PageId page, std::uint32_t level_from_leaf, Key key,
                       const BpTreeValue& value, Key* up_key,
                       PageId* up_page);

  // Recursive delete of the first match in the subtree at `page`. Returns
  // whether an item was removed; *underfull reports whether this node fell
  // below its minimum fill, for the parent to rebalance. Merged-away pages
  // are appended to *freed (released by Delete after the parent's page is
  // durable, so a mid-rebalance fault never leaves a live parent pointing
  // at a recycled page).
  bool DeleteInSubtree(PageId page, std::uint32_t level_from_leaf, Key key,
                       bool* underfull, std::vector<PageId>* freed);

  // Borrow-then-merge rebalance of `parent`'s child at `child_index`
  // (`child_level` 0 = leaf). Mutates *parent in memory; the caller writes
  // it back.
  void RebalanceChild(InternalNode* parent, std::size_t child_index,
                      std::uint32_t child_level, std::vector<PageId>* freed);

  BufferManager* buffer_;
  PageId root_;
  std::uint32_t height_ = 1;
  std::size_t size_ = 0;
};

}  // namespace msq

#endif  // MSQ_INDEX_BPTREE_H_
