#include "index/bptree.h"

#include <algorithm>
#include <cstring>
#include <ranges>
#include <type_traits>

#include "common/check.h"

namespace msq {
namespace {

// Node header: 1-byte leaf flag + 4-byte count; leaves add a 4-byte next
// pointer. Leaves then hold `count` (key, value) items; internal nodes hold
// `count` keys followed by `count + 1` child page ids.
constexpr std::size_t kHeaderBytes = 1 + 4;
constexpr std::size_t kLeafHeaderBytes = kHeaderBytes + 4;
constexpr std::size_t kLeafItemBytes = sizeof(std::uint64_t) + 24;

// In-place field reads of a pinned node page, matching the layout
// WriteLeaf/WriteInternal produce. Callers check the count against the
// node capacity (PinLeaf/PinInternal) before indexing.
template <typename T>
T LoadAt(const Page& page, std::size_t offset) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, page.data.data() + offset, sizeof(T));
  return value;
}

bool IsLeaf(const Page& page) { return LoadAt<std::uint8_t>(page, 0) != 0; }
std::uint32_t NodeCount(const Page& page) {
  return LoadAt<std::uint32_t>(page, 1);
}
PageId NextLeaf(const Page& page) {
  return LoadAt<std::uint32_t>(page, kHeaderBytes);
}
BpTree::Key LeafKey(const Page& page, std::size_t i) {
  return LoadAt<BpTree::Key>(page, kLeafHeaderBytes + i * kLeafItemBytes);
}
BpTreeValue LeafValue(const Page& page, std::size_t i) {
  return LoadAt<BpTreeValue>(
      page, kLeafHeaderBytes + i * kLeafItemBytes + sizeof(BpTree::Key));
}
BpTree::Key InternalKey(const Page& page, std::size_t i) {
  return LoadAt<BpTree::Key>(page, kHeaderBytes + i * sizeof(BpTree::Key));
}
PageId InternalChild(const Page& page, std::uint32_t count, std::size_t i) {
  return LoadAt<std::uint32_t>(
      page, kHeaderBytes + count * sizeof(BpTree::Key) + i * sizeof(PageId));
}

// First slot in [0, count) whose key is >= `key` (count if none).
template <typename KeyAt>
std::size_t LowerBound(std::uint32_t count, BpTree::Key key, KeyAt key_at) {
  const auto slots = std::views::iota(std::size_t{0}, std::size_t{count});
  return static_cast<std::size_t>(
      std::ranges::partition_point(
          slots, [&](std::size_t i) { return key_at(i) < key; }) -
      slots.begin());
}

}  // namespace

std::size_t BpTree::LeafCapacity() {
  return (kPageSize - kLeafHeaderBytes) / kLeafItemBytes;
}

std::size_t BpTree::InternalCapacity() {
  // count keys (8B) + count+1 children (4B): 8c + 4(c+1) <= page - header.
  return (kPageSize - kHeaderBytes - 4) / 12;
}

BpTree::BpTree(BufferManager* buffer) : buffer_(buffer) {
  MSQ_CHECK(buffer != nullptr);
  root_ = NewLeaf(LeafNode{});
}

PageGuard BpTree::PinLeaf(PageId page) const {
  PageGuard guard = ValueOrThrow(buffer_->Fetch(page));
  // Node flags and counts come from storage, so treat violations as
  // corruption rather than programmer error.
  if (!IsLeaf(*guard)) {
    throw StorageFault(Status::Corruption(
        "b+-tree page " + std::to_string(page) + " is not a leaf"));
  }
  const std::uint32_t count = NodeCount(*guard);
  if (count > LeafCapacity()) {
    throw StorageFault(Status::Corruption(
        "b+-tree leaf at page " + std::to_string(page) + " declares " +
        std::to_string(count) + " items"));
  }
  return guard;
}

PageGuard BpTree::PinInternal(PageId page) const {
  PageGuard guard = ValueOrThrow(buffer_->Fetch(page));
  if (IsLeaf(*guard)) {
    throw StorageFault(Status::Corruption(
        "b+-tree page " + std::to_string(page) + " is not internal"));
  }
  const std::uint32_t count = NodeCount(*guard);
  if (count > InternalCapacity()) {
    throw StorageFault(Status::Corruption(
        "b+-tree internal node at page " + std::to_string(page) +
        " declares " + std::to_string(count) + " keys"));
  }
  return guard;
}

// The decoded nodes are copies, never views into the pool.
BpTree::LeafNode BpTree::ReadLeaf(PageId page) const {
  const PageGuard guard = PinLeaf(page);
  const Page& node_page = *guard;
  LeafNode node;
  node.next_leaf = NextLeaf(node_page);
  node.items.resize(NodeCount(node_page));
  for (std::size_t i = 0; i < node.items.size(); ++i) {
    node.items[i] = Item{LeafKey(node_page, i), LeafValue(node_page, i)};
  }
  return node;
}

BpTree::InternalNode BpTree::ReadInternal(PageId page) const {
  const PageGuard guard = PinInternal(page);
  const Page& node_page = *guard;
  const std::uint32_t count = NodeCount(node_page);
  InternalNode node;
  node.keys.resize(count);
  node.children.resize(count + 1);
  for (std::uint32_t i = 0; i < count; ++i) {
    node.keys[i] = InternalKey(node_page, i);
  }
  for (std::uint32_t i = 0; i <= count; ++i) {
    node.children[i] = InternalChild(node_page, count, i);
  }
  return node;
}

void BpTree::WriteLeaf(PageId page, const LeafNode& node) {
  MSQ_CHECK(node.items.size() <= LeafCapacity());
  PageGuard guard = ValueOrThrow(buffer_->Fetch(page, /*mark_dirty=*/true));
  PageWriter writer(guard.page());
  writer.Write<std::uint8_t>(1);
  writer.Write<std::uint32_t>(static_cast<std::uint32_t>(node.items.size()));
  writer.Write<std::uint32_t>(node.next_leaf);
  for (const Item& item : node.items) {
    writer.Write<std::uint64_t>(item.first);
    writer.Write<BpTreeValue>(item.second);
  }
}

void BpTree::WriteInternal(PageId page, const InternalNode& node) {
  MSQ_CHECK(node.keys.size() + 1 == node.children.size());
  MSQ_CHECK(node.keys.size() <= InternalCapacity());
  PageGuard guard = ValueOrThrow(buffer_->Fetch(page, /*mark_dirty=*/true));
  PageWriter writer(guard.page());
  writer.Write<std::uint8_t>(0);
  writer.Write<std::uint32_t>(static_cast<std::uint32_t>(node.keys.size()));
  for (const Key key : node.keys) writer.Write<std::uint64_t>(key);
  for (const PageId child : node.children) {
    writer.Write<std::uint32_t>(child);
  }
}

PageId BpTree::NewLeaf(const LeafNode& node) {
  const PageId page_id = ValueOrThrow(buffer_->AllocatePage()).id();
  WriteLeaf(page_id, node);
  return page_id;
}

PageId BpTree::NewInternal(const InternalNode& node) {
  const PageId page_id = ValueOrThrow(buffer_->AllocatePage()).id();
  WriteInternal(page_id, node);
  return page_id;
}

void BpTree::BulkLoad(const std::vector<Item>& items) {
  size_ = items.size();
  for (std::size_t i = 1; i < items.size(); ++i) {
    MSQ_CHECK_MSG(items[i - 1].first < items[i].first,
                  "BulkLoad requires strictly increasing keys");
  }
  if (items.empty()) {
    root_ = NewLeaf(LeafNode{});
    height_ = 1;
    return;
  }

  // Pack leaves left to right, remembering each leaf's smallest key.
  const std::size_t leaf_cap = LeafCapacity();
  std::vector<std::pair<Key, PageId>> level;  // (min key of subtree, page)
  {
    std::vector<LeafNode> leaves;
    for (std::size_t i = 0; i < items.size(); i += leaf_cap) {
      const std::size_t end = std::min(items.size(), i + leaf_cap);
      LeafNode leaf;
      leaf.items.assign(items.begin() + static_cast<std::ptrdiff_t>(i),
                        items.begin() + static_cast<std::ptrdiff_t>(end));
      leaves.push_back(std::move(leaf));
    }
    // Allocate pages first so next_leaf links can be set in one pass.
    std::vector<PageId> pages;
    pages.reserve(leaves.size());
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      pages.push_back(ValueOrThrow(buffer_->AllocatePage()).id());
    }
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      leaves[i].next_leaf =
          (i + 1 < leaves.size()) ? pages[i + 1] : kInvalidPage;
      WriteLeaf(pages[i], leaves[i]);
      level.emplace_back(leaves[i].items.front().first, pages[i]);
    }
  }
  height_ = 1;

  // Build internal levels until one node remains.
  const std::size_t internal_cap = InternalCapacity();
  while (level.size() > 1) {
    std::vector<std::pair<Key, PageId>> next;
    // Fan-in per node: capacity+1 children.
    const std::size_t fanout = internal_cap + 1;
    for (std::size_t i = 0; i < level.size(); i += fanout) {
      const std::size_t end = std::min(level.size(), i + fanout);
      InternalNode node;
      node.children.push_back(level[i].second);
      for (std::size_t j = i + 1; j < end; ++j) {
        node.keys.push_back(level[j].first);
        node.children.push_back(level[j].second);
      }
      next.emplace_back(level[i].first, NewInternal(node));
    }
    level = std::move(next);
    ++height_;
  }
  root_ = level.front().second;
}

PageGuard BpTree::FindLeaf(Key key) const {
  // lower_bound descent: a leaf split puts the separator at the right
  // sibling's front, but duplicates of it can remain in the LEFT sibling,
  // so the first subtree whose separator is >= key must be searched.
  // Readers compensate for landing one leaf early by following next_leaf.
  PageId page = root_;
  for (std::uint32_t level = height_ - 1; level > 0; --level) {
    const PageGuard node = PinInternal(page);
    const std::uint32_t count = NodeCount(*node);
    const std::size_t idx = LowerBound(
        count, key, [&](std::size_t i) { return InternalKey(*node, i); });
    page = InternalChild(*node, count, idx);
  }
  return PinLeaf(page);
}

PageGuard BpTree::SeekLeaf(Key key, std::size_t* index) const {
  PageGuard leaf = FindLeaf(key);
  for (;;) {
    *index = LowerBound(NodeCount(*leaf), key,
                        [&](std::size_t i) { return LeafKey(*leaf, i); });
    if (*index < NodeCount(*leaf)) return leaf;
    const PageId next = NextLeaf(*leaf);
    // Unpin before fetching the next leaf: a probe holds one index pin.
    leaf.Release();
    if (next == kInvalidPage) return leaf;
    leaf = PinLeaf(next);
  }
}

bool BpTree::InsertRecursive(PageId page, std::uint32_t level_from_leaf,
                             Key key, const BpTreeValue& value, Key* up_key,
                             PageId* up_page) {
  if (level_from_leaf == 0) {
    LeafNode leaf = ReadLeaf(page);
    const auto it = std::upper_bound(
        leaf.items.begin(), leaf.items.end(), key,
        [](Key k, const Item& item) { return k < item.first; });
    leaf.items.insert(it, Item{key, value});
    if (leaf.items.size() <= LeafCapacity()) {
      WriteLeaf(page, leaf);
      return false;
    }
    // Split: right half moves to a new leaf.
    const std::size_t mid = leaf.items.size() / 2;
    LeafNode right;
    right.items.assign(leaf.items.begin() + static_cast<std::ptrdiff_t>(mid),
                       leaf.items.end());
    right.next_leaf = leaf.next_leaf;
    leaf.items.resize(mid);
    const PageId right_page = NewLeaf(right);
    leaf.next_leaf = right_page;
    WriteLeaf(page, leaf);
    *up_key = right.items.front().first;
    *up_page = right_page;
    return true;
  }

  InternalNode node = ReadInternal(page);
  const auto it = std::upper_bound(node.keys.begin(), node.keys.end(), key);
  const std::size_t idx = static_cast<std::size_t>(it - node.keys.begin());
  Key child_key;
  PageId child_page;
  const bool split = InsertRecursive(node.children[idx], level_from_leaf - 1,
                                     key, value, &child_key, &child_page);
  if (!split) return false;
  node.keys.insert(node.keys.begin() + static_cast<std::ptrdiff_t>(idx),
                   child_key);
  node.children.insert(
      node.children.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
      child_page);
  if (node.keys.size() <= InternalCapacity()) {
    WriteInternal(page, node);
    return false;
  }
  // Split internal: middle key moves up.
  const std::size_t mid = node.keys.size() / 2;
  InternalNode right;
  right.keys.assign(node.keys.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
                    node.keys.end());
  right.children.assign(
      node.children.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
      node.children.end());
  *up_key = node.keys[mid];
  node.keys.resize(mid);
  node.children.resize(mid + 1);
  WriteInternal(page, node);
  *up_page = NewInternal(right);
  return true;
}

void BpTree::Insert(Key key, const BpTreeValue& value) {
  Key up_key;
  PageId up_page;
  const bool split =
      InsertRecursive(root_, height_ - 1, key, value, &up_key, &up_page);
  if (split) {
    InternalNode new_root;
    new_root.keys.push_back(up_key);
    new_root.children.push_back(root_);
    new_root.children.push_back(up_page);
    root_ = NewInternal(new_root);
    ++height_;
  }
  ++size_;
}

StatusOr<bool> BpTree::Lookup(Key key, BpTreeValue* value) const {
  try {
    std::size_t i = 0;
    const PageGuard leaf = SeekLeaf(key, &i);
    if (!leaf || LeafKey(*leaf, i) != key) return false;
    *value = LeafValue(*leaf, i);
    return true;
  } catch (const StorageFault& fault) {
    return fault.status();
  }
}

namespace {

// Minimum fill for non-root nodes; borrow-then-merge keeps every node at or
// above this. Bulk-loaded rightmost nodes may start below it — merges still
// fit because no node ever exceeds capacity.
std::size_t LeafMinFill() { return BpTree::LeafCapacity() / 2; }
std::size_t InternalMinFill() { return BpTree::InternalCapacity() / 2; }

}  // namespace

bool BpTree::DeleteInSubtree(PageId page, std::uint32_t level_from_leaf,
                             Key key, bool* underfull,
                             std::vector<PageId>* freed) {
  if (level_from_leaf == 0) {
    LeafNode leaf = ReadLeaf(page);
    const auto it = std::lower_bound(
        leaf.items.begin(), leaf.items.end(), key,
        [](const Item& item, Key k) { return item.first < k; });
    if (it == leaf.items.end() || it->first != key) {
      *underfull = false;
      return false;
    }
    leaf.items.erase(it);
    WriteLeaf(page, leaf);
    *underfull = leaf.items.size() < LeafMinFill();
    return true;
  }
  InternalNode node = ReadInternal(page);
  std::size_t idx = static_cast<std::size_t>(
      std::upper_bound(node.keys.begin(), node.keys.end(), key) -
      node.keys.begin());
  bool deleted = false;
  bool child_underfull = false;
  // upper_bound picks the rightmost candidate subtree. With duplicates a
  // copy equal to the separator can survive in the subtree to its left
  // after the right-side copies were deleted, so walk left across equal
  // separators until a subtree yields the key.
  for (;;) {
    deleted = DeleteInSubtree(node.children[idx], level_from_leaf - 1, key,
                              &child_underfull, freed);
    if (deleted || idx == 0 || node.keys[idx - 1] != key) break;
    --idx;
  }
  if (!deleted) {
    *underfull = false;
    return false;
  }
  if (child_underfull) {
    RebalanceChild(&node, idx, level_from_leaf - 1, freed);
  }
  WriteInternal(page, node);
  *underfull = node.keys.size() < InternalMinFill();
  return true;
}

void BpTree::RebalanceChild(InternalNode* parent, std::size_t child_index,
                            std::uint32_t child_level,
                            std::vector<PageId>* freed) {
  // Pair the underfull child with a sibling: the left one when it exists,
  // else the right one. `left_index` names the left node of the pair.
  const std::size_t left_index =
      child_index > 0 ? child_index - 1 : child_index;
  const std::size_t right_index = left_index + 1;
  MSQ_CHECK(right_index < parent->children.size());
  const PageId left_page = parent->children[left_index];
  const PageId right_page = parent->children[right_index];
  if (child_level == 0) {
    LeafNode left = ReadLeaf(left_page);
    LeafNode right = ReadLeaf(right_page);
    const bool right_is_short = child_index == right_index;
    if (right_is_short && left.items.size() > LeafMinFill()) {
      right.items.insert(right.items.begin(), left.items.back());
      left.items.pop_back();
    } else if (!right_is_short && right.items.size() > LeafMinFill()) {
      left.items.push_back(right.items.front());
      right.items.erase(right.items.begin());
    } else if (left.items.size() + right.items.size() <= LeafCapacity()) {
      // Merge right into left, preserving the leaf chain.
      left.items.insert(left.items.end(), right.items.begin(),
                        right.items.end());
      left.next_leaf = right.next_leaf;
      WriteLeaf(left_page, left);
      parent->keys.erase(parent->keys.begin() +
                         static_cast<std::ptrdiff_t>(left_index));
      parent->children.erase(parent->children.begin() +
                             static_cast<std::ptrdiff_t>(right_index));
      freed->push_back(right_page);
      return;
    }
    // Borrowed (or both siblings too full to merge — possible only with
    // bulk-loaded skew, where the short node is simply left short).
    WriteLeaf(left_page, left);
    WriteLeaf(right_page, right);
    if (!right.items.empty()) {
      parent->keys[left_index] = right.items.front().first;
    }
    return;
  }
  InternalNode left = ReadInternal(left_page);
  InternalNode right = ReadInternal(right_page);
  const bool right_is_short = child_index == right_index;
  if (right_is_short && left.keys.size() > InternalMinFill()) {
    // Rotate through the parent: separator comes down, left's last key up.
    right.keys.insert(right.keys.begin(), parent->keys[left_index]);
    right.children.insert(right.children.begin(), left.children.back());
    parent->keys[left_index] = left.keys.back();
    left.keys.pop_back();
    left.children.pop_back();
  } else if (!right_is_short && right.keys.size() > InternalMinFill()) {
    left.keys.push_back(parent->keys[left_index]);
    left.children.push_back(right.children.front());
    parent->keys[left_index] = right.keys.front();
    right.keys.erase(right.keys.begin());
    right.children.erase(right.children.begin());
  } else if (left.keys.size() + 1 + right.keys.size() <=
             InternalCapacity()) {
    left.keys.push_back(parent->keys[left_index]);
    left.keys.insert(left.keys.end(), right.keys.begin(), right.keys.end());
    left.children.insert(left.children.end(), right.children.begin(),
                         right.children.end());
    WriteInternal(left_page, left);
    parent->keys.erase(parent->keys.begin() +
                       static_cast<std::ptrdiff_t>(left_index));
    parent->children.erase(parent->children.begin() +
                           static_cast<std::ptrdiff_t>(right_index));
    freed->push_back(right_page);
    return;
  }
  WriteInternal(left_page, left);
  WriteInternal(right_page, right);
}

StatusOr<bool> BpTree::Delete(Key key) {
  try {
    bool underfull = false;
    std::vector<PageId> freed;
    const bool deleted =
        DeleteInSubtree(root_, height_ - 1, key, &underfull, &freed);
    if (deleted) {
      // Root collapse: an internal root left with a single child hands the
      // root role down a level.
      while (height_ > 1) {
        const InternalNode root = ReadInternal(root_);
        if (!root.keys.empty()) break;
        freed.push_back(root_);
        root_ = root.children.front();
        --height_;
      }
      --size_;
    }
    // Pages leave the tree before they leave the allocator: every parent
    // update above is already buffered, so recycling cannot be observed
    // through a live pointer.
    for (const PageId page : freed) OkOrThrow(buffer_->FreePage(page));
    return deleted;
  } catch (const StorageFault& fault) {
    return fault.status();
  }
}

StatusOr<bool> BpTree::UpdateValue(Key key, const BpTreeValue& value) {
  try {
    PageId page = FindLeaf(key).id();
    while (page != kInvalidPage) {
      LeafNode leaf = ReadLeaf(page);
      for (Item& item : leaf.items) {
        if (item.first == key) {
          item.second = value;
          WriteLeaf(page, leaf);
          return true;
        }
        if (item.first > key) return false;
      }
      page = leaf.next_leaf;
    }
    return false;
  } catch (const StorageFault& fault) {
    return fault.status();
  }
}

Status BpTree::Scan(Key lo, Key hi, void* fn, ItemVisitor visit) const {
  try {
    std::size_t i = 0;
    PageGuard leaf = SeekLeaf(lo, &i);
    while (leaf) {
      for (const std::uint32_t count = NodeCount(*leaf); i < count; ++i) {
        const Key key = LeafKey(*leaf, i);
        if (key > hi) return Status();
        visit(fn, key, LeafValue(*leaf, i));
      }
      const PageId next = NextLeaf(*leaf);
      leaf.Release();
      if (next == kInvalidPage) break;
      leaf = PinLeaf(next);
      i = 0;
    }
  } catch (const StorageFault& fault) {
    return fault.status();
  }
  return Status();
}

}  // namespace msq
