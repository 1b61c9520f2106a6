#include "graph/graph_pager.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/check.h"
#include "geom/point.h"
#include "obs/metrics.h"
#include "storage/page.h"

namespace msq {
namespace {

obs::Counter* const g_adjacency_reads = obs::GlobalMetrics().counter(
    obs::metric::kAdjacencyReads);

// Serialized row-format adjacency record: u32 degree, then per neighbor
// (u32 neighbor, u32 edge, double length).
constexpr std::size_t kRecordHeaderBytes = sizeof(std::uint32_t);
constexpr std::size_t kNeighborBytes =
    2 * sizeof(std::uint32_t) + sizeof(double);

std::size_t RowRecordBytes(std::size_t degree) {
  return kRecordHeaderBytes + degree * kNeighborBytes;
}

// Serializes `node`'s adjacency list in the fixed-size row format.
void EncodeRowRecord(const RoadNetwork& network, NodeId node,
                     std::vector<std::byte>* out) {
  const auto adj = network.Adjacent(node);
  out->resize(RowRecordBytes(adj.size()));
  std::byte* dst = out->data();
  const auto deg32 = static_cast<std::uint32_t>(adj.size());
  std::memcpy(dst, &deg32, sizeof(deg32));
  dst += sizeof(deg32);
  for (const AdjacencyEntry& entry : adj) {
    std::memcpy(dst, &entry.neighbor, sizeof(entry.neighbor));
    dst += sizeof(entry.neighbor);
    std::memcpy(dst, &entry.edge, sizeof(entry.edge));
    dst += sizeof(entry.edge);
    std::memcpy(dst, &entry.length, sizeof(entry.length));
    dst += sizeof(entry.length);
  }
}

// CSR pages open with a format-versioned header so a misdirected or
// stale page is rejected before any varint is trusted. (Row pages are the
// seed format and stay headerless for byte-compatibility.)
constexpr std::uint32_t kCsrMagic = 0x4351534d;  // "MSQC"
constexpr std::uint16_t kCsrVersion = 1;

struct CsrPageHeader {
  std::uint32_t magic = kCsrMagic;
  std::uint16_t version = kCsrVersion;
  std::uint16_t record_count = 0;
  std::uint32_t used_bytes = 0;  // includes this header
  std::uint32_t reserved = 0;
};
static_assert(sizeof(CsrPageHeader) == 16);
static_assert(std::is_trivially_copyable_v<CsrPageHeader>);

// Appends the CSR encoding of `node`'s adjacency list to `out`.
// Layout: varint degree, then per neighbor
//   varint (zigzag(neighbor_delta) << 1 | euclid_flag)
//   varint edge_delta          (first: absolute edge id; lists are
//                               ascending-by-edge-id from Finalize)
//   [8-byte raw double length]  only when euclid_flag == 0
// euclid_flag marks lengths that bit-equal the Euclidean distance of the
// endpoints (every unclamped straight edge), which the decoder recomputes
// instead of storing — with delta-coded ids this shrinks a degree-3
// straight-edge record from 52 bytes to ~8.
// `*elided_out` (optional) counts the elided lengths: the record can grow
// by at most 8 bytes per elided length under future edge-weight updates,
// which is how RefreshEdge sizes relocation slots.
void EncodeCsrRecord(const RoadNetwork& network, NodeId node,
                     std::vector<std::byte>* out,
                     std::size_t* elided_out = nullptr) {
  out->clear();
  if (elided_out != nullptr) *elided_out = 0;
  const auto adj = network.Adjacent(node);
  std::byte scratch[kMaxVarintBytes];
  auto put = [&](std::uint64_t v) {
    const std::size_t n = EncodeVarint(v, scratch);
    out->insert(out->end(), scratch, scratch + n);
  };
  put(adj.size());
  std::int64_t prev_neighbor = static_cast<std::int64_t>(node);
  std::uint64_t prev_edge = 0;
  bool first = true;
  for (const AdjacencyEntry& entry : adj) {
    const Dist euclid = EuclideanDistance(network.NodePosition(node),
                                          network.NodePosition(entry.neighbor));
    const bool euclid_length = entry.length == euclid;
    if (euclid_length && elided_out != nullptr) ++*elided_out;
    const std::int64_t delta =
        static_cast<std::int64_t>(entry.neighbor) - prev_neighbor;
    put((ZigZagEncode(delta) << 1) | (euclid_length ? 1 : 0));
    if (first) {
      put(entry.edge);
    } else {
      MSQ_CHECK(entry.edge > prev_edge);  // Finalize emits ascending ids
      put(entry.edge - prev_edge);
    }
    if (!euclid_length) {
      const std::byte* raw = reinterpret_cast<const std::byte*>(&entry.length);
      out->insert(out->end(), raw, raw + sizeof(double));
    }
    prev_neighbor = static_cast<std::int64_t>(entry.neighbor);
    prev_edge = entry.edge;
    first = false;
  }
}

// Interleaves the low 16 bits of x and y into a Morton (Z-order) key.
std::uint32_t MortonKey(std::uint16_t x, std::uint16_t y) {
  auto spread = [](std::uint32_t v) {
    v &= 0xffff;
    v = (v | (v << 8)) & 0x00ff00ff;
    v = (v | (v << 4)) & 0x0f0f0f0f;
    v = (v | (v << 2)) & 0x33333333;
    v = (v | (v << 1)) & 0x55555555;
    return v;
  };
  return spread(x) | (spread(y) << 1);
}

std::uint64_t NextLayoutEpoch() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

GraphPager::GraphPager(const RoadNetwork* network, BufferManager* buffer,
                       GraphPagerOptions options)
    : network_(network),
      buffer_(buffer),
      options_(options),
      layout_epoch_(NextLayoutEpoch()),
      data_epoch_(layout_epoch_),
      last_step_{layout_epoch_, layout_epoch_, DataChange{}} {
  MSQ_CHECK(network != nullptr && buffer != nullptr);
  MSQ_CHECK(network->finalized());
  BuildLayout();
}

void GraphPager::BumpDataEpoch(const DataChange& change) {
  std::lock_guard<std::mutex> lock(step_mu_);
  last_step_.from_epoch = data_epoch_.load(std::memory_order_relaxed);
  last_step_.to_epoch = NextLayoutEpoch();
  last_step_.change = change;
  data_epoch_.store(last_step_.to_epoch, std::memory_order_release);
}

DataStep GraphPager::LastStep() const {
  std::lock_guard<std::mutex> lock(step_mu_);
  return last_step_;
}

void GraphPager::BuildLayout() {
  const std::size_t n = network_->node_count();
  directory_.assign(n, Slot{});
  if (n == 0) return;

  std::vector<NodeId> order(n);
  for (NodeId i = 0; i < n; ++i) order[i] = i;
  if (options_.ordering == NodeOrdering::kMorton) {
    // Cluster nodes by Z-order of their coordinates so that spatially close
    // nodes — which a wavefront touches together — share pages.
    const Mbr box = network_->BoundingBox();
    const double span_x = std::max(box.hi_x - box.lo_x, 1e-12);
    const double span_y = std::max(box.hi_y - box.lo_y, 1e-12);
    std::vector<std::uint32_t> key(n);
    for (NodeId i = 0; i < n; ++i) {
      const Point& p = network_->NodePosition(i);
      const auto gx = static_cast<std::uint16_t>(
          std::min(65535.0, (p.x - box.lo_x) / span_x * 65535.0));
      const auto gy = static_cast<std::uint16_t>(
          std::min(65535.0, (p.y - box.lo_y) / span_y * 65535.0));
      key[i] = MortonKey(gx, gy);
    }
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) { return key[a] < key[b]; });
  }
  // kAsIs: pack in id order — the dataset builder already placed ids in
  // Hilbert order (RelabelNodes), which beats the Morton sort above.

  const bool csr = options_.format == AdjacencyFormat::kCsr;
  const std::size_t header_bytes = csr ? sizeof(CsrPageHeader) : 0;

  // Pack records first-fit in cluster order. A record never spans pages;
  // road-network degrees are small so records always fit one page. The
  // guard pins the page being filled so its image stays valid across the
  // loop; moving to the next page drops the previous pin.
  PageId current_page = kInvalidPage;
  PageGuard guard;
  std::size_t used = 0;
  CsrPageHeader header;
  std::vector<std::byte> record;
  for (const NodeId node : order) {
    record.clear();
    if (csr) {
      EncodeCsrRecord(*network_, node, &record);
    } else {
      EncodeRowRecord(*network_, node, &record);
    }
    const std::size_t bytes = record.size();
    MSQ_CHECK_MSG(header_bytes + bytes <= kPageSize,
                  "node degree %zu overflows a page",
                  network_->Adjacent(node).size());
    if (current_page == kInvalidPage || used + bytes > kPageSize) {
      guard = ValueOrThrow(buffer_->AllocatePage());
      current_page = guard.id();
      used = header_bytes;
      header = CsrPageHeader{};
      ++page_count_;
      pages_.push_back(current_page);
    }
    directory_[node] = Slot{current_page, static_cast<std::uint16_t>(used),
                            static_cast<std::uint16_t>(bytes)};
    std::memcpy(guard.page()->data.data() + used, record.data(), bytes);
    used += bytes;
    if (csr) {
      // Keep the header current after every append; the pin is the only
      // thing keeping this page image hot, and it moves on the next page.
      ++header.record_count;
      header.used_bytes = static_cast<std::uint32_t>(used);
      std::memcpy(guard.page()->data.data(), &header, sizeof(header));
    }
  }
  guard.Release();
  OkOrThrow(buffer_->FlushAll());
}

Status GraphPager::RefreshEdge(EdgeId edge) {
  MSQ_CHECK(edge < network_->edge_count());
  const RoadNetwork::Edge& e = network_->EdgeAt(edge);
  const bool csr = options_.format == AdjacencyFormat::kCsr;
  const std::size_t header_bytes = csr ? sizeof(CsrPageHeader) : 0;

  struct Placement {
    NodeId node = kInvalidNode;
    std::vector<std::byte> record;
    Slot slot;
    bool relocated = false;
    PageGuard guard;
  };
  Placement targets[2];
  targets[0].node = e.u;
  targets[1].node = e.v;

  // Stage against provisional spill state; members commit only once every
  // page is pinned, so a failure below leaves the layout untouched.
  PageId spill_page = spill_page_;
  std::size_t spill_used = spill_used_;
  std::vector<PageId> new_pages;

  try {
    for (Placement& t : targets) {
      std::size_t elided = 0;
      if (csr) {
        EncodeCsrRecord(*network_, t.node, &t.record, &elided);
      } else {
        EncodeRowRecord(*network_, t.node, &t.record);
      }
      const Slot current = directory_[t.node];
      if (t.record.size() <= current.cap) {
        t.slot = current;
        continue;
      }
      // Only CSR records change size: the row format is fixed per degree
      // and the topology never changes under a weight update.
      MSQ_CHECK(csr);
      // Reserve headroom for every still-elided length so later updates
      // touching this record rewrite in place instead of relocating again.
      const std::size_t cap = std::min(
          t.record.size() + sizeof(double) * elided, kPageSize - header_bytes);
      MSQ_CHECK(t.record.size() <= cap);
      if (spill_page == kInvalidPage || spill_used + cap > kPageSize) {
        PageGuard fresh = ValueOrThrow(buffer_->AllocatePage());
        spill_page = fresh.id();
        spill_used = header_bytes;
        new_pages.push_back(spill_page);
        // Stamp an empty header immediately so the page is format-tagged
        // even if it is evicted before the commit below.
        CsrPageHeader header;
        header.used_bytes = static_cast<std::uint32_t>(spill_used);
        std::memcpy(fresh.page()->data.data(), &header, sizeof(header));
      }
      t.slot = Slot{spill_page, static_cast<std::uint16_t>(spill_used),
                    static_cast<std::uint16_t>(cap)};
      t.relocated = true;
      spill_used += cap;
    }
    // Pin every target page for writing before the first byte moves.
    for (Placement& t : targets) {
      t.guard = ValueOrThrow(buffer_->Fetch(t.slot.page, /*mark_dirty=*/true));
    }
  } catch (const StorageFault& fault) {
    // Nothing was modified; return freshly allocated spill pages (now
    // unpinned) to the free list. A failed free only leaks a slot.
    for (const PageId page : new_pages) (void)buffer_->FreePage(page);
    return fault.status();
  }

  // Commit phase: pure memory writes into pinned dirty pages, no failures.
  // Writeback happens at eviction/flush like every other dirty page; until
  // then the pooled image is the authoritative copy.
  for (Placement& t : targets) {
    std::byte* base = t.guard.page()->data.data();
    std::memcpy(base + t.slot.offset, t.record.data(), t.record.size());
    if (csr) {
      CsrPageHeader header;
      std::memcpy(&header, base, sizeof(header));
      if (t.relocated) ++header.record_count;
      // Relocations extend the used region by their full reservation so
      // future in-place growth stays inside it; in-place rewrites keep it.
      header.used_bytes = std::max<std::uint32_t>(
          header.used_bytes,
          static_cast<std::uint32_t>(t.slot.offset) + t.slot.cap);
      std::memcpy(base, &header, sizeof(header));
    }
    directory_[t.node] = t.slot;
  }
  page_count_ += new_pages.size();
  for (const PageId page : new_pages) pages_.push_back(page);
  spill_page_ = spill_page;
  spill_used_ = spill_used;
  return Status();
}

Status GraphPager::AdjacencyOf(NodeId node,
                               std::vector<AdjacencyEntry>* out) const {
  out->clear();
  MSQ_CHECK(node < directory_.size());
  g_adjacency_reads->Inc();
  const Slot slot = directory_[node];
  MSQ_CHECK(slot.page != kInvalidPage);
  // The guard pins the page only for the duration of this copy-out.
  StatusOr<PageGuard> raw = buffer_->Fetch(slot.page);
  if (!raw.ok()) return raw.status();
  const Status decoded =
      options_.format == AdjacencyFormat::kCsr
          ? DecodeCsr(node, slot, *(*raw).page(), out)
          : DecodeRow(node, slot, *(*raw).page(), out);
  if (!decoded.ok()) out->clear();
  return decoded;
}

Status GraphPager::DecodeRow(NodeId node, Slot slot, const Page& page,
                             std::vector<AdjacencyEntry>* out) const {
  // Defensive decode: the page came from storage, so bound every field
  // against the in-memory network before trusting it. A page that passed
  // the checksum can still be logically stale or misdirected.
  const std::byte* src = page.data.data() + slot.offset;
  std::uint32_t degree;
  std::memcpy(&degree, src, sizeof(degree));
  src += sizeof(degree);
  const std::size_t bytes = RowRecordBytes(degree);
  if (slot.offset + bytes > kPageSize) {
    return Status::Corruption("adjacency record for node " +
                              std::to_string(node) + " overflows its page");
  }
  out->reserve(degree);
  for (std::uint32_t i = 0; i < degree; ++i) {
    AdjacencyEntry entry;
    std::memcpy(&entry.neighbor, src, sizeof(entry.neighbor));
    src += sizeof(entry.neighbor);
    std::memcpy(&entry.edge, src, sizeof(entry.edge));
    src += sizeof(entry.edge);
    std::memcpy(&entry.length, src, sizeof(entry.length));
    src += sizeof(entry.length);
    if (entry.neighbor >= network_->node_count() ||
        entry.edge >= network_->edge_count()) {
      return Status::Corruption("adjacency record for node " +
                                std::to_string(node) +
                                " references out-of-range neighbor/edge");
    }
    out->push_back(entry);
  }
  return Status();
}

Status GraphPager::DecodeCsr(NodeId node, Slot slot, const Page& page,
                             std::vector<AdjacencyEntry>* out) const {
  auto corrupt = [&](const char* what) {
    return Status::Corruption("CSR adjacency record for node " +
                              std::to_string(node) + ": " + what);
  };
  CsrPageHeader header;
  std::memcpy(&header, page.data.data(), sizeof(header));
  if (header.magic != kCsrMagic) return corrupt("bad page magic");
  if (header.version != kCsrVersion) return corrupt("unknown format version");
  if (header.used_bytes > kPageSize || header.used_bytes < sizeof(header)) {
    return corrupt("used_bytes out of range");
  }
  if (slot.offset < sizeof(header) || slot.offset >= header.used_bytes) {
    return corrupt("record offset outside used bytes");
  }
  const std::byte* src = page.data.data() + slot.offset;
  const std::byte* const end = page.data.data() + header.used_bytes;
  std::uint64_t degree;
  if (!DecodeVarint(&src, end, &degree)) return corrupt("truncated degree");
  if (degree > network_->node_count()) return corrupt("degree out of range");
  out->reserve(degree);
  std::int64_t prev_neighbor = static_cast<std::int64_t>(node);
  std::uint64_t prev_edge = 0;
  for (std::uint64_t i = 0; i < degree; ++i) {
    std::uint64_t packed;
    if (!DecodeVarint(&src, end, &packed)) return corrupt("truncated neighbor");
    const bool euclid_length = (packed & 1) != 0;
    const std::int64_t neighbor = prev_neighbor + ZigZagDecode(packed >> 1);
    if (neighbor < 0 ||
        neighbor >= static_cast<std::int64_t>(network_->node_count())) {
      return corrupt("neighbor id out of range");
    }
    std::uint64_t edge_word;
    if (!DecodeVarint(&src, end, &edge_word)) return corrupt("truncated edge");
    const std::uint64_t edge = i == 0 ? edge_word : prev_edge + edge_word;
    if (edge >= network_->edge_count()) return corrupt("edge id out of range");
    AdjacencyEntry entry;
    entry.neighbor = static_cast<NodeId>(neighbor);
    entry.edge = static_cast<EdgeId>(edge);
    if (euclid_length) {
      entry.length = EuclideanDistance(network_->NodePosition(node),
                                       network_->NodePosition(entry.neighbor));
    } else {
      if (src + sizeof(double) > end) return corrupt("truncated length");
      std::memcpy(&entry.length, src, sizeof(double));
      src += sizeof(double);
    }
    // The edge must actually connect this pair — cheap against the
    // in-memory network and catches any decoding drift outright.
    const auto& e = network_->EdgeAt(entry.edge);
    if (!((e.u == node && e.v == entry.neighbor) ||
          (e.v == node && e.u == entry.neighbor))) {
      return corrupt("edge does not connect node to neighbor");
    }
    prev_neighbor = neighbor;
    prev_edge = edge;
    out->push_back(entry);
  }
  return Status();
}

}  // namespace msq
