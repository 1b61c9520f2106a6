#include "cache/query_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msq {
namespace {

// Global cache.* metrics, cached once like the graph-layer counters.
struct CacheMetrics {
  obs::Counter* wavefront_hits;
  obs::Counter* wavefront_misses;
  obs::Counter* wavefront_inserts;
  obs::Counter* wavefront_evictions;
  obs::Counter* memo_hits;
  obs::Counter* memo_misses;
  obs::Counter* memo_inserts;
  obs::Counter* memo_evictions;
  obs::Counter* invalidations;
  obs::Gauge* bytes;
};

const CacheMetrics& Metrics() {
  static const CacheMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::GlobalMetrics();
    return CacheMetrics{
        reg.counter(obs::metric::kCacheWavefrontHits),
        reg.counter(obs::metric::kCacheWavefrontMisses),
        reg.counter(obs::metric::kCacheWavefrontInserts),
        reg.counter(obs::metric::kCacheWavefrontEvictions),
        reg.counter(obs::metric::kCacheMemoHits),
        reg.counter(obs::metric::kCacheMemoMisses),
        reg.counter(obs::metric::kCacheMemoInserts),
        reg.counter(obs::metric::kCacheMemoEvictions),
        reg.counter(obs::metric::kCacheInvalidations),
        reg.gauge(obs::metric::kCacheBytes),
    };
  }();
  return metrics;
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Rough per-entry bookkeeping beyond the Entry itself (list node + hash
// node).
constexpr std::size_t kNodeOverhead = 64;

// Slot count of a memo row's first allocation.
constexpr std::size_t kMinRowCapacity = 8;

// Home slot of `object` in a row of `mask + 1` slots (Fibonacci hashing,
// high bits folded down so dense ids spread).
std::size_t SlotIndex(ObjectId object, std::size_t mask) {
  const std::uint64_t h = object * 0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(h ^ (h >> 32)) & mask;
}

}  // namespace

Dist CheckpointRadius(const DijkstraSearch::Checkpoint& checkpoint) {
  // The frontier heap may hold stale entries (re-labeled or settled since
  // pushed), but every labeled-unsettled node also has a live entry whose
  // dist equals its label. The radius is therefore the minimum label over
  // unsettled frontier nodes.
  Dist radius = kInfDist;
  for (const DijkstraSearch::HeapItem& item : checkpoint.frontier) {
    if (checkpoint.settled[item.node]) continue;
    radius = std::min(radius, checkpoint.dist[item.node]);
  }
  return radius;
}

WavefrontProbe ProbeCheckpoint(const RoadNetwork& network,
                               const DijkstraSearch::Checkpoint& checkpoint,
                               Dist radius, Location source, Location target) {
  const RoadNetwork::Edge& e = network.EdgeAt(target.edge);
  const auto [tu, tv] = network.EndpointDistances(target);

  // Every source->target path either runs along the shared edge or enters
  // the target edge through an endpoint.
  Dist exact_candidate = kInfDist;
  if (target.edge == source.edge) {
    exact_candidate = std::abs(target.offset - source.offset);
  }
  // Least possible cost of any route through a not-yet-settled endpoint.
  Dist unsettled_floor = kInfDist;

  const NodeId nodes[2] = {e.u, e.v};
  const Dist offsets[2] = {tu, tv};
  for (int i = 0; i < 2; ++i) {
    if (checkpoint.settled[nodes[i]]) {
      exact_candidate =
          std::min(exact_candidate, checkpoint.dist[nodes[i]] + offsets[i]);
    } else {
      unsettled_floor = std::min(unsettled_floor, radius + offsets[i]);
    }
  }

  WavefrontProbe probe;
  // Exact when the best fully-settled route cannot be undercut by anything
  // still beyond the frontier (<= is safe: equality means the unsettled
  // route can at best tie).
  probe.exact = exact_candidate <= unsettled_floor;
  probe.bound = std::min(exact_candidate, unsettled_floor);
  return probe;
}

QueryCache::QueryCache(QueryCacheConfig config)
    : config_(config),
      shard_budget_(config.max_bytes /
                    std::max<std::size_t>(1, config.shard_count)) {
  MSQ_CHECK(config_.shard_count > 0);
  shards_.reserve(config_.shard_count);
  for (std::size_t i = 0; i < config_.shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::size_t QueryCache::KeyHash::operator()(const Key& key) const {
  std::uint64_t offset_bits;
  static_assert(sizeof(offset_bits) == sizeof(key.offset));
  std::memcpy(&offset_bits, &key.offset, sizeof(offset_bits));
  return static_cast<std::size_t>(SplitMix64(SplitMix64(key.edge) ^
                                             offset_bits));
}

QueryCache::MemoRow::Slot* QueryCache::MemoRow::Find(ObjectId object) {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  // Terminates: the row is never more than three quarters full.
  for (std::size_t i = SlotIndex(object, mask);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.object == object) return &slot;
    if (slot.object == kInvalidObject) return nullptr;
  }
}

std::size_t QueryCache::MemoRow::CapacityForOneMore() const {
  const std::size_t capacity = slots_.size();
  if (4 * (size_ + 1) <= 3 * capacity) return capacity;
  return std::max(kMinRowCapacity, 2 * capacity);
}

void QueryCache::MemoRow::Grow(std::size_t capacity) {
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.object != kInvalidObject) Add(slot.object, slot.dist);
  }
}

void QueryCache::MemoRow::Add(ObjectId object, Dist dist) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = SlotIndex(object, mask);
  while (slots_[i].object != kInvalidObject) i = (i + 1) & mask;
  slots_[i] = Slot{object, dist};
  ++size_;
}

QueryCache::Key QueryCache::Canonical(const Location& source) {
  Key key;
  key.edge = source.edge;
  // Normalize -0.0 so the two zero representations share one entry.
  key.offset = source.offset == 0.0 ? 0.0 : source.offset;
  return key;
}

std::size_t QueryCache::EntryBytes(std::size_t snapshot_bytes,
                                   std::size_t row_bytes) {
  return sizeof(Entry) + kNodeOverhead + snapshot_bytes + row_bytes;
}

QueryCache::Shard& QueryCache::ShardFor(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

void QueryCache::AccountBytesDelta(std::ptrdiff_t delta) {
  const std::size_t now =
      bytes_.fetch_add(static_cast<std::size_t>(delta),
                       std::memory_order_relaxed) +
      static_cast<std::size_t>(delta);
  Metrics().bytes->Update(static_cast<double>(now));
}

QueryCache::Entry* QueryCache::FindLive(Shard& shard, const Key& key,
                                        std::uint64_t layout_epoch,
                                        Dropped* dropped) {
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  const LruList::iterator entry = it->second;
  if (entry->layout_epoch != layout_epoch) {
    // Built against another data epoch: the snapshot's node state and the
    // row's distances belong to a world that is gone. Drop both.
    Drop(shard, entry, dropped);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, entry);
  return &*entry;
}

QueryCache::Entry& QueryCache::Create(Shard& shard, const Key& key,
                                      std::uint64_t layout_epoch) {
  shard.lru.emplace_front();
  Entry& entry = shard.lru.front();
  entry.key = key;
  entry.layout_epoch = layout_epoch;
  shard.map.emplace(key, shard.lru.begin());
  return entry;
}

void QueryCache::Drop(Shard& shard, LruList::iterator it, Dropped* dropped) {
  shard.map.erase(it->key);
  shard.bytes -= it->bytes;
  dropped->bytes_delta -= static_cast<std::ptrdiff_t>(it->bytes);
  if (it->snapshot != nullptr) ++dropped->wavefronts;
  if (it->memo.size() > 0) ++dropped->memo_rows;
  dropped->entries.splice(dropped->entries.end(), shard.lru, it);
}

void QueryCache::Recharge(Shard& shard, Entry& entry, Dropped* dropped) {
  const std::size_t now = EntryBytes(
      entry.snapshot != nullptr ? entry.snapshot->bytes() : 0,
      entry.memo.bytes());
  shard.bytes = shard.bytes - entry.bytes + now;
  dropped->bytes_delta += static_cast<std::ptrdiff_t>(now) -
                          static_cast<std::ptrdiff_t>(entry.bytes);
  entry.bytes = now;
  // `entry` is at the front, so the back is never it while size > 1.
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    Drop(shard, std::prev(shard.lru.end()), dropped);
  }
}

void QueryCache::Publish(const Dropped& dropped) {
  const std::uint64_t evicted = dropped.entries.size() + dropped.refused;
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (dropped.wavefronts > 0) {
      Metrics().wavefront_evictions->Inc(dropped.wavefronts);
    }
    if (dropped.memo_rows > 0) {
      Metrics().memo_evictions->Inc(dropped.memo_rows);
    }
  }
  if (dropped.bytes_delta != 0) AccountBytesDelta(dropped.bytes_delta);
}

QueryCache::WavefrontPtr QueryCache::FindWavefront(const Location& source,
                                                   std::uint64_t layout_epoch) {
  // Detail span (head-sampled queries only): shard lock + LRU touch.
  obs::Span probe_span = obs::DetailSpan("cache.wavefront_probe");
  const Key key = Canonical(source);
  Shard& shard = ShardFor(key);
  WavefrontPtr snapshot;
  Dropped dropped;  // freed after the lock is released
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (const Entry* entry = FindLive(shard, key, layout_epoch, &dropped)) {
      snapshot = entry->snapshot;
    }
  }
  Publish(dropped);
  if (snapshot != nullptr) {
    wavefront_hits_.fetch_add(1, std::memory_order_relaxed);
    Metrics().wavefront_hits->Inc();
    ++obs::ThreadLocalCounters().cache_wavefront_hits;
  } else {
    wavefront_misses_.fetch_add(1, std::memory_order_relaxed);
    Metrics().wavefront_misses->Inc();
    ++obs::ThreadLocalCounters().cache_wavefront_misses;
  }
  return snapshot;
}

void QueryCache::StoreWavefront(const Location& source,
                                NetworkNnStream::Snapshot snapshot,
                                std::uint64_t layout_epoch) {
  const Key key = Canonical(source);
  WavefrontPtr stored = std::make_shared<const NetworkNnStream::Snapshot>(
      std::move(snapshot));
  const std::size_t snapshot_bytes = stored->bytes();
  Shard& shard = ShardFor(key);
  WavefrontPtr replaced;
  Dropped dropped;  // freed, with `replaced`, after the lock is released
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    Entry* entry = FindLive(shard, key, layout_epoch, &dropped);
    const std::size_t row_bytes = entry != nullptr ? entry->memo.bytes() : 0;
    if (EntryBytes(snapshot_bytes, row_bytes) > shard_budget_) {
      // Would evict the whole shard and still not fit: refuse.
      ++dropped.refused;
      ++dropped.wavefronts;
    } else {
      if (entry == nullptr) entry = &Create(shard, key, layout_epoch);
      replaced = std::move(entry->snapshot);
      entry->snapshot = std::move(stored);
      Recharge(shard, *entry, &dropped);
      inserted = true;
    }
  }
  Publish(dropped);
  if (inserted) {
    wavefront_inserts_.fetch_add(1, std::memory_order_relaxed);
    Metrics().wavefront_inserts->Inc();
  }
}

std::optional<Dist> QueryCache::FindDistance(const Location& source,
                                             ObjectId object,
                                             std::uint64_t layout_epoch) {
  obs::Span probe_span = obs::DetailSpan("cache.memo_probe");
  MSQ_CHECK(object != kInvalidObject);
  const Key key = Canonical(source);
  Shard& shard = ShardFor(key);
  std::optional<Dist> found;
  Dropped dropped;  // freed after the lock is released
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (Entry* entry = FindLive(shard, key, layout_epoch, &dropped)) {
      if (const MemoRow::Slot* slot = entry->memo.Find(object)) {
        found = slot->dist;
      }
    }
  }
  Publish(dropped);
  if (found.has_value()) {
    memo_hits_.fetch_add(1, std::memory_order_relaxed);
    Metrics().memo_hits->Inc();
    ++obs::ThreadLocalCounters().cache_memo_hits;
  } else {
    memo_misses_.fetch_add(1, std::memory_order_relaxed);
    Metrics().memo_misses->Inc();
    ++obs::ThreadLocalCounters().cache_memo_misses;
  }
  return found;
}

void QueryCache::StoreDistance(const Location& source, ObjectId object,
                               Dist dist, std::uint64_t layout_epoch) {
  MSQ_CHECK(object != kInvalidObject);
  const Key key = Canonical(source);
  Shard& shard = ShardFor(key);
  Dropped dropped;  // freed after the lock is released
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    Entry* entry = FindLive(shard, key, layout_epoch, &dropped);
    MemoRow::Slot* slot =
        entry != nullptr ? entry->memo.Find(object) : nullptr;
    if (slot != nullptr) {
      slot->dist = dist;
      inserted = true;
    } else {
      const std::size_t capacity = entry != nullptr
                                       ? entry->memo.CapacityForOneMore()
                                       : kMinRowCapacity;
      const std::size_t row_bytes = capacity * sizeof(MemoRow::Slot);
      const std::size_t needed =
          entry != nullptr ? entry->bytes - entry->memo.bytes() + row_bytes
                           : EntryBytes(0, row_bytes);
      if (needed > shard_budget_) {
        // The row cannot double inside one shard: refuse, keep the row.
        ++dropped.refused;
        ++dropped.memo_rows;
      } else {
        if (entry == nullptr) entry = &Create(shard, key, layout_epoch);
        const bool grows = capacity != entry->memo.capacity();
        if (grows) entry->memo.Grow(capacity);
        entry->memo.Add(object, dist);
        if (grows) Recharge(shard, *entry, &dropped);
        inserted = true;
      }
    }
  }
  Publish(dropped);
  if (inserted) {
    memo_inserts_.fetch_add(1, std::memory_order_relaxed);
    Metrics().memo_inserts->Inc();
  }
}

void QueryCache::Invalidate() {
  std::ptrdiff_t delta = 0;
  LruList discarded;  // freed after every shard lock is released
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    delta -= static_cast<std::ptrdiff_t>(shard->bytes);
    shard->bytes = 0;
    shard->map.clear();
    discarded.splice(discarded.end(), shard->lru);
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  Metrics().invalidations->Inc();
  if (delta != 0) AccountBytesDelta(delta);
}

QueryCache::Stats QueryCache::stats() const {
  Stats stats;
  stats.wavefront_hits = wavefront_hits_.load(std::memory_order_relaxed);
  stats.wavefront_misses = wavefront_misses_.load(std::memory_order_relaxed);
  stats.wavefront_inserts =
      wavefront_inserts_.load(std::memory_order_relaxed);
  stats.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  stats.memo_misses = memo_misses_.load(std::memory_order_relaxed);
  stats.memo_inserts = memo_inserts_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t QueryCache::bytes() const {
  return bytes_.load(std::memory_order_relaxed);
}

}  // namespace msq
