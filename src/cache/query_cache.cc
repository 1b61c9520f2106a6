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

// `d` raised by a relative and an absolute margin. A path is provably
// longer than a cached distance `d` only when its lower bound clears
// Margin(d): the margin absorbs rounding differences between sums of the
// same path taken in another order (DESIGN.md §16).
Dist Margin(Dist d) { return d * (1.0 + 1e-9) + 1e-9; }

// Distance from a node-distance field to `loc`, entering its edge from
// either endpoint.
Dist FieldAt(const RoadNetwork& network, const std::vector<Dist>& field,
             const Location& loc) {
  const RoadNetwork::Edge& e = network.EdgeAt(loc.edge);
  return std::min(field[e.u] + loc.offset,
                  field[e.v] + (e.length - loc.offset));
}

}  // namespace

// What one data-epoch step lets an entry keep (DESIGN.md §16). Built once
// per write; the G − e distance fields are computed on first need, out to
// `row_reach`, the largest memo distance of any row the plan will trim.
class QueryCache::CarryPlan {
 public:
  CarryPlan(const SpatialMapping& mapping, const DataChange& change,
            Dist row_reach)
      : mapping_(mapping), network_(mapping.network()),
        row_reach_(row_reach) {
    switch (change.kind) {
      case DataChange::Kind::kEdgeLength: {
        const std::vector<Location>& locations = mapping_.locations();
        edge_ = change.edge;
        w_min_ = std::min(change.old_length, network_.EdgeAt(edge_).length);
        edge_has_objects_ = change.edge_has_objects;
        for (ObjectId id = 0; id < locations.size(); ++id) {
          if (locations[id].edge == edge_) on_edge_.push_back(id);
        }
        edge_has_objects_ = edge_has_objects_ || !on_edge_.empty();
        break;
      }
      case DataChange::Kind::kInsertObject:
        inserted_ = change.object;
        break;
      case DataChange::Kind::kDeleteObject:
        deleted_ = change.object;
        break;
      case DataChange::Kind::kUnknown:
        valid_ = false;
        break;
    }
  }

  bool valid() const { return valid_; }

  // A source on the changed edge moves with it: its offset may be
  // rescaled and every distance from it can change.
  bool DropsSource(const Location& source) const {
    return edge_ != kInvalidEdge && source.edge == edge_;
  }

  bool KeepsSnapshot(const Location& source,
                     const NetworkNnStream::Snapshot& snapshot) const {
    const DijkstraSearch::Checkpoint& search = snapshot.search;
    if (edge_ != kInvalidEdge) {
      const RoadNetwork::Edge& e = network_.EdgeAt(edge_);
      const bool settled_u = search.settled[e.u] != 0;
      const bool settled_v = search.settled[e.v] != 0;
      // Neither endpoint settled: the edge was never relaxed. Both
      // settled: keep only when the edge is slack under both lengths (on
      // no shortest path before or after) and no object estimate rode on
      // it. One settled: its relaxation of the edge labeled the other.
      if (settled_u != settled_v) return false;
      if (settled_u) {
        const Dist du = search.dist[e.u];
        const Dist dv = search.dist[e.v];
        if (edge_has_objects_ || !(du + w_min_ > Margin(dv)) ||
            !(dv + w_min_ > Margin(du))) {
          return false;
        }
      }
    }
    if (inserted_ != kInvalidObject) {
      // A cold stream would already have offered an object on the source
      // edge or next to a settled node; a resumed one pads the new id
      // with kInfDist, which is right only when neither holds.
      if (inserted_ < snapshot.object_best.size()) return false;
      const Location& loc = mapping_.ObjectLocation(inserted_);
      if (loc.edge == source.edge) return false;
      const RoadNetwork::Edge& f = network_.EdgeAt(loc.edge);
      return search.settled[f.u] == 0 && search.settled[f.v] == 0;
    }
    if (deleted_ != kInvalidObject) {
      return !(deleted_ < snapshot.object_best.size() &&
               std::isfinite(snapshot.object_best[deleted_]));
    }
    return true;
  }

  // Erases the slots of `row` (memoized from `source`) the step may have
  // changed; returns how many.
  std::uint64_t TrimRow(const Location& source, MemoRow* row) {
    if (deleted_ != kInvalidObject) return row->Erase(deleted_) ? 1 : 0;
    std::uint64_t erased = 0;
    if (edge_ == kInvalidEdge || row->size() == 0) return erased;
    ComputeFields();
    const Dist from_u = FieldAt(network_, du_, source);
    const Dist from_v = FieldAt(network_, dv_, source);
    // Whole-row shortcut: reaching the edge at all costs more than the
    // row's largest distance. Objects on the edge still go: their offsets
    // were rescaled.
    if (std::min(from_u, from_v) + w_min_ > Margin(row->max_dist())) {
      for (const ObjectId id : on_edge_) erased += row->Erase(id) ? 1 : 0;
      return erased;
    }
    // Branch-free over every slot, empty ones included: an empty slot
    // reads the keep-everything sentinel past the last object, a gone
    // object reads -inf (or NaN against an unreachable source) and fails
    // the test.
    const ObjectId sentinel = static_cast<ObjectId>(object_fields_.size() - 1);
    doomed_.resize(row->capacity());
    std::size_t doomed = 0;
    for (const MemoRow::Slot& slot : row->slots()) {
      const ObjectField& field = object_fields_[std::min(slot.object, sentinel)];
      const Dist through = std::min(from_u + field.dv, from_v + field.du);
      doomed_[doomed] = slot.object;
      doomed += through + w_min_ > Margin(slot.dist) ? 0 : 1;
    }
    for (std::size_t i = 0; i < doomed; ++i) {
      erased += row->Erase(doomed_[i]) ? 1 : 0;
    }
    return erased;
  }

 private:
  // Distances from the edge's endpoints to one object in G − e.
  struct ObjectField {
    Dist du;
    Dist dv;
  };

  void ComputeFields() {
    if (!du_.empty()) return;
    const RoadNetwork::Edge& e = network_.EdgeAt(edge_);
    // A slot can only fall to a path that reaches the edge and crosses it
    // within Margin(row_reach_); anything farther may stay approximate.
    const Dist radius = Margin(row_reach_) - w_min_;
    du_ = network_.NodeDistances(e.u, edge_, radius);
    dv_ = network_.NodeDistances(e.v, edge_, radius);
    const std::vector<Location>& locations = mapping_.locations();
    // Gone until proven live and off the edge; one sentinel past the end.
    object_fields_.assign(locations.size() + 1, {-kInfDist, -kInfDist});
    object_fields_.back() = {kInfDist, kInfDist};
    for (ObjectId id = 0; id < locations.size(); ++id) {
      const Location& loc = locations[id];
      // Tombstoned, or on the changed edge (offset rescaled).
      if (loc.edge == kInvalidEdge || loc.edge == edge_) continue;
      object_fields_[id] = {FieldAt(network_, du_, loc),
                            FieldAt(network_, dv_, loc)};
    }
  }

  const SpatialMapping& mapping_;
  const RoadNetwork& network_;
  bool valid_ = true;
  // The changed edge, inserted object, or deleted object, if any.
  EdgeId edge_ = kInvalidEdge;
  bool edge_has_objects_ = false;
  Dist w_min_ = 0.0;
  std::vector<ObjectId> on_edge_;
  ObjectId inserted_ = kInvalidObject;
  ObjectId deleted_ = kInvalidObject;
  const Dist row_reach_;
  // Distances from the edge's endpoints in G − e, per node and per object.
  std::vector<Dist> du_;
  std::vector<Dist> dv_;
  std::vector<ObjectField> object_fields_;
  std::vector<ObjectId> doomed_;  // TrimRow scratch
};

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

bool QueryCache::MemoRow::Shrink() {
  std::size_t capacity = slots_.size();
  if (size_ == 0) capacity = 0;
  while (capacity > kMinRowCapacity && 8 * size_ <= 3 * (capacity / 2)) {
    capacity /= 2;
  }
  if (capacity == slots_.size()) return false;
  if (capacity == 0) {
    slots_ = {};
  } else {
    Grow(capacity);
  }
  return true;
}

void QueryCache::MemoRow::Add(ObjectId object, Dist dist) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = SlotIndex(object, mask);
  while (slots_[i].object != kInvalidObject) i = (i + 1) & mask;
  slots_[i] = Slot{object, dist};
  ++size_;
  max_dist_ = std::max(max_dist_, dist);
}

void QueryCache::MemoRow::Update(Slot* slot, Dist dist) {
  slot->dist = dist;
  max_dist_ = std::max(max_dist_, dist);
}

void QueryCache::MemoRow::Put(ObjectId object, Dist dist) {
  if (Slot* slot = Find(object)) {
    Update(slot, dist);
    return;
  }
  const std::size_t capacity = CapacityForOneMore();
  if (capacity != slots_.size()) Grow(capacity);
  Add(object, dist);
}

bool QueryCache::MemoRow::Erase(ObjectId object) {
  Slot* slot = Find(object);
  if (slot == nullptr) return false;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = static_cast<std::size_t>(slot - slots_.data());
  // Pull later members of the probe run back into the hole unless their
  // home lies cyclically in (hole, j]: they would then sit before home.
  for (std::size_t j = (hole + 1) & mask;
       slots_[j].object != kInvalidObject; j = (j + 1) & mask) {
    const std::size_t home = SlotIndex(slots_[j].object, mask);
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (stays) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = Slot{};
  --size_;
  return true;
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

void QueryCache::Charge(Shard& shard, Entry& entry, Dropped* dropped) {
  const std::size_t now = EntryBytes(
      entry.snapshot != nullptr ? entry.snapshot->bytes() : 0,
      entry.memo.bytes());
  shard.bytes = shard.bytes - entry.bytes + now;
  dropped->bytes_delta += static_cast<std::ptrdiff_t>(now) -
                          static_cast<std::ptrdiff_t>(entry.bytes);
  entry.bytes = now;
}

void QueryCache::Recharge(Shard& shard, Entry& entry, Dropped* dropped) {
  Charge(shard, entry, dropped);
  // `entry` is at the front, so the back is never it while size > 1.
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    Drop(shard, std::prev(shard.lru.end()), dropped);
  }
}

void QueryCache::Publish(const Dropped& dropped) {
  const std::uint64_t evicted = dropped.entries.size() + dropped.refused +
                                dropped.snapshots.size() +
                                dropped.memo_slots;
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (dropped.wavefronts > 0) {
      Metrics().wavefront_evictions->Inc(dropped.wavefronts);
    }
    if (dropped.memo_rows + dropped.memo_slots > 0) {
      Metrics().memo_evictions->Inc(dropped.memo_rows + dropped.memo_slots);
    }
  }
  if (dropped.bytes_delta != 0) AccountBytesDelta(dropped.bytes_delta);
}

void QueryCache::CountLookups(std::uint64_t memo_hits,
                              std::uint64_t memo_misses,
                              std::uint64_t wavefront_hits,
                              std::uint64_t wavefront_misses) {
  const CacheMetrics& metrics = Metrics();
  if (memo_hits > 0) {
    memo_hits_.fetch_add(memo_hits, std::memory_order_relaxed);
    metrics.memo_hits->Inc(memo_hits);
  }
  if (memo_misses > 0) {
    memo_misses_.fetch_add(memo_misses, std::memory_order_relaxed);
    metrics.memo_misses->Inc(memo_misses);
  }
  if (wavefront_hits > 0) {
    wavefront_hits_.fetch_add(wavefront_hits, std::memory_order_relaxed);
    metrics.wavefront_hits->Inc(wavefront_hits);
  }
  if (wavefront_misses > 0) {
    wavefront_misses_.fetch_add(wavefront_misses, std::memory_order_relaxed);
    metrics.wavefront_misses->Inc(wavefront_misses);
  }
}

void QueryCache::CountInserts(std::uint64_t memo, std::uint64_t wavefront) {
  if (memo > 0) {
    memo_inserts_.fetch_add(memo, std::memory_order_relaxed);
    Metrics().memo_inserts->Inc(memo);
  }
  if (wavefront > 0) {
    wavefront_inserts_.fetch_add(wavefront, std::memory_order_relaxed);
    Metrics().wavefront_inserts->Inc(wavefront);
  }
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
  const bool hit = snapshot != nullptr;
  CountLookups(0, 0, hit ? 1 : 0, hit ? 0 : 1);
  ++(hit ? obs::ThreadLocalCounters().cache_wavefront_hits
         : obs::ThreadLocalCounters().cache_wavefront_misses);
  return snapshot;
}

bool QueryCache::PutWavefront(Shard& shard, const Key& key,
                              std::uint64_t layout_epoch,
                              WavefrontPtr snapshot, Dropped* dropped) {
  Entry* entry = FindLive(shard, key, layout_epoch, dropped);
  const std::size_t row_bytes = entry != nullptr ? entry->memo.bytes() : 0;
  if (EntryBytes(snapshot->bytes(), row_bytes) > shard_budget_) {
    // Would evict the whole shard and still not fit: refuse.
    ++dropped->refused;
    ++dropped->wavefronts;
    return false;
  }
  if (entry == nullptr) entry = &Create(shard, key, layout_epoch);
  if (entry->snapshot != nullptr) {
    dropped->replaced.push_back(std::move(entry->snapshot));
  }
  entry->snapshot = std::move(snapshot);
  Recharge(shard, *entry, dropped);
  return true;
}

void QueryCache::StoreWavefront(const Location& source,
                                NetworkNnStream::Snapshot snapshot,
                                std::uint64_t layout_epoch) {
  const Key key = Canonical(source);
  WavefrontPtr stored = std::make_shared<const NetworkNnStream::Snapshot>(
      std::move(snapshot));
  Shard& shard = ShardFor(key);
  Dropped dropped;  // freed, with the replaced snapshot, after the lock
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    inserted =
        PutWavefront(shard, key, layout_epoch, std::move(stored), &dropped);
  }
  Publish(dropped);
  CountInserts(0, inserted ? 1 : 0);
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
        found = Dist{slot->dist};
      }
    }
  }
  Publish(dropped);
  const bool hit = found.has_value();
  CountLookups(hit ? 1 : 0, hit ? 0 : 1, 0, 0);
  ++(hit ? obs::ThreadLocalCounters().cache_memo_hits
         : obs::ThreadLocalCounters().cache_memo_misses);
  return found;
}

std::uint64_t QueryCache::PutDistances(Shard& shard, const Key& key,
                                       std::uint64_t layout_epoch,
                                       std::span<const MemoRow::Slot> stores,
                                       Dropped* dropped) {
  Entry* entry = FindLive(shard, key, layout_epoch, dropped);
  std::uint64_t inserted = 0;
  for (const MemoRow::Slot& store : stores) {
    MemoRow::Slot* slot =
        entry != nullptr ? entry->memo.Find(store.object) : nullptr;
    if (slot != nullptr) {
      entry->memo.Update(slot, store.dist);
      ++inserted;
      continue;
    }
    const std::size_t capacity = entry != nullptr
                                     ? entry->memo.CapacityForOneMore()
                                     : kMinRowCapacity;
    const std::size_t row_bytes = capacity * sizeof(MemoRow::Slot);
    const std::size_t needed =
        entry != nullptr ? entry->bytes - entry->memo.bytes() + row_bytes
                         : EntryBytes(0, row_bytes);
    if (needed > shard_budget_) {
      // The row cannot double inside one shard: refuse, keep the row.
      ++dropped->refused;
      ++dropped->memo_rows;
      continue;
    }
    if (entry == nullptr) entry = &Create(shard, key, layout_epoch);
    const bool grows = capacity != entry->memo.capacity();
    if (grows) entry->memo.Grow(capacity);
    entry->memo.Add(store.object, store.dist);
    // The entry is at the LRU front, so this never evicts it.
    if (grows) Recharge(shard, *entry, dropped);
    ++inserted;
  }
  return inserted;
}

void QueryCache::StoreDistance(const Location& source, ObjectId object,
                               Dist dist, std::uint64_t layout_epoch) {
  MSQ_CHECK(object != kInvalidObject);
  const Key key = Canonical(source);
  Shard& shard = ShardFor(key);
  const MemoRow::Slot store{object, dist};
  Dropped dropped;  // freed after the lock is released
  std::uint64_t inserted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    inserted = PutDistances(shard, key, layout_epoch, {&store, 1}, &dropped);
  }
  Publish(dropped);
  CountInserts(inserted, 0);
}

// One source of a View: its private row and what the query adds.
struct QueryCache::View::Slot {
  Key key;
  bool open = false;
  MemoRow row;            // the live row at open, plus the query's stores
  WavefrontPtr snapshot;  // as of open
  std::vector<MemoRow::Slot> stores;  // in call order, for the write-back
  WavefrontPtr staged;                // snapshot to store at the end
};

QueryCache::View::View(QueryCache* cache, std::span<const Location> sources,
                       std::uint64_t layout_epoch)
    : cache_(cache), layout_epoch_(layout_epoch) {
  if (cache_ == nullptr) return;
  slot_of_.reserve(sources.size());
  for (const Location& source : sources) {
    const Key key = Canonical(source);
    std::size_t s = 0;
    while (s < slots_.size() && !(slots_[s].key == key)) ++s;
    if (s == slots_.size()) slots_.emplace_back().key = key;
    slot_of_.push_back(s);
  }
}

QueryCache::View::~View() {
  if (cache_ == nullptr) return;
  try {
    WriteBack();
  } catch (...) {
    // Only an allocation can fail here, and the destructor may run during
    // a StorageFault unwind: count what was not written back as refused.
    std::uint64_t lost = 0;
    for (const Slot& slot : slots_) {
      lost += slot.stores.size() + (slot.staged != nullptr ? 1 : 0);
    }
    cache_->evictions_.fetch_add(lost, std::memory_order_relaxed);
  }
}

QueryCache::View::Slot& QueryCache::View::Open(std::size_t i) {
  Slot& slot = slots_[slot_of_[i]];
  if (slot.open) return slot;
  slot.open = true;
  Shard& shard = cache_->ShardFor(slot.key);
  Dropped dropped;  // freed after the lock is released
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (const Entry* entry =
            cache_->FindLive(shard, slot.key, layout_epoch_, &dropped)) {
      slot.row = entry->memo;
      slot.snapshot = entry->snapshot;
    }
  }
  cache_->Publish(dropped);
  return slot;
}

QueryCache::WavefrontPtr QueryCache::View::Wavefront(std::size_t i) {
  if (cache_ == nullptr) return nullptr;
  WavefrontPtr snapshot = Open(i).snapshot;
  const bool hit = snapshot != nullptr;
  ++(hit ? wavefront_hits_ : wavefront_misses_);
  ++(hit ? obs::ThreadLocalCounters().cache_wavefront_hits
         : obs::ThreadLocalCounters().cache_wavefront_misses);
  return snapshot;
}

std::optional<Dist> QueryCache::View::FindDistance(std::size_t i,
                                                   ObjectId object) {
  if (cache_ == nullptr) return std::nullopt;
  MSQ_CHECK(object != kInvalidObject);
  if (const MemoRow::Slot* slot = Open(i).row.Find(object)) {
    ++memo_hits_;
    ++obs::ThreadLocalCounters().cache_memo_hits;
    return Dist{slot->dist};
  }
  ++memo_misses_;
  ++obs::ThreadLocalCounters().cache_memo_misses;
  return std::nullopt;
}

void QueryCache::View::StoreDistance(std::size_t i, ObjectId object,
                                     Dist dist) {
  if (cache_ == nullptr) return;
  MSQ_CHECK(object != kInvalidObject);
  Slot& slot = Open(i);
  slot.row.Put(object, dist);
  slot.stores.push_back(MemoRow::Slot{object, dist});
}

void QueryCache::View::StoreWavefront(std::size_t i,
                                      NetworkNnStream::Snapshot snapshot) {
  if (cache_ == nullptr) return;
  Open(i).staged = std::make_shared<const NetworkNnStream::Snapshot>(
      std::move(snapshot));
}

void QueryCache::View::WriteBack() {
  cache_->CountLookups(memo_hits_, memo_misses_, wavefront_hits_,
                       wavefront_misses_);
  Dropped dropped;  // freed after every shard lock is released
  std::uint64_t memo_inserts = 0;
  std::uint64_t wavefront_inserts = 0;
  for (Slot& slot : slots_) {
    if (slot.stores.empty() && slot.staged == nullptr) continue;
    Shard& shard = cache_->ShardFor(slot.key);
    std::lock_guard<std::mutex> lock(shard.mu);
    memo_inserts += cache_->PutDistances(shard, slot.key, layout_epoch_,
                                         slot.stores, &dropped);
    slot.stores.clear();
    if (slot.staged != nullptr &&
        cache_->PutWavefront(shard, slot.key, layout_epoch_,
                             std::move(slot.staged), &dropped)) {
      ++wavefront_inserts;
    }
  }
  cache_->Publish(dropped);
  cache_->CountInserts(memo_inserts, wavefront_inserts);
}

bool QueryCache::CarryOver(CarryPlan& plan, Shard& shard, Entry& entry,
                           std::uint64_t epoch, Dropped* dropped) {
  const Location source{entry.key.edge, entry.key.offset};
  if (plan.DropsSource(source)) return false;
  if (entry.snapshot != nullptr &&
      !plan.KeepsSnapshot(source, *entry.snapshot)) {
    dropped->snapshots.push_back(std::move(entry.snapshot));
    ++dropped->wavefronts;
    Charge(shard, entry, dropped);
  }
  const std::uint64_t trimmed = plan.TrimRow(source, &entry.memo);
  dropped->memo_slots += trimmed;
  if (trimmed > 0 && entry.memo.Shrink()) Charge(shard, entry, dropped);
  entry.layout_epoch = epoch;
  return true;
}

void QueryCache::Maintain(const GraphPager& pager,
                          const SpatialMapping& mapping) {
  const DataStep step = pager.LastStep();
  // Pass 1: are there stale entries, and how far do the rows the step
  // will trim reach?
  bool stale = false;
  Dist row_reach = -kInfDist;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& entry : shard->lru) {
      if (entry.layout_epoch == step.to_epoch) continue;
      stale = true;
      if (entry.layout_epoch == step.from_epoch && entry.memo.size() > 0) {
        row_reach = std::max(row_reach, entry.memo.max_dist());
      }
    }
  }
  if (!stale) return;
  CarryPlan plan(mapping, step.change, row_reach);

  // Pass 2: carry each entry the step starts from over it; drop every
  // other stale entry.
  Dropped dropped;  // freed after every shard lock is released
  std::uint64_t carried = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      const auto next = std::next(it);
      if (it->layout_epoch != step.to_epoch) {
        if (it->layout_epoch == step.from_epoch && plan.valid() &&
            CarryOver(plan, *shard, *it, step.to_epoch, &dropped)) {
          ++carried;
        } else {
          Drop(*shard, it, &dropped);
        }
      }
      it = next;
    }
  }
  Publish(dropped);
  carried_.fetch_add(carried, std::memory_order_relaxed);
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

std::vector<QueryCache::EntryView> QueryCache::Entries() const {
  std::vector<EntryView> views;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& entry : shard->lru) {
      EntryView& view = views.emplace_back();
      view.source = Location{entry.key.edge, entry.key.offset};
      view.layout_epoch = entry.layout_epoch;
      view.snapshot = entry.snapshot;
      for (const MemoRow::Slot& slot : entry.memo.slots()) {
        if (slot.object != kInvalidObject) {
          view.memo.emplace_back(slot.object, Dist{slot.dist});
        }
      }
    }
  }
  return views;
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
  stats.carried = carried_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t QueryCache::bytes() const {
  return bytes_.load(std::memory_order_relaxed);
}

}  // namespace msq
