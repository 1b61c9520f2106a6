// Cross-query reuse layer (DESIGN.md §11).
//
// One entry per query source, two tiers inside it, one byte budget:
//
//  * Wavefront snapshot — when a query finishes, the per-source
//    NetworkNnStream (CE's expansion engine) is checkpointed: settled
//    labels, frontier heap, per-object distance estimates. A later query
//    from the same source resumes the stream instead of re-expanding from
//    scratch. Snapshots are immutable and handed out as
//    shared_ptr<const Snapshot>, so a reader keeps its copy alive across
//    eviction or invalidation.
//
//  * Memo row — exact ObjectId -> Dist distances from the entry's source,
//    harvested from settled searches (CE emissions, EDC/LBC probe
//    completions) into an open-addressed flat table that grows by
//    doubling. Consulted before any expansion; a memo hit costs zero page
//    accesses, and a store allocates nothing unless the row doubles.
//
// A partially expanded wavefront still helps queries it cannot answer
// exactly: ProbeCheckpoint derives an admissible network-distance lower
// bound from the settled labels and the frontier radius, tightening the
// Euclidean/landmark bounds LBC screens with.
//
// Concurrency: lock-striped like BufferManager — the source hash picks a
// shard, each shard serializes its map + LRU list under its own mutex.
// Queries reach it through a View, one shard lock in and one out per
// source per query.
// Eviction is LRU by bytes within each shard (budget / shard_count each),
// at source grain: an entry's bytes are its snapshot plus its row's slot
// capacity, and the victim goes with both. A store that would push its own
// entry past the shard budget (an oversized snapshot, a row doubling
// beyond it) is refused and counted as an eviction. Invalidate() empties
// every shard and bumps the epoch; callers that swapped the dataset must
// call it before reusing the cache.
//
// Writes: Maintain() runs under the executor's write barrier after every
// exclusive job. It reads the pager's last data-epoch step and keeps
// each snapshot and memo slot that step provably cannot change,
// re-stamped to the new epoch; everything else is dropped and counted as
// an eviction (DESIGN.md §16).
//
// Counting discipline: hits and misses are a DISTINCT access class,
// reported through cache.* metrics and ThreadCounters — never folded into
// buffer page accesses. QueryStats reconciliation (obs/trace.h) depends on
// this separation.
#ifndef MSQ_CACHE_QUERY_CACHE_H_
#define MSQ_CACHE_QUERY_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/nn_stream.h"
#include "graph/road_network.h"

namespace msq {

struct QueryCacheConfig {
  // Total byte budget across both tiers and all shards.
  std::size_t max_bytes = 64u << 20;
  // Lock stripes. Sources map to shards by hash; each shard owns
  // max_bytes / shard_count.
  std::size_t shard_count = 8;
};

// Lower bound on the distance from the checkpoint's source to every
// not-yet-settled node (the wavefront radius at checkpoint time).
// kInfDist when the frontier is exhausted — every reachable node settled.
// O(frontier); compute once per checkpoint and pass to ProbeCheckpoint.
Dist CheckpointRadius(const DijkstraSearch::Checkpoint& checkpoint);

struct WavefrontProbe {
  // Admissible lower bound on net_dist(source, target): never exceeds the
  // true distance, so it can tighten any lower-bound screen.
  Dist bound = 0;
  // True when `bound` IS the exact network distance (both target-edge
  // endpoints settled, or an exact candidate provably beats every path
  // through the unsettled frontier).
  bool exact = false;
};

// Probes a checkpointed wavefront for the distance from its source to
// `target`. `radius` must be CheckpointRadius(checkpoint). `source` must be
// the location the checkpoint was expanded from.
WavefrontProbe ProbeCheckpoint(const RoadNetwork& network,
                               const DijkstraSearch::Checkpoint& checkpoint,
                               Dist radius, Location source, Location target);

// Thread-safe, byte-budgeted, two-tier cross-query cache. One instance is
// shared by every worker of a QueryExecutor (Dataset::cache).
class QueryCache {
 public:
  using WavefrontPtr = std::shared_ptr<const NetworkNnStream::Snapshot>;

  explicit QueryCache(QueryCacheConfig config = QueryCacheConfig{});

  // Every source entry is stamped with the GraphPager data epoch it was
  // built against (`layout_epoch` parameters below; see
  // GraphPager::data_epoch(), which starts at layout_epoch() and advances
  // past every committed mutation). A Find under a different epoch treats
  // the entry as a miss AND drops it, snapshot and memo row together; a
  // Store under a different epoch drops it and starts a fresh one. That
  // is the fallback: an executor that writes calls Maintain() after every
  // write, which re-stamps what the write provably left unchanged.
  // Wavefront snapshots hold node-indexed state (settled bitmaps, frontier
  // heaps), so resuming one against a renumbered graph — or against a
  // graph whose edge weights or resident objects changed — would be silent
  // corruption; its size even matches. Memo distances are edge-keyed and
  // would survive a pure relabel, but they share the entry's stamp: an
  // epoch change marks "the world the entry was computed in is gone", and
  // one invalidation rule for both tiers is the safe one. The default 0
  // keeps single-layout callers (tests, direct use without a pager) on one
  // consistent namespace.

  // --- Wavefront tier ---------------------------------------------------

  // Snapshot for `source`, or null on miss. Counts one wavefront hit or
  // miss (global metrics + calling thread's ThreadCounters).
  WavefrontPtr FindWavefront(const Location& source,
                             std::uint64_t layout_epoch = 0);

  // Stores (or replaces) the snapshot for `source`, keeping its memo row.
  // A store that would take the source's entry past one shard's budget is
  // rejected and counted as an eviction.
  void StoreWavefront(const Location& source,
                      NetworkNnStream::Snapshot snapshot,
                      std::uint64_t layout_epoch = 0);

  // --- Distance memo tier -----------------------------------------------

  // Exact network distance for (source, object) if memoized. Counts one
  // memo hit or miss.
  std::optional<Dist> FindDistance(const Location& source, ObjectId object,
                                   std::uint64_t layout_epoch = 0);

  // Memoizes an EXACT network distance. Callers must never store bounds.
  // A store that would double the source's row past one shard's budget is
  // rejected and counted as an eviction.
  void StoreDistance(const Location& source, ObjectId object, Dist dist,
                     std::uint64_t layout_epoch = 0);

  // --- Query-scoped view ------------------------------------------------

  // One query's handle on the entries of its sources, at the query's data
  // epoch (DESIGN.md §11). Query paths use it instead of the per-call
  // Find/Store methods above, which take a shard lock per call.
  //
  // The first use of a source takes its shard lock once: the live entry's
  // memo row is copied in and its snapshot taken. After that, finds and
  // stores touch only the private row, with no lock, and a find sees the
  // query's own stores. Sources at the same location share one slot.
  // Destruction takes each opened source's shard lock once more and writes
  // the query's stores back in call order, then its staged snapshot, under
  // the StoreDistance/StoreWavefront rules. It never throws: what a failed
  // allocation keeps it from writing back counts as refused (evictions).
  //
  // Counting: each find and wavefront lookup bumps the calling thread's
  // counters at once, so spans and QueryStats stay exact; the instance
  // stats() and the registry counters are added at destruction.
  //
  // Sound because a query runs on the shared side of the write barrier:
  // every distance it stores is exact at its epoch, so any merge order with
  // other workers' write-backs leaves only exact distances.
  class View {
   public:
    // A null `cache` makes every lookup miss without counting and every
    // store a no-op.
    View(QueryCache* cache, std::span<const Location> sources,
         std::uint64_t layout_epoch);
    ~View();
    View(const View&) = delete;
    View& operator=(const View&) = delete;

    bool enabled() const { return cache_ != nullptr; }

    // Source `i`'s snapshot as of its first use, or null. Counts one
    // wavefront hit or miss per call.
    WavefrontPtr Wavefront(std::size_t i);
    // Exact distance from source `i` to `object` if memoized. Counts one
    // memo hit or miss.
    std::optional<Dist> FindDistance(std::size_t i, ObjectId object);
    // Memoizes an EXACT distance from source `i`; written back at the end.
    void StoreDistance(std::size_t i, ObjectId object, Dist dist);
    // Stages a snapshot of source `i`'s wavefront, stored at the end.
    void StoreWavefront(std::size_t i, NetworkNnStream::Snapshot snapshot);

   private:
    struct Slot;
    Slot& Open(std::size_t i);
    void WriteBack();

    QueryCache* const cache_;
    const std::uint64_t layout_epoch_;
    std::vector<std::size_t> slot_of_;  // source index -> slots_ index
    std::vector<Slot> slots_;
    std::uint64_t memo_hits_ = 0;
    std::uint64_t memo_misses_ = 0;
    std::uint64_t wavefront_hits_ = 0;
    std::uint64_t wavefront_misses_ = 0;
  };

  // --- Write maintenance ------------------------------------------------

  // Carries every entry stamped with the from_epoch of `pager`'s last
  // data-epoch step (GraphPager::LastStep) over that step, keeping the
  // snapshot and memo slots it provably left unchanged and re-stamping the
  // entry to pager.data_epoch(); the rules and their proofs are DESIGN.md
  // §16. Every other stale entry, and every entry when the step is
  // kUnknown, is dropped. Each dropped entry, snapshot, and memo slot counts as one
  // eviction. `mapping` is the object layer of the pager's world. No query
  // may run concurrently: call under the executor's write barrier.
  void Maintain(const GraphPager& pager, const SpatialMapping& mapping);

  // --- Audit ------------------------------------------------------------

  // A copy of one resident entry.
  struct EntryView {
    Location source;
    std::uint64_t layout_epoch = 0;
    WavefrontPtr snapshot;
    std::vector<std::pair<ObjectId, Dist>> memo;
  };
  // Every resident entry, shard by shard, with its memo row copied out:
  // for audits and tests, not for query paths.
  std::vector<EntryView> Entries() const;

  // --- Lifecycle --------------------------------------------------------

  // Drops every entry in both tiers and advances the epoch. Required after
  // a dataset reload: cached distances are meaningless against a new graph.
  void Invalidate();

  struct Stats {
    std::uint64_t wavefront_hits = 0;
    std::uint64_t wavefront_misses = 0;
    std::uint64_t wavefront_inserts = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t memo_inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    // Entries Maintain() carried over to a new data epoch.
    std::uint64_t carried = 0;
  };
  // Instance-scoped totals (the cache.* global metrics aggregate across
  // instances; tests use this to stay isolated).
  Stats stats() const;

  // Current resident bytes across all shards.
  std::size_t bytes() const;

  // Generation count, advanced by Invalidate().
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  const QueryCacheConfig& config() const { return config_; }

 private:
  // A source, canonicalized: offsets are compared bit-for-bit after
  // normalizing -0.0.
  struct Key {
    EdgeId edge = 0;
    Dist offset = 0;

    bool operator==(const Key& other) const {
      return edge == other.edge && offset == other.offset;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  // Open-addressed ObjectId -> Dist table with linear probing. The slot
  // count is 0 or a power of two; empty slots hold kInvalidObject.
  class MemoRow {
   public:
    // Packed to 12 bytes rather than padded to 16: slots are nearly all
    // of a row's bytes, and the distance's 4-byte alignment costs nothing
    // on the targets the project builds for. Read `dist` by value
    // (`Dist{slot->dist}`): a `const Dist&` to it would be misaligned.
#pragma pack(push, 4)
    struct Slot {
      ObjectId object = kInvalidObject;
      Dist dist = 0;
    };
#pragma pack(pop)
    static_assert(sizeof(Slot) == sizeof(ObjectId) + sizeof(Dist));

    // The slot holding `object`, or null.
    Slot* Find(ObjectId object);
    // Slot count the row needs to take one more object.
    std::size_t CapacityForOneMore() const;
    // Rehashes into `capacity` slots (a power of two above size()).
    void Grow(std::size_t capacity);
    // Halves the slot count while the row would stay at most 3/8 full,
    // releasing an empty row: a trim must not leave capacity the row's
    // stores no longer need. Returns whether the row shrank.
    bool Shrink();
    // Adds an absent object; the row must have room for it.
    void Add(ObjectId object, Dist dist);
    // Overwrites a slot's distance.
    void Update(Slot* slot, Dist dist);
    // Update or Add, growing as needed: for rows outside any budget.
    void Put(ObjectId object, Dist dist);
    // Removes `object` by backward-shift deletion (no tombstones, so
    // probe sequences stay short). Returns whether it was present.
    bool Erase(ObjectId object);

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }
    std::size_t bytes() const { return slots_.size() * sizeof(Slot); }
    const std::vector<Slot>& slots() const { return slots_; }
    // At least every stored distance (erasures do not lower it); -inf
    // until the first store.
    Dist max_dist() const { return max_dist_; }

   private:
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    Dist max_dist_ = -kInfDist;
  };

  // How one data-epoch step carries entries over (defined in the .cc
  // file).
  class CarryPlan;

  struct Entry {
    Key key;
    WavefrontPtr snapshot;  // null until a wavefront is stored
    MemoRow memo;
    std::size_t bytes = 0;           // as last charged to the shard
    std::uint64_t layout_epoch = 0;  // data epoch the entry was built on
  };

  // front = most recently used.
  using LruList = std::list<Entry>;

  struct Shard {
    std::mutex mu;
    LruList lru;
    std::unordered_map<Key, LruList::iterator, KeyHash> map;
    std::size_t bytes = 0;
  };

  // What one call dropped or refused under a shard lock: published (and
  // the dropped entries and snapshots freed) after the lock is released.
  struct Dropped {
    LruList entries;
    std::vector<WavefrontPtr> snapshots;  // dropped from entries that stay
    std::vector<WavefrontPtr> replaced;   // by a newer snapshot; not evicted
    std::uint64_t refused = 0;     // stores refused by the budget
    std::uint64_t wavefronts = 0;  // snapshots dropped or refused
    std::uint64_t memo_rows = 0;   // non-empty rows dropped, memos refused
    std::uint64_t memo_slots = 0;  // slots erased from rows that stay
    std::ptrdiff_t bytes_delta = 0;
  };

  static Key Canonical(const Location& source);
  // Bytes an entry holding `snapshot_bytes` and `row_bytes` is charged.
  static std::size_t EntryBytes(std::size_t snapshot_bytes,
                                std::size_t row_bytes);
  Shard& ShardFor(const Key& key);
  // The live entry for `key`, moved to the LRU front, or null. An entry
  // stamped with another epoch is dropped and reads as absent.
  Entry* FindLive(Shard& shard, const Key& key, std::uint64_t layout_epoch,
                  Dropped* dropped);
  // A fresh, empty entry for `key` at the LRU front.
  Entry& Create(Shard& shard, const Key& key, std::uint64_t layout_epoch);
  // Unlinks `it` from the shard into `dropped`.
  void Drop(Shard& shard, LruList::iterator it, Dropped* dropped);
  // Re-charges `entry` (at the LRU front) after it grew or shrank, then
  // evicts from the LRU back until the shard fits its budget slice.
  void Recharge(Shard& shard, Entry& entry, Dropped* dropped);
  // Re-charges `entry` to its current size; never evicts.
  void Charge(Shard& shard, Entry& entry, Dropped* dropped);
  // Under `shard`'s lock: applies `stores` in order to the live entry for
  // `key`, creating it on the first accepted store. A store that would
  // double the row past the shard budget is refused. Returns the accepted
  // stores.
  std::uint64_t PutDistances(Shard& shard, const Key& key,
                             std::uint64_t layout_epoch,
                             std::span<const MemoRow::Slot> stores,
                             Dropped* dropped);
  // Under `shard`'s lock: stores `snapshot` in the live entry for `key`,
  // moving the one it replaces to `dropped->replaced`. Refused when the entry would
  // exceed the shard budget. Returns whether it was stored.
  bool PutWavefront(Shard& shard, const Key& key, std::uint64_t layout_epoch,
                    WavefrontPtr snapshot, Dropped* dropped);
  // Adds one query's lookups to the instance stats and the registry.
  void CountLookups(std::uint64_t memo_hits, std::uint64_t memo_misses,
                    std::uint64_t wavefront_hits,
                    std::uint64_t wavefront_misses);
  void CountInserts(std::uint64_t memo, std::uint64_t wavefront);
  // Applies `plan` to `entry` (stamped with the step's from_epoch):
  // returns false when the whole entry must go, else trims what the plan's
  // step invalidates and re-stamps it to `epoch`.
  bool CarryOver(CarryPlan& plan, Shard& shard, Entry& entry,
                 std::uint64_t epoch, Dropped* dropped);
  // Counts what `dropped` recorded; call after releasing the shard lock.
  void Publish(const Dropped& dropped);
  void AccountBytesDelta(std::ptrdiff_t delta);

  const QueryCacheConfig config_;
  const std::size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> epoch_{0};

  std::atomic<std::uint64_t> wavefront_hits_{0};
  std::atomic<std::uint64_t> wavefront_misses_{0};
  std::atomic<std::uint64_t> wavefront_inserts_{0};
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> memo_misses_{0};
  std::atomic<std::uint64_t> memo_inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> carried_{0};
};

}  // namespace msq

#endif  // MSQ_CACHE_QUERY_CACHE_H_
