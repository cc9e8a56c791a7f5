// Thread-safe N-way sharded LRU cache of extracted BFS balls, keyed by
// (root, radius) — the engine's one ball cache.
//
// In a query-serving deployment the CPU-side BFS dominates end-to-end
// latency (Fig. 7's light-blue bars; the paper notes BFS becomes the
// bottleneck past P=16). Consecutive queries re-extract heavily overlapping
// stage-2 balls — popular nodes are selected as next-stage nodes by many
// different seeds — so caching extracted balls converts BFS time into
// memory, a second instance of the paper's central memory↔latency trade.
// The serial engine and the pipeline's workers all extract balls through
// one shared cache, so popular-seed locality is exploited across the whole
// worker pool. Design:
//
//   * Sharding. Keys are distributed over N independent shards by the high
//     bits of the splitmix64-mixed key (the map inside a shard consumes the
//     low bits, so the two uses are decorrelated). Each shard owns its own
//     mutex, LRU list and byte budget (total / N), so concurrent fetches of
//     different balls contend only when they land in the same shard.
//
//   * Pinned entries. fetch() hands out shared_ptr<const Subgraph>, so an
//     eviction (or clear()) while another worker still reads the ball only
//     drops the cache's reference — the ball stays alive until its last
//     reader releases it.
//
//   * In-flight miss deduplication. When two workers miss on the same
//     popular ball simultaneously, the first installs a shared_future and
//     runs the BFS; the second waits on the future instead of extracting
//     the same ball twice. Counted as dedup_hits — BFS work avoided, not
//     merely bytes served.
//
//   * Frequency-aware admission (CacheAdmission::kTinyLFU). Each shard
//     carries a 4-bit count-min sketch of ball access frequency (every
//     fetch records its key; the sketch is halved periodically so history
//     ages out). When retaining a new ball would evict residents, the
//     candidate must be estimated strictly hotter than every victim it
//     displaces, or it is served without being retained — so a one-pass
//     scan of cold seeds can never flush the hot hub balls the serving
//     pipeline depends on. kAlways (the default) is plain LRU.
//
//   * Sketch-informed eviction. Under kTinyLFU the victims themselves are
//     chosen by frequency, not recency alone: eviction scans an adaptive
//     tail window of the LRU (~10% of the shard's residents, floor 8,
//     cap 64 — see eviction_scan_window()) and takes the coldest-by-sketch
//     first, so a hot ball that merely drifted to the cold end (a
//     mid-recency hub between bursts) outlives one-shot entries that are
//     more recent. The admission duel above is run against exactly the
//     victims this selection would take, so the two policies never
//     disagree. kAlways keeps pure LRU order.
//
//   * Surgical invalidation (bind_dynamic_graph). Bound to a DynamicGraph,
//     each shard maintains a reverse-reachability index (vertex → the
//     cached BallKeys whose ball contains it, updated at insert/evict
//     under the shard lock). An edge update then invalidates exactly the
//     resident balls containing either endpoint — instead of
//     clear() — inside the graph's update listener, BEFORE the new version
//     publishes. That ordering plus an insert-time staleness gate (an
//     extraction that raced an update is served to its caller but never
//     retained — stale_rejects) yields the serving invariant: every
//     resident ball reflects all updates up to the current
//     graph version, so a query stamped at admission is always served
//     balls at least as fresh as its stamp. In-flight extractions are
//     version-stamped; a demand fetch joining one whose result predates
//     the fetch's min_version re-extracts rather than serve stale state.
//     Static-mode caches (never bound) pay nothing for any of this.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "util/thread_annotations.hpp"

namespace meloppr::core {

/// splitmix64 finalizer — a full-avalanche 64-bit mixer, so every output bit
/// depends on every input bit. The previous `root << 8 ^ radius` scheme
/// clustered keys (consecutive roots map 256 apart) and collided outright
/// once radius ≥ 256 overflowed into the root bits.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Cache key: which ball. Root and radius occupy disjoint halves of the
/// 64-bit pre-mix word, so distinct keys can never alias before mixing.
struct BallKey {
  graph::NodeId root = graph::kInvalidNode;
  unsigned radius = 0;
  bool operator==(const BallKey&) const = default;
  [[nodiscard]] std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(root) << 32) |
           static_cast<std::uint64_t>(radius);
  }
};

struct BallKeyHash {
  std::size_t operator()(const BallKey& k) const {
    return static_cast<std::size_t>(splitmix64(k.packed()));
  }
};

class ShardedBallCache {
 public:
  using BallPtr = std::shared_ptr<const graph::Subgraph>;
  /// Pluggable extraction function (fault injection / alternate storage):
  /// called as extractor(graph, root, radius) on every miss.
  using Extractor =
      std::function<graph::Subgraph(const graph::Graph&, graph::NodeId,
                                    unsigned)>;

  /// What one fetch() did, for per-task attribution.
  struct Fetch {
    BallPtr ball;  ///< always set
    bool hit = false;      ///< served without running a BFS on this thread
    bool deduped = false;  ///< joined another thread's extraction
    double extract_seconds = 0.0;  ///< BFS time paid by THIS call (0 on hit)
    /// Graph version the ball was extracted at (dynamic mode; 0 static).
    /// Resident balls are additionally current: they reflect every update
    /// up to the graph version at the time they were served.
    std::uint64_t version = 0;
  };

  /// `byte_budget` is split evenly across `shards` (0 → kDefaultShards).
  /// A ball larger than its shard's budget is served but never retained.
  /// `admission` selects the retention policy (see CacheAdmission in
  /// config.hpp); kTinyLFU costs ~4 KiB of sketch per shard and one sketch
  /// update per fetch, both under the shard lock the fetch already holds.
  /// Throws std::invalid_argument on a zero budget.
  ShardedBallCache(const graph::Graph& g, std::size_t byte_budget,
                   std::size_t shards = 0,
                   CacheAdmission admission = CacheAdmission::kAlways);
  /// Unregisters the dynamic-graph listener, if bound.
  ~ShardedBallCache();

  /// Returns the ball around `root` with the given radius, extracting it on
  /// a miss (or waiting for a concurrent extraction of the same key). Safe
  /// from any number of threads.
  ///
  /// `min_version` (dynamic mode only) is the graph version the caller's
  /// query was admitted at: the fetch never serves a ball reflecting an
  /// older state. Residents always satisfy it (they are kept current by
  /// invalidation); only a joined in-flight extraction that started before
  /// the caller's admission can fail it, in which case the fetch
  /// re-extracts at the current version instead.
  Fetch fetch(graph::NodeId root, unsigned radius,
              std::uint64_t min_version = 0);

  /// Routes miss-path extraction through `dyn` (delta-aware, version
  /// stamped under the graph's shared lock) and registers this cache for
  /// surgical invalidation on every update. Overrides set_extractor. Call
  /// before the cache is shared; `dyn` must outlive this cache. The
  /// Graph passed to the constructor is ignored while bound.
  void bind_dynamic_graph(graph::DynamicGraph& dyn);

  /// Convenience wrapper when the caller only wants the ball.
  BallPtr get(graph::NodeId root, unsigned radius) {
    return fetch(root, radius).ball;
  }

  /// Replaces the extraction function used on misses (empty restores the
  /// built-in graph::extract_ball). Intended for fault injection and tests;
  /// must not be called concurrently with fetches — install it before the
  /// cache is shared. An extractor that throws fails only the fetches of
  /// that one key attempt: waiters parked on the in-flight future are woken
  /// with the same exception, the key is unclaimed so the next fetch
  /// re-attempts, and extraction_failures counts the event.
  void set_extractor(Extractor extractor) {
    extractor_ = std::move(extractor);
  }

  static constexpr std::size_t kDefaultShards = 16;
  /// Bounds of the adaptive eviction-scan window (ROADMAP "Adaptive
  /// eviction-scan window"): how far into the LRU tail sketch-informed
  /// eviction looks for a colder victim. 1 would be pure LRU; larger
  /// windows protect hot balls deeper into the list at the cost of a
  /// slightly longer scan per eviction.
  static constexpr std::size_t kMinEvictionScanWindow = 8;
  static constexpr std::size_t kMaxEvictionScanWindow = 64;

  /// The scan window for a shard currently holding `residents` entries:
  /// ~10% of them, floored at kMinEvictionScanWindow (small shards behave
  /// exactly like the old fixed window of 8) and capped at
  /// kMaxEvictionScanWindow (the plan loop's stack buffer — and an
  /// eviction-latency bound, since the scan runs under the shard mutex).
  [[nodiscard]] static std::size_t eviction_scan_window(
      std::size_t residents) {
    return std::clamp(residents / 10, kMinEvictionScanWindow,
                      kMaxEvictionScanWindow);
  }

  /// One coherent view of the cache-wide counters. Taken as a unit so a
  /// concurrent clear() can never split a reader's view (e.g. hits read
  /// before the reset, misses after — which made hit_rate() transiently
  /// report nonsense). Individual counters keep incrementing lock-free
  /// while a snapshot is taken; only reset vs read is serialized.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t dedup_hits = 0;
    std::size_t evictions = 0;          ///< residents displaced for room
    std::size_t admission_rejects = 0;  ///< TinyLFU: served, not retained
    /// Extractions that threw (flaky extractor / storage fault). Each one
    /// fails exactly the fetches joined to that attempt; the key is
    /// re-attemptable immediately afterwards.
    std::size_t extraction_failures = 0;
    /// Resident balls removed by edge-update invalidation (dynamic mode):
    /// exactly the balls containing an updated endpoint.
    std::size_t invalidations = 0;
    /// Extractions that raced an update and were served but not retained,
    /// plus stale in-flight joins that re-extracted (dynamic mode).
    std::size_t stale_rejects = 0;
    /// Live reverse-index (vertex, BallKey) pairs — a gauge, not a
    /// counter: Σ over resident balls of their node count.
    std::size_t reverse_index_entries = 0;
    [[nodiscard]] double hit_rate() const {
      const std::size_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  // --- statistics (atomic; safe to read while serving) ---
  /// Consistent snapshot of every counter (serialized against clear()).
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t hits() const { return hits_.load(); }
  [[nodiscard]] std::size_t misses() const { return misses_.load(); }
  /// Fetches that piggybacked on another thread's in-flight
  /// extraction (already included in hits()).
  [[nodiscard]] std::size_t dedup_hits() const { return dedup_hits_.load(); }
  /// Entries evicted to make room (both admission modes).
  [[nodiscard]] std::size_t evictions() const { return evictions_.load(); }
  /// Balls served but not retained because a resident victim was estimated
  /// hotter (kTinyLFU only; always 0 under kAlways).
  [[nodiscard]] std::size_t admission_rejects() const {
    return admission_rejects_.load();
  }
  [[nodiscard]] CacheAdmission admission() const { return admission_; }
  /// stats().hit_rate().
  [[nodiscard]] double hit_rate() const { return stats().hit_rate(); }

  /// Extractions that threw (see Stats::extraction_failures).
  [[nodiscard]] std::size_t extraction_failures() const {
    return extraction_failures_.load();
  }
  /// Balls removed by edge-update invalidation (see Stats::invalidations).
  [[nodiscard]] std::size_t invalidations() const {
    return invalidations_.load();
  }
  /// Stale extractions served-but-not-retained (see Stats::stale_rejects).
  [[nodiscard]] std::size_t stale_rejects() const {
    return stale_rejects_.load();
  }
  /// Live reverse-index (vertex, BallKey) pairs (dynamic mode gauge).
  [[nodiscard]] std::size_t reverse_index_entries() const {
    return reverse_index_entries_.load(std::memory_order_relaxed);
  }
  /// The bound DynamicGraph's current version (0 when not bound).
  [[nodiscard]] std::uint64_t current_version() const {
    return dynamic_ == nullptr ? 0 : dynamic_->version();
  }

  /// Test/introspection: every resident key, no LRU or stats effects.
  [[nodiscard]] std::vector<BallKey> resident_keys() const;
  /// Test/introspection: the resident ball for `key` (nullptr on a miss),
  /// without touching LRU order, stats, or the sketch.
  [[nodiscard]] BallPtr peek(const BallKey& key) const;

  /// Current cached footprint across all shards (Subgraph::bytes() sums).
  /// Lock-free (an atomic total maintained on insert/evict): safe to poll
  /// from the per-task hot path without re-serializing the shards.
  [[nodiscard]] std::size_t bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t byte_budget() const { return budget_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Total BFS seconds paid on misses, by whichever thread ran them.
  [[nodiscard]] double extraction_seconds() const;

  /// Drops every cached ball, the frequency sketches, and the statistics — a full reset to the constructed state. The sketches must
  /// go too: stale popularity from before the reset would otherwise veto
  /// admission of the next working set. Balls still pinned by outstanding
  /// BallPtrs survive until released. Extractions in flight complete and
  /// are inserted afterwards (their stats land post-clear).
  void clear();

 private:
  struct Entry {
    BallKey key;
    BallPtr ball;
    std::size_t ball_bytes = 0;
    /// Graph version the ball was extracted at (0 in static mode).
    std::uint64_t version = 0;
  };

  /// In-flight extraction result: the ball plus the graph version it was
  /// extracted at (captured under the graph's shared lock).
  struct Extracted {
    BallPtr ball;
    std::uint64_t version = 0;
  };

  /// TinyLFU's frequency estimator: a count-min sketch of 4-bit saturating
  /// counters, halved every `kSamplePeriod` records so estimates decay and
  /// yesterday's hot set cannot veto today's. Guarded by the owning
  /// shard's mutex — no internal synchronization.
  class FrequencySketch {
   public:
    /// Saturating increment of `mixed`'s counters in every row.
    void record(std::uint64_t mixed);
    /// Frequency estimate: the minimum counter across rows (classic
    /// count-min — overestimates only, never underestimates).
    [[nodiscard]] std::uint32_t estimate(std::uint64_t mixed) const;
    /// Zeroes every counter — used by ShardedBallCache::clear() so
    /// popularity from before a reset cannot veto admission of the next
    /// working set.
    void clear();

   private:
    static constexpr std::size_t kRows = 4;
    static constexpr std::size_t kCounters = 1024;  ///< per row, power of 2
    static constexpr std::uint8_t kMaxCount = 15;   ///< 4-bit saturation
    /// Aging horizon: after this many records, every counter is halved.
    static constexpr std::size_t kSamplePeriod = 8 * kCounters;

    [[nodiscard]] static std::size_t index(std::uint64_t mixed,
                                           std::size_t row);

    std::uint8_t table_[kRows][kCounters] = {};
    std::size_t records_ = 0;
  };

  struct Shard {
    util::Mutex mu;
    std::list<Entry> lru MELOPPR_GUARDED_BY(mu);  ///< MRU at front
    std::unordered_map<BallKey, std::list<Entry>::iterator, BallKeyHash> map
        MELOPPR_GUARDED_BY(mu);
    /// Extractions in progress: later fetches of the same key wait here.
    std::unordered_map<BallKey, std::shared_future<Extracted>, BallKeyHash>
        in_flight MELOPPR_GUARDED_BY(mu);
    std::size_t bytes MELOPPR_GUARDED_BY(mu) = 0;
    double extraction_seconds MELOPPR_GUARDED_BY(mu) = 0.0;
    /// Ball access frequencies (kTinyLFU only).
    std::unique_ptr<FrequencySketch> sketch MELOPPR_GUARDED_BY(mu);
    /// Reverse-reachability index (dynamic mode only): vertex → the
    /// resident BallKeys whose ball contains it. Maintained at
    /// insert/evict under `mu`; empty when no DynamicGraph is bound, so
    /// static stacks pay nothing.
    std::unordered_map<graph::NodeId,
                       std::unordered_set<BallKey, BallKeyHash>>
        reverse_index MELOPPR_GUARDED_BY(mu);
    /// Version of the latest update whose invalidation scan visited this
    /// shard. The insert-time staleness gate compares against it: a ball
    /// whose freshness was probed at an older version may have been
    /// missed by a scan that already passed, so it is served, not
    /// retained. Never reset (clear() must not forget an update happened).
    std::uint64_t last_invalidation_version MELOPPR_GUARDED_BY(mu) = 0;
  };

  [[nodiscard]] Shard& shard_for(const BallKey& key) {
    // High bits pick the shard; the in-shard map hashes the same mixed word
    // from the low end, so shard choice and bucket choice stay independent.
    return *shards_[(splitmix64(key.packed()) >> 40) % shards_.size()];
  }

  void count_hit(bool deduped);
  void count_miss();

  /// Must hold `shard.mu`. kAlways eviction: walks the LRU tail in place
  /// (allocation-free — this is the hot insert path) until `incoming`
  /// fits.
  void evict_lru_until_fits(Shard& shard, std::size_t incoming)
      MELOPPR_REQUIRES(shard.mu);

  /// Must hold `shard.mu`; kTinyLFU only (`shard.sketch != nullptr`).
  /// Appends to `victims` (in eviction order) the entries that would make
  /// room for `incoming` bytes, without mutating the shard: coldest-by-
  /// sketch within the adaptive tail window (eviction_scan_window of the
  /// shard's residents), each entry estimated once as it enters the window
  /// (ties keep the least-recently-used). Stops once enough bytes are
  /// covered and returns true — or, at the first planned victim estimated
  /// at least as hot as `candidate`, stops and returns false: the TinyLFU
  /// duel is lost, so the rest of the plan would be thrown away.
  [[nodiscard]] bool plan_evictions(
      Shard& shard, std::size_t incoming, std::uint32_t candidate,
      std::vector<std::list<Entry>::iterator>& victims) const
      MELOPPR_REQUIRES(shard.mu);

  /// Must hold `shard.mu`. Erases the planned victims and updates the
  /// byte accounting.
  void evict(Shard& shard,
             const std::vector<std::list<Entry>::iterator>& victims)
      MELOPPR_REQUIRES(shard.mu);

  /// Must hold `shard.mu`. Applies the admission policy for a ball of
  /// `incoming` bytes keyed `key`: evicts victims and returns true when
  /// the ball should be retained, or returns false (TinyLFU reject —
  /// nothing evicted) when a needed victim is estimated at least as hot.
  bool admit(Shard& shard, const BallKey& key, std::size_t incoming)
      MELOPPR_REQUIRES(shard.mu);

  /// Must hold `shard.mu`; dynamic mode only. Adds/removes `key` under
  /// every member vertex of `ball` in the shard's reverse index.
  void index_ball(Shard& shard, const BallKey& key,
                  const graph::Subgraph& ball) MELOPPR_REQUIRES(shard.mu);
  void unindex_ball(Shard& shard, const BallKey& key,
                    const graph::Subgraph& ball) MELOPPR_REQUIRES(shard.mu);

  /// The DynamicGraph update listener: removes every resident ball listed
  /// under either endpoint in the reverse index, and records `version` as each shard's
  /// last_invalidation_version. Runs under the graph's writer lock before
  /// the version publishes; takes each shard's lock in turn (lock order
  /// graph → shard, matching nothing that holds a shard lock while taking
  /// the graph lock).
  void invalidate_edge(const graph::EdgeUpdate& update,
                       std::uint64_t version);

  const graph::Graph* graph_;
  /// Bound by bind_dynamic_graph; null in static mode.
  graph::DynamicGraph* dynamic_ = nullptr;
  std::size_t listener_id_ = 0;
  std::size_t budget_;
  std::size_t shard_budget_;
  CacheAdmission admission_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> dedup_hits_{0};
  std::atomic<std::size_t> evictions_{0};
  std::atomic<std::size_t> admission_rejects_{0};
  std::atomic<std::size_t> extraction_failures_{0};
  std::atomic<std::size_t> invalidations_{0};
  std::atomic<std::size_t> stale_rejects_{0};
  /// Gauge: live (vertex, BallKey) reverse-index pairs across all shards.
  std::atomic<std::size_t> reverse_index_entries_{0};
  /// Miss-path extraction function; empty → graph::extract_ball. Set
  /// before sharing the cache (not synchronized against fetches).
  Extractor extractor_;
  /// Sum of per-shard bytes, updated under the owning shard's mutex.
  std::atomic<std::size_t> total_bytes_{0};
  /// Serializes counter *resets* against stats() snapshots. Increments are
  /// lock-free; without this a snapshot interleaving with clear() could
  /// pair pre-reset hits with post-reset misses. Guards no fields (the
  /// counters stay atomic); it exists purely to order reset against read.
  mutable util::Mutex stats_mu_;
};

}  // namespace meloppr::core
