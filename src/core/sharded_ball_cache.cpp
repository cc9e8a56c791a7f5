#include "core/sharded_ball_cache.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "graph/bfs.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace meloppr::core {

void ShardedBallCache::FrequencySketch::record(std::uint64_t mixed) {
  for (std::size_t row = 0; row < kRows; ++row) {
    std::uint8_t& counter = table_[row][index(mixed, row)];
    if (counter < kMaxCount) ++counter;
  }
  if (++records_ >= kSamplePeriod) {
    // Aging (the "reset" of TinyLFU): halving keeps the *relative* order
    // of hot vs cold keys while bounding how long stale popularity can
    // veto admission.
    for (auto& row : table_) {
      for (std::uint8_t& counter : row) counter >>= 1;
    }
    records_ = 0;
  }
}

std::uint32_t ShardedBallCache::FrequencySketch::estimate(
    std::uint64_t mixed) const {
  std::uint32_t freq = kMaxCount;
  for (std::size_t row = 0; row < kRows; ++row) {
    freq = std::min<std::uint32_t>(freq, table_[row][index(mixed, row)]);
  }
  return freq;
}

void ShardedBallCache::FrequencySketch::clear() {
  for (auto& row : table_) {
    for (std::uint8_t& counter : row) counter = 0;
  }
  records_ = 0;
}

std::size_t ShardedBallCache::FrequencySketch::index(std::uint64_t mixed,
                                                     std::size_t row) {
  // Each row re-mixes with its own odd constant so the rows' collision
  // patterns are independent (the count-min guarantee needs pairwise
  // independent rows, not just shifted views of one hash).
  return static_cast<std::size_t>(
             splitmix64(mixed ^ (0x9e3779b97f4a7c15ULL * (row + 1)))) %
         kCounters;
}

ShardedBallCache::~ShardedBallCache() {
  if (dynamic_ != nullptr) dynamic_->remove_listener(listener_id_);
}

void ShardedBallCache::bind_dynamic_graph(graph::DynamicGraph& dyn) {
  MELO_CHECK(dynamic_ == nullptr);
  dynamic_ = &dyn;
  listener_id_ = dyn.add_update_listener(
      [this](const graph::EdgeUpdate& update, std::uint64_t version) {
        invalidate_edge(update, version);
      });
}

void ShardedBallCache::index_ball(Shard& shard, const BallKey& key,
                                  const graph::Subgraph& ball) {
  for (const graph::NodeId global : ball.local_to_global()) {
    shard.reverse_index[global].insert(key);
  }
  reverse_index_entries_.fetch_add(ball.num_nodes(),
                                   std::memory_order_relaxed);
}

void ShardedBallCache::unindex_ball(Shard& shard, const BallKey& key,
                                    const graph::Subgraph& ball) {
  for (const graph::NodeId global : ball.local_to_global()) {
    const auto it = shard.reverse_index.find(global);
    if (it == shard.reverse_index.end()) continue;
    it->second.erase(key);
    if (it->second.empty()) shard.reverse_index.erase(it);
  }
  reverse_index_entries_.fetch_sub(ball.num_nodes(),
                                   std::memory_order_relaxed);
}

void ShardedBallCache::invalidate_edge(const graph::EdgeUpdate& update,
                                       std::uint64_t version) {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    util::MutexLock lock(shard.mu);
    shard.last_invalidation_version = version;
    // Residents: the reverse index lists exactly the balls containing an
    // endpoint — no scan of unaffected entries. A ball containing both
    // endpoints appears under each; the map re-check makes the second
    // lookup a no-op.
    std::vector<BallKey> victims;
    for (const graph::NodeId endpoint : {update.u, update.v}) {
      const auto it = shard.reverse_index.find(endpoint);
      if (it == shard.reverse_index.end()) continue;
      victims.insert(victims.end(), it->second.begin(), it->second.end());
    }
    for (const BallKey& key : victims) {
      const auto it = shard.map.find(key);
      if (it == shard.map.end()) continue;
      const Entry& entry = *it->second;
      shard.bytes -= entry.ball_bytes;
      total_bytes_.fetch_sub(entry.ball_bytes, std::memory_order_relaxed);
      unindex_ball(shard, key, *entry.ball);
      shard.lru.erase(it->second);
      shard.map.erase(it);
      invalidations_.fetch_add(1, std::memory_order_relaxed);
    }
    // In-flight extractions are left alone: the insert-time staleness gate
    // (and the joiners' min_version check) keeps their results out.
  }
}

std::vector<BallKey> ShardedBallCache::resident_keys() const {
  std::vector<BallKey> keys;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    for (const auto& [key, it] : shard->map) keys.push_back(key);
  }
  return keys;
}

ShardedBallCache::BallPtr ShardedBallCache::peek(const BallKey& key) const {
  Shard& shard = *shards_[(splitmix64(key.packed()) >> 40) % shards_.size()];
  util::MutexLock lock(shard.mu);
  const auto it = shard.map.find(key);
  return it == shard.map.end() ? nullptr : it->second->ball;
}

ShardedBallCache::ShardedBallCache(const graph::Graph& g,
                                   std::size_t byte_budget,
                                   std::size_t shards,
                                   CacheAdmission admission)
    : graph_(&g), budget_(byte_budget), admission_(admission) {
  if (byte_budget == 0) {
    throw std::invalid_argument(
        "ShardedBallCache: byte budget must be positive");
  }
  const std::size_t n = shards == 0 ? kDefaultShards : shards;
  shard_budget_ = byte_budget / n;
  if (shard_budget_ == 0) shard_budget_ = 1;
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    if (admission_ == CacheAdmission::kTinyLFU) {
      // Lock for the analysis: no other thread can see this fresh shard,
      // but `sketch` is a guarded field and ctor exemption only covers
      // members of the class under construction, not heap objects.
      Shard& shard = *shards_.back();
      util::MutexLock lock(shard.mu);
      shard.sketch = std::make_unique<FrequencySketch>();
    }
  }
}

void ShardedBallCache::count_hit(bool deduped) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (deduped) dedup_hits_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedBallCache::count_miss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
}

ShardedBallCache::Fetch ShardedBallCache::fetch(graph::NodeId root,
                                                unsigned radius,
                                                std::uint64_t min_version) {
  const BallKey key{root, radius};
  Shard& shard = shard_for(key);

  // The loop re-enters only when a joined in-flight extraction turns out
  // to predate the caller's min_version (dynamic mode): the retry either
  // finds a fresh resident or claims its own extraction at the current
  // version, which always satisfies min_version — so it terminates.
  for (;;) {
  std::promise<Extracted> promise;
  {
    util::MutexLock lock(shard.mu);
    // Every access (hit or miss) feeds the frequency estimate that
    // admission later compares.
    if (shard.sketch != nullptr) shard.sketch->record(splitmix64(key.packed()));
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // → MRU
      count_hit(/*deduped=*/false);
      return {it->second->ball, /*hit=*/true, /*deduped=*/false, 0.0,
              it->second->version};
    }
    if (const auto it = shard.in_flight.find(key);
        it != shard.in_flight.end()) {
      // Another thread is extracting this very ball; wait for its result
      // outside the lock instead of duplicating the BFS.
      std::shared_future<Extracted> pending = it->second;
      lock.unlock();
      Extracted extracted;
      try {
        extracted = pending.get();  // rethrows the extractor's exception
      } catch (...) {
        // The access still happened: count it before surfacing the
        // extractor's failure, or hit/miss totals silently drift under
        // failures (a miss, not a hit — nothing was served).
        count_miss();
        throw;
      }
      if (dynamic_ != nullptr && extracted.version < min_version &&
          dynamic_->touched_since(*extracted.ball, extracted.version)) {
        // The joined extraction started before this query was admitted and
        // an update has touched its ball since: serving it would hand the
        // query state older than its admission stamp. Retry — the next
        // pass serves a fresh resident or extracts at the current version.
        stale_rejects_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      count_hit(/*deduped=*/true);
      return {std::move(extracted.ball), /*hit=*/true, /*deduped=*/true, 0.0,
              extracted.version};
    }
    shard.in_flight.emplace(key, promise.get_future().share());
  }

  // Miss with the extraction claimed: run the BFS unlocked so other shards
  // (and other keys of this shard, briefly) keep serving. In dynamic mode
  // the extraction runs under the graph's shared lock, which serializes it
  // against updates and stamps it with an exact version.
  Timer timer;
  BallPtr ball;
  std::uint64_t ball_version = 0;
  try {
    if (dynamic_ != nullptr) {
      ball = std::make_shared<const graph::Subgraph>(
          dynamic_->extract_ball(root, radius, &ball_version));
    } else {
      ball = std::make_shared<const graph::Subgraph>(
          extractor_ ? extractor_(*graph_, root, radius)
                     : graph::extract_ball(*graph_, root, radius));
    }
  } catch (...) {
    // Unclaim the key, then unblock the waiters with the same failure. In
    // the other order a woken waiter's retry could find the failed future
    // still claimed and join it again, burning its whole retry budget on
    // one failed extraction.
    extraction_failures_.fetch_add(1, std::memory_order_relaxed);
    {
      util::MutexLock lock(shard.mu);
      shard.in_flight.erase(key);
    }
    promise.set_exception(std::current_exception());
    count_miss();  // the access happened; keep the totals honest
    throw;
  }
  const double extract_seconds = timer.elapsed_seconds();
  promise.set_value({ball, ball_version});
  count_miss();

  // Freshness probe BEFORE taking the shard lock (lock order is graph →
  // shard, never the reverse): has any update touched this ball since its
  // extraction? `checked_version` is the version that answer is valid for.
  bool fresh = true;
  std::uint64_t checked_version = ball_version;
  if (dynamic_ != nullptr) {
    fresh = !dynamic_->touched_since(*ball, ball_version, &checked_version);
  }

  const std::size_t incoming = ball->bytes();
  {
    util::MutexLock lock(shard.mu);
    shard.in_flight.erase(key);
    shard.extraction_seconds += extract_seconds;
    // Insert-time staleness gate: retain only if the ball is untouched up
    // to checked_version AND no invalidation scan has visited this shard
    // after that — a scan that passed between the probe and this lock
    // could not have seen the entry, so retaining would leave a stale
    // resident behind. (A scan arriving AFTER the insert finds the entry
    // in the reverse index and removes it normally.) The caller is still
    // served: its admission version can't exceed the extraction version.
    const bool retain =
        dynamic_ == nullptr ||
        (fresh && shard.last_invalidation_version <= checked_version);
    if (!retain) stale_rejects_.fetch_add(1, std::memory_order_relaxed);
    // clear() may have raced ahead of this insertion; re-check the map in
    // case another extraction of the same key landed first (possible only
    // across a clear()).
    if (retain && incoming <= shard_budget_ &&
        shard.map.find(key) == shard.map.end() &&
        admit(shard, key, incoming)) {
      shard.lru.push_front(Entry{key, ball, incoming, ball_version});
      shard.map.emplace(key, shard.lru.begin());
      shard.bytes += incoming;
      total_bytes_.fetch_add(incoming, std::memory_order_relaxed);
      if (dynamic_ != nullptr) index_ball(shard, key, *ball);
    }
  }
  return {std::move(ball), /*hit=*/false, /*deduped=*/false, extract_seconds,
          ball_version};
  }  // for (;;)
}

void ShardedBallCache::evict_lru_until_fits(Shard& shard,
                                            std::size_t incoming) {
  // kAlways: exact LRU order, allocation-free — this runs under the
  // contended shard mutex on every insert that needs room.
  while (!shard.lru.empty() && shard.bytes + incoming > shard_budget_) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.ball_bytes;
    total_bytes_.fetch_sub(victim.ball_bytes, std::memory_order_relaxed);
    if (dynamic_ != nullptr) unindex_ball(shard, victim.key, *victim.ball);
    shard.map.erase(victim.key);
    shard.lru.pop_back();  // pinned readers keep the ball alive via BallPtr
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ShardedBallCache::plan_evictions(
    Shard& shard, std::size_t incoming, std::uint32_t candidate,
    std::vector<std::list<Entry>::iterator>& victims) const {
  std::size_t reclaimed = 0;
  const auto need_more = [&] {
    return shard.bytes - reclaimed + incoming > shard_budget_;
  };
  // Candidates roll in from the cold end; the adaptive tail window (~10%
  // of the shard's residents, floor 8, cap 64 — a small shard behaves
  // exactly like the old fixed window) competes and the coldest-by-sketch
  // goes first (strict < keeps the least-recently-used on ties), so a hot
  // ball that drifted to the tail between bursts outlives one-shot entries
  // that are merely more recent. Each entry is estimated once, as it
  // enters the window — estimates cannot change mid-plan (the lock is
  // held) — and the window buffer is a fixed-size stack array sized for
  // the cap: this runs under the contended shard mutex, so the only heap
  // allocation left is the victims list itself.
  const std::size_t scan_window = eviction_scan_window(shard.map.size());
  auto next = shard.lru.rbegin();
  std::array<std::pair<std::list<Entry>::iterator, std::uint32_t>,
             kMaxEvictionScanWindow>
      window;
  std::size_t window_size = 0;
  while (need_more()) {
    while (window_size < scan_window && next != shard.lru.rend()) {
      const auto it = std::prev(next.base());
      window[window_size++] = {
          it, shard.sketch->estimate(splitmix64(it->key.packed()))};
      ++next;
    }
    if (window_size == 0) break;  // whole shard planned away
    std::size_t pick = 0;
    for (std::size_t i = 1; i < window_size; ++i) {
      if (window[i].second < window[pick].second) pick = i;
    }
    if (window[pick].second >= candidate) return false;
    reclaimed += window[pick].first->ball_bytes;
    victims.push_back(window[pick].first);
    // Compact in place (order carries the LRU tie-break; < window moves).
    for (std::size_t i = pick + 1; i < window_size; ++i) {
      window[i - 1] = window[i];
    }
    --window_size;
  }
  return true;
}

void ShardedBallCache::evict(
    Shard& shard, const std::vector<std::list<Entry>::iterator>& victims) {
  for (const auto& it : victims) {
    shard.bytes -= it->ball_bytes;
    total_bytes_.fetch_sub(it->ball_bytes, std::memory_order_relaxed);
    if (dynamic_ != nullptr) unindex_ball(shard, it->key, *it->ball);
    shard.map.erase(it->key);
    shard.lru.erase(it);  // pinned readers keep the ball alive via BallPtr
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ShardedBallCache::admit(Shard& shard, const BallKey& key,
                             std::size_t incoming) {
  if (shard.sketch == nullptr) {
    evict_lru_until_fits(shard, incoming);
    MELO_CHECK(shard.bytes + incoming <= shard_budget_);
    return true;
  }
  // kTinyLFU — plan first, mutate last: the duel runs against exactly the
  // victims sketch-informed eviction would take, so admission and eviction
  // can never disagree about who goes — and a lost duel costs nothing, the
  // shard is left exactly as it was. TinyLFU gate: the candidate must be
  // estimated strictly hotter than every victim it displaces (ties keep
  // the residents — one-shot scan keys all estimate ~1 and can never
  // displace a ball that has been hit repeatedly). The plan stops at the
  // first victim that wins the duel, before it is even recorded.
  const std::uint32_t candidate =
      shard.sketch->estimate(splitmix64(key.packed()));
  std::vector<std::list<Entry>::iterator> victims;
  if (!plan_evictions(shard, incoming, candidate, victims)) {
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  evict(shard, victims);
  MELO_CHECK(shard.bytes + incoming <= shard_budget_);
  return true;
}

ShardedBallCache::Stats ShardedBallCache::stats() const {
  util::MutexLock lock(stats_mu_);
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  s.extraction_failures =
      extraction_failures_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.stale_rejects = stale_rejects_.load(std::memory_order_relaxed);
  s.reverse_index_entries =
      reverse_index_entries_.load(std::memory_order_relaxed);
  return s;
}

std::size_t ShardedBallCache::entries() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

double ShardedBallCache::extraction_seconds() const {
  double total = 0.0;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    total += shard->extraction_seconds;
  }
  return total;
}

void ShardedBallCache::clear() {
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    shard->lru.clear();
    shard->map.clear();
    total_bytes_.fetch_sub(shard->bytes, std::memory_order_relaxed);
    shard->bytes = 0;
    shard->extraction_seconds = 0.0;
    // The sketch must reset with the residents: stale popularity from
    // before the reset would otherwise veto admission of the next working
    // set (every new ball would lose its duel against phantoms).
    if (shard->sketch != nullptr) shard->sketch->clear();
    // The reverse index mirrors the residents, so it empties with them;
    // the gauge drops by exactly this shard's live pairs. NOTE:
    // last_invalidation_version is deliberately NOT reset — forgetting
    // that an update happened would let a racing pre-update extraction
    // slip past the insert-time staleness gate.
    std::size_t indexed = 0;
    for (const auto& [vertex, keys] : shard->reverse_index) {
      indexed += keys.size();
    }
    reverse_index_entries_.fetch_sub(indexed, std::memory_order_relaxed);
    shard->reverse_index.clear();
    // in_flight is left alone: those extractions complete normally.
  }
  // Zero the counters as one unit: stats() holds the same mutex, so a
  // snapshot sees either the pre-reset or the post-reset world, never a
  // mix (the hit-rate race this fixes).
  util::MutexLock lock(stats_mu_);
  hits_.store(0);
  misses_.store(0);
  dedup_hits_.store(0);
  evictions_.store(0);
  admission_rejects_.store(0);
  extraction_failures_.store(0);
  // The dynamic-mode counters reset with the rest (the PR 5 lesson:
  // every counter a snapshot reports must reset as one unit with it).
  invalidations_.store(0);
  stale_rejects_.store(0);
}

}  // namespace meloppr::core
