// ShardedBallCache: correctness under concurrency — shard contention,
// eviction under budget pressure, in-flight miss deduplication, pinning —
// plus the splitmix64 key-hash distribution properties, single-shard LRU
// behavior, and engine integration.
#include "core/sharded_ball_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/engine.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace meloppr::core {
namespace {

using graph::Graph;

TEST(BallKeyHash, NoCollisionsAcrossRootsAndLargeRadii) {
  // The old `root << 8 ^ radius` scheme collided as soon as radius ≥ 256
  // spilled into the root bits: (root, 256) aliased (root^1, 0). The
  // splitmix64 finalizer must keep every key distinct (64-bit space; any
  // collision among a few hundred thousand keys would be astronomically
  // unlikely — seeing one means the mixing broke).
  BallKeyHash hash;
  std::unordered_set<std::size_t> seen;
  std::size_t keys = 0;
  for (graph::NodeId root = 0; root < 20'000; ++root) {
    for (unsigned radius : {0u, 1u, 3u, 6u, 255u, 256u, 257u, 512u}) {
      seen.insert(hash(BallKey{root, radius}));
      ++keys;
    }
  }
  EXPECT_EQ(seen.size(), keys);
}

TEST(BallKeyHash, OldSchemeCollisionsAreResolved) {
  // Direct regression pairs for the pre-fix scheme.
  BallKeyHash hash;
  EXPECT_NE(hash(BallKey{7, 256}), hash(BallKey{6, 0}));
  EXPECT_NE(hash(BallKey{0, 256}), hash(BallKey{1, 0}));
  EXPECT_NE(hash(BallKey{100, 512}), hash(BallKey{102, 0}));
}

TEST(BallKeyHash, BitsSpreadAcrossShardsAndBuckets) {
  // Sequential roots with one radius — the serving access pattern — must
  // spread evenly over both the shard selector (high bits) and a power-of-
  // two bucket mask (low bits).
  constexpr std::size_t kBuckets = 16;
  constexpr std::size_t kKeys = 16'384;
  std::vector<std::size_t> shard_load(kBuckets, 0);
  std::vector<std::size_t> bucket_load(kBuckets, 0);
  for (graph::NodeId root = 0; root < kKeys; ++root) {
    const std::uint64_t mixed = splitmix64(BallKey{root, 3}.packed());
    ++shard_load[(mixed >> 40) % kBuckets];
    ++bucket_load[mixed % kBuckets];
  }
  const double expected = static_cast<double>(kKeys) / kBuckets;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    EXPECT_GT(shard_load[b], expected / 2) << "shard " << b;
    EXPECT_LT(shard_load[b], expected * 2) << "shard " << b;
    EXPECT_GT(bucket_load[b], expected / 2) << "bucket " << b;
    EXPECT_LT(bucket_load[b], expected * 2) << "bucket " << b;
  }
}

TEST(ShardedBallCache, HitsOnRepeatedKeys) {
  Graph g = graph::fixtures::cycle(50);
  ShardedBallCache cache(g, 1 << 20, 4);
  const auto first = cache.get(5, 3);
  EXPECT_EQ(cache.misses(), 1u);
  const auto second = cache.get(5, 3);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.get(), second.get());  // same cached object
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(ShardedBallCache, DifferentRadiusIsDifferentEntry) {
  Graph g = graph::fixtures::cycle(50);
  for (const std::size_t shards : {1u, 4u}) {
    ShardedBallCache cache(g, 1 << 20, shards);
    cache.get(5, 2);
    cache.get(5, 3);
    EXPECT_EQ(cache.misses(), 2u) << "shards=" << shards;
    EXPECT_EQ(cache.entries(), 2u) << "shards=" << shards;
  }
}

TEST(ShardedBallCache, ZeroBudgetRejected) {
  Graph g = graph::fixtures::path(4);
  EXPECT_THROW(ShardedBallCache(g, 0), std::invalid_argument);
}

TEST(ShardedBallCache, EvictionRespectsPerShardBudget) {
  Graph g = graph::fixtures::cycle(400);
  // Probe one ball's footprint (all radius-2 cycle balls are identical).
  std::size_t one_ball;
  {
    ShardedBallCache probe(g, 1 << 20, 1);
    probe.get(0, 2);
    one_ball = probe.bytes();
  }
  ASSERT_GT(one_ball, 0u);
  // One shard, room for exactly 3 balls.
  ShardedBallCache cache(g, 3 * one_ball + one_ball / 2, 1);
  for (graph::NodeId root : {0u, 10u, 20u, 30u, 40u, 50u}) {
    cache.get(root, 2);
  }
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_LE(cache.bytes(), cache.byte_budget());
  // The three most recent survive; the oldest were evicted.
  cache.get(50, 2);
  cache.get(40, 2);
  cache.get(30, 2);
  EXPECT_EQ(cache.hits(), 3u);
  cache.get(0, 2);
  EXPECT_EQ(cache.misses(), 7u);  // 6 cold + this re-miss
}

TEST(ShardedBallCache, RecentUseProtectsFromEviction) {
  Graph g = graph::fixtures::cycle(200);
  std::size_t one_ball;
  {
    ShardedBallCache probe(g, 1 << 20, 1);
    probe.get(0, 2);
    one_ball = probe.bytes();  // every radius-2 cycle ball is the same size
  }
  ShardedBallCache cache(g, 3 * one_ball + one_ball / 2, 1);
  cache.get(0, 2);
  cache.get(10, 2);
  cache.get(20, 2);
  cache.get(0, 2);   // refresh node 0 to MRU
  cache.get(30, 2);  // evicts node 10's ball, not node 0's
  cache.get(0, 2);   // still cached
  EXPECT_EQ(cache.hits(), 2u);
  cache.get(10, 2);  // the true victim misses
  EXPECT_EQ(cache.misses(), 5u);
}

TEST(ShardedBallCache, OversizedBallServedButNotRetained) {
  Graph g = graph::fixtures::complete(64);
  ShardedBallCache cache(g, 128, 1);  // far below any ball's footprint
  const auto ball = cache.get(0, 1);
  EXPECT_EQ(ball->num_nodes(), 64u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ShardedBallCache, EvictedBallStaysPinnedForReaders) {
  Graph g = graph::fixtures::cycle(400);
  std::size_t one_ball;
  {
    ShardedBallCache probe(g, 1 << 20, 1);
    probe.get(0, 2);
    one_ball = probe.bytes();
  }
  ShardedBallCache cache(g, one_ball + one_ball / 2, 1);  // room for one
  const auto pinned = cache.get(0, 2);
  cache.get(100, 2);  // evicts node 0's ball from the cache
  cache.get(200, 2);
  // The shared_ptr still owns a valid ball even though the cache moved on.
  EXPECT_EQ(pinned->root_global(), 0u);
  EXPECT_GT(pinned->num_nodes(), 0u);
  EXPECT_LE(cache.bytes(), cache.byte_budget());
}

TEST(ShardedBallCache, ConcurrentSameKeyExtractsOnce) {
  Rng rng(71);
  Graph g = graph::barabasi_albert(2000, 2, 2, rng);
  ShardedBallCache cache(g, 64u << 20, 8);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const auto ball = cache.get(42, 3);
      EXPECT_EQ(ball->root_global(), 42u);
    });
  }
  for (auto& t : threads) t.join();
  // However the threads interleaved, the BFS ran exactly once: everyone
  // else hit the entry or joined the in-flight extraction (dedup).
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::size_t>(kThreads - 1));
}

TEST(ShardedBallCache, ConcurrentStressUnderBudgetPressure) {
  Rng rng(72);
  Graph g = graph::barabasi_albert(3000, 2, 3, rng);
  // Tight budget: constant eviction while 8 threads hammer 64 hot keys.
  ShardedBallCache cache(g, 256u << 10, 8);
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::atomic<std::size_t> serves{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng local(100 + t);
      for (int i = 0; i < kIters; ++i) {
        const graph::NodeId root =
            static_cast<graph::NodeId>(local.below(64) * 47 % 3000);
        const unsigned radius = 2 + static_cast<unsigned>(local.below(2));
        const auto ball = cache.get(root, radius);
        ASSERT_EQ(ball->root_global(), root);
        ASSERT_EQ(ball->radius(), radius);
        serves.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(serves.load(), static_cast<std::size_t>(kThreads * kIters));
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::size_t>(kThreads * kIters));
  EXPECT_LE(cache.bytes(), cache.byte_budget());
  EXPECT_GT(cache.hits(), 0u);  // hot keys must see reuse even while evicting
}

TEST(ShardedBallCache, ClearResetsEverything) {
  Graph g = graph::fixtures::cycle(50);
  ShardedBallCache cache(g, 1 << 20, 4);
  cache.get(1, 2);
  cache.get(1, 2);
  cache.get(2, 2);
  cache.clear();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_DOUBLE_EQ(cache.extraction_seconds(), 0.0);
  // Dynamic-mode counters reset with everything else (trivially zero here
  // with no dynamic graph bound; the bound-mode regression lives in
  // dynamic_graph_test's ClearResetsDynamicCountersAndIndex).
  const ShardedBallCache::Stats s = cache.stats();
  EXPECT_EQ(s.invalidations, 0u);
  EXPECT_EQ(s.stale_rejects, 0u);
  EXPECT_EQ(s.reverse_index_entries, 0u);
}

TEST(ShardedBallCache, StatsSnapshotNeverMixesResetState) {
  // Regression: hit_rate() used to read hits and misses as two separate
  // atomic loads, so a concurrent clear() between them produced a mixed
  // view (pre-reset hits over post-reset misses — a transient 100% hit
  // rate from thin air). stats() must hand back either the fully
  // populated or the fully reset counters, never a blend.
  Graph g = graph::fixtures::cycle(100);
  ShardedBallCache cache(g, 1 << 20, 2);
  const int rounds = 100;
  for (int round = 0; round < rounds; ++round) {
    // Known pattern: 3 misses (cold keys) + 5 hits, no concurrent fetches.
    for (graph::NodeId root : {1u, 2u, 3u}) cache.get(root, 2);
    for (int i = 0; i < 5; ++i) cache.get(1, 2);
    std::atomic<bool> cleared{false};
    std::thread clearer([&] {
      cache.clear();
      cleared.store(true);
    });
    while (!cleared.load()) {
      const ShardedBallCache::Stats s = cache.stats();
      const bool populated = s.hits == 5 && s.misses == 3;
      const bool reset = s.hits == 0 && s.misses == 0;
      ASSERT_TRUE(populated || reset)
          << "mixed snapshot: hits=" << s.hits << " misses=" << s.misses;
      const double rate = cache.hit_rate();
      ASSERT_TRUE(rate == 0.0 || rate == 5.0 / 8.0)
          << "mixed hit rate " << rate;
    }
    clearer.join();
    const ShardedBallCache::Stats final_stats = cache.stats();
    EXPECT_EQ(final_stats.hits, 0u);
    EXPECT_EQ(final_stats.misses, 0u);
  }
}

TEST(ShardedBallCache, TracksExtractionSeconds) {
  Graph g = graph::fixtures::cycle(100);
  for (const std::size_t shards : {1u, 2u}) {
    ShardedBallCache cache(g, 1 << 20, shards);
    cache.get(3, 3);
    const double after_miss = cache.extraction_seconds();
    EXPECT_GT(after_miss, 0.0) << "shards=" << shards;
    cache.get(3, 3);
    EXPECT_DOUBLE_EQ(cache.extraction_seconds(), after_miss)  // hit is free
        << "shards=" << shards;
  }
}

TEST(ShardedBallCache, FailedExtractionStillCountsTheAccess) {
  // A fetch whose BFS throws must still count as a miss — both the
  // claiming thread's and every thread that deduped onto the doomed
  // in-flight extraction. Before the fix the dedup path rethrew without
  // counting, so hit/miss totals silently drifted under failures.
  Graph g = graph::fixtures::cycle(100);
  ShardedBallCache cache(g, 1 << 20, 1);
  EXPECT_THROW(cache.fetch(999, 2), std::invalid_argument);  // root out of range
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // Concurrently: every access of the doomed key fails exactly once,
  // whether it claimed the extraction, joined it in flight, or raced the
  // un-claim — totals must equal accesses with zero hits.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 40;
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = 0; i < kIters; ++i) {
        try {
          (void)cache.fetch(999, 3);
        } catch (const std::invalid_argument&) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), kThreads * kIters);
  const ShardedBallCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1 + kThreads * kIters);
  EXPECT_EQ(s.hits, 0u);
}

TEST(ShardedBallCache, FlakyExtractorWakesWaitersForReattempt) {
  // When the claiming thread's extraction throws, every thread deduped
  // onto the in-flight slot must be woken with the same exception and the
  // key left unclaimed — a later attempt (the engine's extraction-retry
  // budget) claims afresh and can succeed. A waiter left sleeping on the
  // doomed promise would hang this test.
  Graph g = graph::fixtures::cycle(200);
  ShardedBallCache cache(g, 1 << 20, 1);
  std::atomic<int> extractions{0};
  // In-flight dedup serializes extractor calls for a single key, so the
  // counter decides deterministically: the first 3 claims fail.
  cache.set_extractor(
      [&extractions](const Graph& graph, graph::NodeId root,
                     unsigned radius) -> graph::Subgraph {
        if (extractions.fetch_add(1) < 3) {
          throw std::runtime_error("injected extractor fault");
        }
        return graph::extract_ball(graph, root, radius);
      });

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<std::size_t> served{0};
  std::atomic<std::size_t> faulted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (;;) {
        try {
          const auto ball = cache.get(7, 2);
          EXPECT_EQ(ball->root_global(), 7u);
          served.fetch_add(1, std::memory_order_relaxed);
          return;
        } catch (const std::runtime_error&) {
          faulted.fetch_add(1, std::memory_order_relaxed);  // woken — retry
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(served.load(), static_cast<std::size_t>(kThreads));
  EXPECT_GE(faulted.load(), 3u);  // each failed claim surfaced at least once
  EXPECT_EQ(cache.extraction_failures(), 3u);
  EXPECT_EQ(cache.entries(), 1u);  // the eventual success was cached
}

TEST(ShardedBallCache, SetExtractorSwapsAndRestoresDefault) {
  Graph g = graph::fixtures::cycle(100);
  ShardedBallCache cache(g, 1 << 20, 1);
  cache.set_extractor(
      meloppr::make_flaky_extractor(meloppr::FaultPlan::parse("extractor=1")));
  EXPECT_THROW(cache.get(3, 2), std::runtime_error);
  EXPECT_EQ(cache.extraction_failures(), 1u);
  EXPECT_EQ(cache.stats().extraction_failures, 1u);
  cache.set_extractor({});  // empty restores graph::extract_ball
  EXPECT_EQ(cache.get(3, 2)->root_global(), 3u);
  cache.clear();
  EXPECT_EQ(cache.extraction_failures(), 0u);
}

TEST(ShardedBallCache, EvictionScanWindowAdaptsToShardPopulation) {
  // ~10% of residents, floored at the old fixed window (small shards keep
  // PR 4/5 behavior bit-for-bit) and capped by the plan loop's stack array.
  EXPECT_EQ(ShardedBallCache::eviction_scan_window(0),
            ShardedBallCache::kMinEvictionScanWindow);
  EXPECT_EQ(ShardedBallCache::eviction_scan_window(79), 8u);
  EXPECT_EQ(ShardedBallCache::eviction_scan_window(80), 8u);
  EXPECT_EQ(ShardedBallCache::eviction_scan_window(100), 10u);
  EXPECT_EQ(ShardedBallCache::eviction_scan_window(350), 35u);
  EXPECT_EQ(ShardedBallCache::eviction_scan_window(640),
            ShardedBallCache::kMaxEvictionScanWindow);
  EXPECT_EQ(ShardedBallCache::eviction_scan_window(1'000'000),
            ShardedBallCache::kMaxEvictionScanWindow);
}

MelopprConfig engine_config(std::size_t selected) {
  MelopprConfig cfg;
  cfg.stage_lengths = {3, 3};
  cfg.k = 20;
  cfg.selection = Selection::top_count(selected);
  return cfg;
}

TEST(ShardedBallCacheEngine, CachedQueriesMatchUncached) {
  Rng rng(61);
  Graph g = graph::barabasi_albert(800, 2, 2, rng);
  Engine engine(g, engine_config(10));

  QueryResult plain = engine.query(9);

  ShardedBallCache cache(g, 64u << 20, 1);
  engine.set_shared_ball_cache(&cache);
  QueryResult cached_cold = engine.query(9);
  QueryResult cached_warm = engine.query(9);
  engine.set_shared_ball_cache(nullptr);

  // A cached ball is the same Subgraph the engine would extract: scores
  // are bit-identical.
  ASSERT_EQ(plain.top.size(), cached_warm.top.size());
  for (std::size_t i = 0; i < plain.top.size(); ++i) {
    EXPECT_EQ(plain.top[i].node, cached_warm.top[i].node);
    EXPECT_EQ(plain.top[i].score, cached_warm.top[i].score);
  }
  EXPECT_GT(cache.hit_rate(), 0.4);  // the repeat query hits everywhere
  EXPECT_EQ(cached_warm.stats.cache_misses(), 0u);
  // Warm query spends (almost) nothing on BFS.
  EXPECT_LT(cached_warm.stats.bfs_seconds(),
            cached_cold.stats.bfs_seconds() + 1e-9);
}

TEST(ShardedBallCacheEngine, CrossSeedSharingOfStage2Balls) {
  // Different seeds select overlapping next-stage nodes; the cache should
  // see real hits across a query stream.
  Rng rng(62);
  Graph g = graph::barabasi_albert(1500, 2, 2, rng);
  Engine engine(g, engine_config(20));
  ShardedBallCache cache(g, 256u << 20, 1);
  engine.set_shared_ball_cache(&cache);
  for (graph::NodeId seed : {3u, 17u, 99u, 250u, 777u, 1200u}) {
    (void)engine.query(seed);
  }
  engine.set_shared_ball_cache(nullptr);
  // Hubs are selected by many seeds — hits must occur.
  EXPECT_GT(cache.hits(), 10u);
}

}  // namespace
}  // namespace meloppr::core
