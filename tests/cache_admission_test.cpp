// TinyLFU cache admission (CacheAdmission::kTinyLFU): scan resistance,
// the Zipf hit-rate property vs plain LRU, rejection accounting, and the
// served-but-not-retained contract.
//
// The cycle fixture gives every radius-r ball an identical footprint, so
// budgets can be expressed exactly in "number of balls" and the tests are
// deterministic down to individual admissions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "core/sharded_ball_cache.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace meloppr::core {
namespace {

using graph::Graph;

/// Footprint of one radius-`radius` ball on `g` (all cycle balls match).
std::size_t one_ball_bytes(const Graph& g, unsigned radius) {
  ShardedBallCache probe(g, std::size_t{1} << 20, 1);
  probe.get(0, radius);
  return probe.bytes();
}

TEST(CacheAdmission, AlwaysAdmitNeverRejects) {
  Graph g = graph::fixtures::cycle(600);
  const std::size_t ball = one_ball_bytes(g, 2);
  ShardedBallCache cache(g, 3 * ball + ball / 2, 1);  // room for 3
  ASSERT_EQ(cache.admission(), CacheAdmission::kAlways);
  for (graph::NodeId root = 0; root < 500; root += 25) cache.get(root, 2);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_EQ(cache.admission_rejects(), 0u);  // LRU admits everything
}

TEST(CacheAdmission, TinyLFUAdmitsFreelyBelowBudget) {
  // The frequency gate only engages under eviction pressure: an
  // unpressured cache retains everything, exactly like kAlways.
  Graph g = graph::fixtures::cycle(600);
  ShardedBallCache cache(g, std::size_t{1} << 20, 1,
                         CacheAdmission::kTinyLFU);
  ASSERT_EQ(cache.admission(), CacheAdmission::kTinyLFU);
  for (graph::NodeId root = 0; root < 200; root += 25) cache.get(root, 2);
  EXPECT_EQ(cache.entries(), 8u);
  EXPECT_EQ(cache.admission_rejects(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(CacheAdmission, ScanResistanceKeepsHotSetResident) {
  // One hot set, repeatedly accessed; then one pass of cold keys larger
  // than the cache. TinyLFU must keep every hot ball resident (the scan
  // keys estimate ~1 and cannot displace balls that were hit repeatedly);
  // plain LRU must have flushed the lot — the regression this test pins.
  Graph g = graph::fixtures::cycle(600);
  const std::size_t ball = one_ball_bytes(g, 2);
  const std::size_t budget = 4 * ball + ball / 2;  // room for the 4 hot balls
  const std::vector<graph::NodeId> hot{0, 150, 300, 450};

  const auto serve = [&](CacheAdmission admission) {
    ShardedBallCache cache(g, budget, 1, admission);
    for (int round = 0; round < 4; ++round) {
      for (graph::NodeId root : hot) cache.get(root, 2);
    }
    // One-pass scan: 30 distinct cold keys, in aggregate ~7x the budget.
    for (graph::NodeId root = 5; root < 305; root += 10) cache.get(root, 2);
    // Probe: how much of the hot set survived the scan?
    const ShardedBallCache::Stats before = cache.stats();
    for (graph::NodeId root : hot) cache.get(root, 2);
    const ShardedBallCache::Stats after = cache.stats();
    return std::pair{after.hits - before.hits, cache.stats()};
  };

  const auto [tiny_hits, tiny_stats] = serve(CacheAdmission::kTinyLFU);
  EXPECT_EQ(tiny_hits, hot.size());  // the entire hot set stayed resident
  EXPECT_GT(tiny_stats.admission_rejects, 0u);  // the scan was turned away
  const auto [lru_hits, lru_stats] = serve(CacheAdmission::kAlways);
  EXPECT_EQ(lru_hits, 0u);  // LRU kept the scan's tail instead
  EXPECT_EQ(lru_stats.admission_rejects, 0u);
  EXPECT_GT(lru_stats.evictions, tiny_stats.evictions);
}

TEST(CacheAdmission, RejectedBallIsStillServedCorrectly) {
  // Admission only decides retention: a rejected fetch still returns the
  // right ball, and the resident set is left exactly as it was.
  Graph g = graph::fixtures::cycle(600);
  const std::size_t ball = one_ball_bytes(g, 2);
  ShardedBallCache cache(g, 2 * ball + ball / 2, 1,
                         CacheAdmission::kTinyLFU);
  for (int round = 0; round < 3; ++round) {
    cache.get(10, 2);
    cache.get(200, 2);
  }
  const std::size_t entries_before = cache.entries();
  const std::size_t bytes_before = cache.bytes();
  const auto served = cache.get(400, 2);  // cold candidate vs hot victims
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->root_global(), 400u);
  EXPECT_EQ(served->radius(), 2u);
  EXPECT_EQ(cache.admission_rejects(), 1u);
  EXPECT_EQ(cache.entries(), entries_before);
  EXPECT_EQ(cache.bytes(), bytes_before);
}

/// Zipf(s) sampler over ranks [0, universe): classic inverse-CDF replay.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t universe, double s) {
    cdf_.reserve(universe);
    double total = 0.0;
    for (std::size_t rank = 0; rank < universe; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
      cdf_.push_back(total);
    }
  }
  [[nodiscard]] std::size_t draw(Rng& rng) const {
    const double u = rng.uniform() * cdf_.back();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

TEST(CacheAdmission, TinyLFUNeverLowersHitRateOnZipfTrace) {
  // Property (ROADMAP "Cache admission policy"): replaying the same
  // Zipf-skewed trace through both policies at the same budget, TinyLFU's
  // demand hit rate is never below plain LRU's — frequency gating can
  // only stop cold keys from displacing hot ones. Three trace replays per
  // run, seeded from --seed / MELOPPR_TEST_SEED.
  Graph g = graph::fixtures::cycle(2048);
  const std::size_t ball = one_ball_bytes(g, 2);
  const std::size_t budget = 12 * ball + ball / 2;  // far below the universe
  constexpr std::size_t kUniverse = 96;
  const std::size_t trace_len = test::stress_iters(1500);
  const ZipfSampler zipf(kUniverse, 1.1);

  for (int replay = 0; replay < 3; ++replay) {
    Rng rng(test::test_seed() + static_cast<std::uint64_t>(replay) * 7919);
    std::vector<graph::NodeId> trace;
    trace.reserve(trace_len);
    for (std::size_t i = 0; i < trace_len; ++i) {
      // Spread ranks over the cycle so neighboring ranks do not share
      // ball nodes (each key is an independent cache entry).
      trace.push_back(
          static_cast<graph::NodeId>(zipf.draw(rng) * 21 % 2048));
    }
    const auto replay_through = [&](CacheAdmission admission) {
      ShardedBallCache cache(g, budget, 2, admission);
      for (graph::NodeId root : trace) cache.get(root, 2);
      return cache.stats().hit_rate();
    };
    const double lru = replay_through(CacheAdmission::kAlways);
    const double tiny = replay_through(CacheAdmission::kTinyLFU);
    // Strict dominance holds empirically (hundreds of seeds probed), but
    // TinyLFU's admission latency can in principle forfeit an access or
    // two on a shifting working set, so allow exactly that: two trace
    // events of slack — far below any real regression.
    const double slack = 2.0 / static_cast<double>(trace.size());
    EXPECT_GE(tiny + slack, lru)
        << "replay " << replay << " (seed base " << test::test_seed() << ")";
  }
}

TEST(CacheAdmission, ConcurrentTinyLFUStressUnderPressure) {
  // The sketch and the admission duel both run under the shard lock the
  // fetch already holds; this hammers them from 8 threads on a cache in
  // constant eviction pressure while another thread snapshots stats —
  // the TSan CI job runs this suite, so any racy shortcut fails loudly.
  Rng seed_rng(test::test_seed());
  Graph g = graph::barabasi_albert(2000, 2, 3, seed_rng);
  ShardedBallCache cache(g, 256u << 10, 4, CacheAdmission::kTinyLFU);
  constexpr int kThreads = 8;
  const int iters =
      static_cast<int>(test::stress_iters(200));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng local(test::test_seed() + 1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < iters; ++i) {
        // 32 hot keys plus a cold tail: both admission outcomes exercised.
        const bool hot = local.chance(0.6);
        const auto root = static_cast<graph::NodeId>(
            hot ? local.below(32) * 61 % 2000 : local.below(2000));
        const auto ball = cache.get(root, 2);
        ASSERT_EQ(ball->root_global(), root);
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load()) {
      const ShardedBallCache::Stats s = cache.stats();
      ASSERT_GE(s.hit_rate(), 0.0);
      ASSERT_LE(s.hit_rate(), 1.0);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (auto& t : threads) t.join();
  done.store(true);
  observer.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::size_t>(kThreads) *
                static_cast<std::size_t>(iters));
  EXPECT_LE(cache.bytes(), cache.byte_budget());
}

TEST(CacheAdmission, ClearResetsRejectCountsAndSketchKeepsWorking) {
  Graph g = graph::fixtures::cycle(600);
  const std::size_t ball = one_ball_bytes(g, 2);
  ShardedBallCache cache(g, 2 * ball + ball / 2, 1,
                         CacheAdmission::kTinyLFU);
  for (int round = 0; round < 3; ++round) {
    cache.get(0, 2);
    cache.get(100, 2);
  }
  cache.get(300, 2);  // rejected: cold vs hot residents
  EXPECT_EQ(cache.admission_rejects(), 1u);
  cache.clear();
  EXPECT_EQ(cache.admission_rejects(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  // Post-clear the cache still admits and serves normally.
  cache.get(0, 2);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(CacheAdmission, ClearResetsSketchSoTheNextWorkingSetCanWin) {
  // The regression: clear() used to leave the per-shard sketches
  // populated, so popularity from before the reset kept vetoing admission
  // of whatever the cache was reset FOR. After a clear, a new hot set
  // accessed a few times must be able to displace the old one.
  Graph g = graph::fixtures::cycle(600);
  const std::size_t ball = one_ball_bytes(g, 2);
  ShardedBallCache cache(g, 4 * ball + ball / 2, 1,
                         CacheAdmission::kTinyLFU);
  const std::vector<graph::NodeId> old_hot{0, 150, 300, 450};
  for (int round = 0; round < 6; ++round) {
    for (graph::NodeId root : old_hot) cache.get(root, 2);
  }

  cache.clear();
  // The old set drifts back in with a single access each (an empty cache
  // admits freely)…
  for (graph::NodeId root : old_hot) cache.get(root, 2);
  // …and the new hot set, hit repeatedly, must win its duels: its
  // post-clear estimates (up to 6) beat the old set's post-clear single
  // access. With the stale sketch the old estimates (~7) vetoed every one
  // of these admissions and the probe below missed across the board.
  const std::vector<graph::NodeId> new_hot{75, 225, 375, 525};
  for (int round = 0; round < 6; ++round) {
    for (graph::NodeId root : new_hot) cache.get(root, 2);
  }
  const ShardedBallCache::Stats before = cache.stats();
  for (graph::NodeId root : new_hot) cache.get(root, 2);
  const ShardedBallCache::Stats after = cache.stats();
  EXPECT_EQ(after.hits - before.hits, new_hot.size());
}

TEST(CacheAdmission, SketchInformedEvictionProtectsMidRecencyHotBall) {
  // Eviction order is frequency-informed under kTinyLFU: the coldest-by-
  // sketch entry within the LRU-tail scan window goes first, so a hot
  // ball that merely drifted to the cold end outlives one-shot entries
  // that are more recent. Under the old pure-LRU victim order the hot
  // ball H was the mandatory victim, so the candidate below stayed
  // rejected until it out-estimated H itself.
  Graph g = graph::fixtures::cycle(600);
  const std::size_t ball = one_ball_bytes(g, 2);
  ShardedBallCache cache(g, 4 * ball + ball / 2, 1,
                         CacheAdmission::kTinyLFU);
  const graph::NodeId hot = 0;
  for (int i = 0; i < 5; ++i) cache.get(hot, 2);  // estimate 5, resident
  // Three one-shot colds fill the budget; `hot` is now least recent.
  for (graph::NodeId cold : {100u, 200u, 300u}) cache.get(cold, 2);
  ASSERT_EQ(cache.entries(), 4u);

  // A new candidate with estimate 2: hotter than the one-shot colds,
  // colder than `hot`. Its second fetch must be admitted by evicting a
  // cold — not `hot`, and not rejected.
  cache.get(400, 2);  // estimate 1: ties the colds, rejected
  EXPECT_EQ(cache.admission_rejects(), 1u);
  cache.get(400, 2);  // estimate 2: beats the cold victim, admitted
  EXPECT_EQ(cache.evictions(), 1u);

  const ShardedBallCache::Stats before = cache.stats();
  cache.get(hot, 2);  // mid-recency hot ball survived the eviction
  cache.get(400, 2);  // and the admitted candidate is resident
  const ShardedBallCache::Stats after = cache.stats();
  EXPECT_EQ(after.hits - before.hits, 2u);
}

}  // namespace
}  // namespace meloppr::core

int main(int argc, char** argv) {
  return meloppr::test::run_all_tests(argc, argv);
}
