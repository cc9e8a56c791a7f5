// BallPrefetcher lifecycle races, built for the ThreadSanitizer CI job:
// quiesce() racing enqueue(), the pause-gate poll loop racing both, and
// the in-flight drain invariant (no lost wakeups — quiesce() always
// returns, and afterwards no prefetch thread touches the cache).
#include "core/prefetcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "core/sharded_ball_cache.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace meloppr::core {
namespace {

using graph::Graph;

TEST(PrefetcherStress, QuiesceRacesEnqueueWithoutLostWakeups) {
  // A producer hammers enqueue() while another thread calls quiesce() in
  // a loop. Every quiesce() must return (in_flight_ drains to 0 — a lost
  // idle_ wakeup would hang this test), and the prefetcher must stay
  // usable afterwards.
  Graph g = graph::fixtures::cycle(600);
  ShardedBallCache cache(g, 1 << 20, 4);
  BallPrefetcher prefetcher(3);
  const std::size_t iters = meloppr::test::stress_iters(3000);
  std::atomic<bool> producing{true};

  std::thread producer([&] {
    Rng rng(meloppr::test::test_seed());
    for (std::size_t i = 0; i < iters; ++i) {
      prefetcher.enqueue(cache, static_cast<graph::NodeId>(rng.below(600)),
                         2);
      if (i % 64 == 0) std::this_thread::yield();
    }
    producing.store(false, std::memory_order_release);
  });
  std::thread quiescer([&] {
    while (producing.load(std::memory_order_acquire)) {
      prefetcher.quiesce();
      std::this_thread::yield();
    }
  });
  producer.join();
  quiescer.join();

  prefetcher.quiesce();
  EXPECT_LE(prefetcher.completed(), prefetcher.issued());
  // Still functional: a post-quiesce request is processed to completion.
  const std::size_t completed_before = prefetcher.completed();
  prefetcher.enqueue(cache, 0, 2);
  prefetcher.quiesce();
  // The request either completed or was dropped by quiesce() before a
  // worker picked it up — both legal; what may not happen is a hang or a
  // worker touching the cache after quiesce() returned.
  EXPECT_GE(prefetcher.completed(), completed_before);
}

TEST(PrefetcherStress, PauseGateRacesQuiesceAndEnqueue) {
  // The farm-wait meter's poll loop: while the gate is closed, workers
  // sleep-and-recheck without popping requests. Flipping the gate from
  // another thread while enqueue() and quiesce() hammer the queue must
  // neither deadlock (pause holds no in-flight work, so quiesce() cannot
  // wait on a paused worker) nor lose the drain signal.
  Graph g = graph::fixtures::cycle(600);
  ShardedBallCache cache(g, 1 << 20, 4);
  std::atomic<bool> paused{true};
  BallPrefetcher prefetcher(
      2, [&paused] { return paused.load(std::memory_order_relaxed); });
  const std::size_t iters = meloppr::test::stress_iters(1500);
  std::atomic<bool> producing{true};

  std::thread toggler([&] {
    while (producing.load(std::memory_order_acquire)) {
      paused.store(!paused.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      std::this_thread::yield();
    }
    paused.store(false, std::memory_order_relaxed);  // let the tail drain
  });
  std::thread producer([&] {
    Rng rng(meloppr::test::test_seed() + 1);
    for (std::size_t i = 0; i < iters; ++i) {
      prefetcher.enqueue(cache, static_cast<graph::NodeId>(rng.below(600)),
                         2);
      if (i % 32 == 0) std::this_thread::yield();
    }
    producing.store(false, std::memory_order_release);
  });
  std::thread quiescer([&] {
    while (producing.load(std::memory_order_acquire)) {
      prefetcher.quiesce();
      std::this_thread::yield();
    }
  });
  producer.join();
  quiescer.join();
  toggler.join();

  prefetcher.quiesce();  // must return: paused workers hold no in-flight
  EXPECT_LE(prefetcher.completed(), prefetcher.issued());
  EXPECT_LE(prefetcher.balls_fetched(), prefetcher.completed());
}

TEST(PrefetcherStress, StageLookaheadDrainsBeforeSpeculativeRoots) {
  // Two-class queue regression: a saturated root-prefetch window enqueued
  // FIRST must not delay a stage-lookahead request enqueued LAST. The
  // pause gate releases work one request at a time (the worker re-pauses
  // the moment completed() catches up with `allowed`), so the order in
  // which requests complete is observable deterministically.
  Graph g = graph::fixtures::cycle(600);
  ShardedBallCache cache(g, 1 << 20, 4);
  std::atomic<std::size_t> allowed{0};
  BallPrefetcher prefetcher(1, [&] {
    return prefetcher.completed() >= allowed.load(std::memory_order_relaxed);
  });

  // Saturate the root window while the worker is gated.
  const std::size_t roots = 8;
  for (std::size_t i = 0; i < roots; ++i) {
    prefetcher.enqueue(cache, static_cast<graph::NodeId>(i * 10), 2,
                       ShardedBallCache::FetchKind::kPinnedRootPrefetch,
                       /*claim_priority=*/i);
  }
  // The in-flight query's stage lookahead arrives after all of them.
  const graph::NodeId stage_root = 300;
  prefetcher.enqueue(cache, stage_root, 2);

  // Release exactly one request: it must be the stage lookahead.
  allowed.store(1, std::memory_order_relaxed);
  while (prefetcher.completed() < 1) std::this_thread::yield();
  EXPECT_TRUE(cache.fetch(stage_root, 2).hit)
      << "stage lookahead was not served first";
  EXPECT_EQ(cache.pinned_entries(), 0u)
      << "a speculative root jumped the stage queue";

  // Release the rest; the roots now drain and pin as usual.
  allowed.store(roots + 1, std::memory_order_relaxed);
  while (prefetcher.completed() < roots + 1) std::this_thread::yield();
  prefetcher.quiesce();
  EXPECT_GT(cache.pinned_entries(), 0u);
}

TEST(PrefetcherStress, WorkerSurvivesExtractorFaults) {
  // A prefetch is advisory: an extraction that throws must not kill the
  // worker thread. With a single worker, one uncaught exception would
  // orphan the queue and hang the completion spins below.
  Graph g = graph::fixtures::cycle(600);
  ShardedBallCache cache(g, 1 << 20, 4);
  meloppr::FaultPlan plan = meloppr::FaultPlan::parse("extractor=1");
  cache.set_extractor(meloppr::make_flaky_extractor(plan));
  BallPrefetcher prefetcher(1);

  const std::size_t faults = meloppr::test::stress_iters(40);
  for (std::size_t i = 0; i < faults; ++i) {
    const std::size_t before = prefetcher.completed();
    prefetcher.enqueue(cache, static_cast<graph::NodeId>(i % 600), 2);
    while (prefetcher.completed() == before) std::this_thread::yield();
  }
  EXPECT_EQ(prefetcher.failures(), faults);  // counted, not fatal
  EXPECT_EQ(prefetcher.balls_fetched(), 0u);
  EXPECT_EQ(cache.extraction_failures(), faults);

  // The same worker still serves once the extractor heals. set_extractor
  // must not race a fetch: quiesce() orders the worker's last fetch (its
  // in-flight release under the prefetcher lock) before the swap.
  prefetcher.quiesce();
  cache.set_extractor({});
  // quiesce() drops pending requests, so wait for completion before
  // quiescing.
  const std::size_t before = prefetcher.completed();
  prefetcher.enqueue(cache, 5, 2);
  while (prefetcher.completed() == before) std::this_thread::yield();
  prefetcher.quiesce();
  EXPECT_TRUE(cache.fetch(5, 2).hit) << "worker died on the faults above";
  EXPECT_EQ(prefetcher.failures(), faults);
}

}  // namespace
}  // namespace meloppr::core

int main(int argc, char** argv) {
  return meloppr::test::run_all_tests(argc, argv);
}
