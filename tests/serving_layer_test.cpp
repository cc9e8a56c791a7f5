// The concurrent serving layer on top of the QueryPipeline: sharded cache
// integration, stage-lookahead prefetch equivalence, work-stealing batch
// scheduling (bit-identical scores, skew behavior), and aggregator pooling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/sharded_ball_cache.hpp"
#include "graph/generators.hpp"
#include "hw/farm.hpp"
#include "util/rng.hpp"

namespace meloppr::core {
namespace {

using graph::Graph;

MelopprConfig small_config() {
  MelopprConfig cfg;
  cfg.stage_lengths = {3, 3};
  cfg.k = 20;
  cfg.selection = Selection::top_count(12);
  return cfg;
}

void expect_bit_identical(const QueryResult& want, const QueryResult& got) {
  ASSERT_EQ(want.top.size(), got.top.size());
  for (std::size_t i = 0; i < want.top.size(); ++i) {
    EXPECT_EQ(want.top[i].node, got.top[i].node) << "rank " << i;
    // EXPECT_EQ on doubles: bit-identical is the contract, not "near".
    EXPECT_EQ(want.top[i].score, got.top[i].score) << "rank " << i;
  }
}

TEST(ServingLayer, SharedCacheAcceptedInParallelMode) {
  Rng rng(91);
  Graph g = graph::barabasi_albert(500, 2, 2, rng);
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  ShardedBallCache cache(g, 64u << 20);
  engine.set_shared_ball_cache(&cache);

  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);
  EXPECT_NO_THROW(pipeline.query(5));          // no single-thread prohibition
  EXPECT_GT(cache.hits() + cache.misses(), 0u);  // extractions went through
  engine.set_shared_ball_cache(nullptr);
}

TEST(ServingLayer, StealingBatchBitIdenticalToSerialEngine) {
  Rng rng(92);
  Graph g = graph::barabasi_albert(1200, 2, 3, rng);
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  ShardedBallCache cache(g, 128u << 20);
  engine.set_shared_ball_cache(&cache);

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 24; ++s) seeds.push_back(s * 49 % 1200);

  PipelineConfig pcfg;
  pcfg.threads = 4;
  pcfg.prefetch = true;
  QueryPipeline pipeline(engine, backend, pcfg);
  const std::vector<QueryResult> results = pipeline.query_batch(seeds);
  engine.set_shared_ball_cache(nullptr);

  ASSERT_EQ(results.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult want = engine.query(seeds[i]);
    expect_bit_identical(want, results[i]);
    // Stage accounting survives out-of-order execution: the DFS-order
    // reduction must reproduce the serial ball counts exactly.
    EXPECT_EQ(results[i].stats.total_balls(), want.stats.total_balls());
  }
}

TEST(ServingLayer, PrefetchOnOffScoresIdentical) {
  Rng rng(93);
  Graph g = graph::barabasi_albert(900, 2, 2, rng);
  Engine engine(g, small_config());
  std::vector<graph::NodeId> seeds{7, 7, 123, 400, 7, 881, 123};

  const auto run = [&](bool prefetch) {
    CpuBackend backend(0.85);
    ShardedBallCache cache(g, 128u << 20);
    engine.set_shared_ball_cache(&cache);
    PipelineConfig pcfg;
    pcfg.threads = 4;
    pcfg.prefetch = prefetch;
    // Un-throttled so the CPU backend actually exercises lookahead (the
    // equivalence under test is prefetch-on vs prefetch-off numerics).
    pcfg.prefetch_throttle = false;
    QueryPipeline pipeline(engine, backend, pcfg);
    auto results = pipeline.query_batch(seeds);
    engine.set_shared_ball_cache(nullptr);
    return results;
  };

  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    expect_bit_identical(off[i], on[i]);
  }
}

TEST(ServingLayer, QueryPrefetchesSiblingLookahead) {
  Rng rng(94);
  Graph g = graph::barabasi_albert(900, 2, 2, rng);
  MelopprConfig cfg = small_config();
  cfg.selection = Selection::top_count(24);
  Engine engine(g, cfg);
  CpuBackend backend(0.85);
  ShardedBallCache cache(g, 128u << 20);
  engine.set_shared_ball_cache(&cache);

  PipelineConfig pcfg;
  pcfg.threads = 2;
  pcfg.prefetch = true;
  pcfg.prefetch_threads = 2;
  // CPU backend: the backend-aware throttle would keep lookahead off; this
  // test measures the lookahead mechanism itself, so force it on.
  pcfg.prefetch_throttle = false;
  QueryPipeline pipeline(engine, backend, pcfg);
  // Lazy: prefetch threads spawn on the first query that sees the cache.
  EXPECT_EQ(pipeline.prefetcher(), nullptr);

  QueryPipeline::BatchStats batch;
  const graph::NodeId seed = 11;
  const QueryResult with_prefetch =
      pipeline.query_batch(std::span(&seed, 1), &batch).front();
  ASSERT_NE(pipeline.prefetcher(), nullptr);
  // Stage lookahead announces every stage-2 child as soon as its parent
  // task finished, except children[0]: the worker dives into it next.
  // Stage lookahead is the prefetcher's only client, so the count is exact.
  ASSERT_GT(with_prefetch.stats.stages[1].balls, 1u);
  EXPECT_EQ(batch.prefetch_issued, with_prefetch.stats.stages[1].balls - 1);
  // Scores are identical to a prefetch-free pipeline (prefetch never
  // changes the reduction order).
  PipelineConfig no_pf = pcfg;
  no_pf.prefetch = false;
  ShardedBallCache cold(g, 128u << 20);
  engine.set_shared_ball_cache(&cold);
  QueryPipeline plain(engine, backend, no_pf);
  expect_bit_identical(plain.query(11), with_prefetch);
  engine.set_shared_ball_cache(nullptr);
}

TEST(ServingLayer, PrefetchThrottleKeepsCpuBackendUnoversubscribed) {
  // ROADMAP "Prefetch throttling": on a CPU-only backend the workers
  // compute on the host's own cores, so lookahead threads would only
  // oversubscribe. With the default backend-aware throttle the pipeline
  // must never spawn them — the regression this test pins down.
  Rng rng(98);
  Graph g = graph::barabasi_albert(700, 2, 2, rng);
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  ShardedBallCache cache(g, 64u << 20);
  engine.set_shared_ball_cache(&cache);

  PipelineConfig pcfg;  // prefetch on, prefetch_throttle on (defaults)
  pcfg.threads = 4;
  ASSERT_TRUE(pcfg.prefetch);
  ASSERT_TRUE(pcfg.prefetch_throttle);
  QueryPipeline pipeline(engine, backend, pcfg);

  const QueryResult single = pipeline.query(9);
  QueryPipeline::BatchStats batch;
  const std::vector<graph::NodeId> seeds{9, 42, 9, 300};
  const auto results = pipeline.query_batch(seeds, &batch);
  engine.set_shared_ball_cache(nullptr);

  // No extraction threads were ever spawned, and no lookahead was issued:
  // every core stays with the demand path.
  EXPECT_EQ(pipeline.prefetcher(), nullptr);
  EXPECT_EQ(batch.prefetch_issued, 0u);
  EXPECT_FALSE(single.top.empty());
  // Scores are unaffected — the throttle changes scheduling only.
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_bit_identical(engine.query(seeds[i]), results[i]);
  }
}

TEST(ServingLayer, PrefetchThrottleAdmitsOffloadingBackend) {
  // The same default configuration against a device farm must prefetch:
  // dispatchers block on busy devices, which is exactly the window the
  // lookahead threads fill with host BFS.
  Rng rng(99);
  Graph g = graph::barabasi_albert(700, 2, 2, rng);
  MelopprConfig cfg = small_config();
  cfg.selection = Selection::top_count(16);
  Engine engine(g, cfg);
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 4;
  hw::FpgaFarm farm(2, acfg, hw::Quantizer(0.85, 10, 50'000'000));
  ASSERT_TRUE(farm.offloads_compute());
  ASSERT_FALSE(CpuBackend(0.85).offloads_compute());
  ShardedBallCache cache(g, 64u << 20);
  engine.set_shared_ball_cache(&cache);

  PipelineConfig pcfg;  // defaults again — only the backend differs
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, farm, pcfg);
  QueryPipeline::BatchStats batch;
  const graph::NodeId seed = 9;
  const QueryResult r =
      pipeline.query_batch(std::span(&seed, 1), &batch).front();
  engine.set_shared_ball_cache(nullptr);

  ASSERT_NE(pipeline.prefetcher(), nullptr);
  // Stage lookahead covers every stage-2 sibling the worker does not dive
  // into next.
  ASSERT_GT(r.stats.stages[1].balls, 1u);
  EXPECT_EQ(batch.prefetch_issued, r.stats.stages[1].balls - 1);
}

TEST(ServingLayer, BatchPrefetchCountIsExactlyStageLookahead) {
  // Stage lookahead is the prefetcher's only client: across a multi-seed
  // batch, every prefetch request is a stage-1 sibling the worker did not
  // dive into, so prefetch_issued == Σ_q (stages[1].balls − 1) over the
  // queries that selected any stage-1 ball. Anything issued beyond that
  // (speculation about upcoming seeds, say) breaks the equality.
  Rng rng(101);
  Graph g = graph::barabasi_albert(900, 2, 2, rng);
  Engine engine(g, small_config());
  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 12; ++s) seeds.push_back(s * 71 % 900);

  CpuBackend backend(0.85);
  ShardedBallCache cache(g, 128u << 20);
  engine.set_shared_ball_cache(&cache);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  pcfg.prefetch = true;
  pcfg.prefetch_throttle = false;  // CPU backend; exercise the mechanism
  QueryPipeline pipeline(engine, backend, pcfg);
  QueryPipeline::BatchStats batch;
  const auto results = pipeline.query_batch(seeds, &batch);
  engine.set_shared_ball_cache(nullptr);

  std::size_t siblings = 0;
  for (const QueryResult& r : results) {
    const std::size_t balls = r.stats.stages[1].balls;
    if (balls > 0) siblings += balls - 1;
  }
  ASSERT_GT(siblings, 0u);
  EXPECT_EQ(batch.prefetch_issued, siblings);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_bit_identical(engine.query(seeds[i]), results[i]);
  }
}

TEST(ServingLayer, TightTinyLfuLookaheadKeepsScores) {
  // Lookahead under admission pressure: prefetched balls may lose their
  // TinyLFU duels and be re-extracted on demand, which costs time only.
  // Scores are bit-identical throughout.
  Rng rng(104);
  Graph g = graph::barabasi_albert(1000, 2, 2, rng);
  Engine engine(g, small_config());
  // Mixed stream: a popular head (stays hot in the sketch) + a cold tail.
  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 24; ++s) {
    seeds.push_back(s % 3 == 0 ? 7 : (s * 97 % 1000));
  }

  CpuBackend backend(0.85);
  // Tight TinyLFU cache: cold prefetched balls can lose their duels.
  ShardedBallCache cache(g, 512u << 10, 4, CacheAdmission::kTinyLFU);
  engine.set_shared_ball_cache(&cache);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  pcfg.prefetch = true;
  pcfg.prefetch_throttle = false;
  QueryPipeline pipeline(engine, backend, pcfg);
  QueryPipeline::BatchStats batch;
  const auto results = pipeline.query_batch(seeds, &batch);
  engine.set_shared_ball_cache(nullptr);

  EXPECT_GT(batch.prefetch_issued, 0u);  // lookahead actually ran
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_bit_identical(engine.query(seeds[i]), results[i]);
  }
}

TEST(ServingLayer, PrefetcherPauseGateHoldsAndReleasesWork) {
  // The farm-wait meter's mechanism in isolation: while the pause gate is
  // closed, queued requests are not touched; opening it drains them.
  Rng rng(102);
  Graph g = graph::barabasi_albert(500, 2, 2, rng);
  ShardedBallCache cache(g, 64u << 20, 4);
  std::atomic<bool> paused{true};
  BallPrefetcher prefetcher(2, [&paused] { return paused.load(); });
  prefetcher.enqueue(cache, 3, 2);
  prefetcher.enqueue(cache, 99, 2);
  EXPECT_EQ(prefetcher.issued(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(prefetcher.completed(), 0u);  // gate closed: nothing ran
  EXPECT_EQ(cache.entries(), 0u);
  paused.store(false);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (prefetcher.completed() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(prefetcher.completed(), 2u);  // gate open: queue drained
  EXPECT_EQ(prefetcher.balls_fetched(), 2u);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(ServingLayer, FarmWaitMeterKeepsScoresIdentical) {
  // Integration: the farm-wait meter against a real farm — lookahead
  // pauses and resumes with farm occupancy, and none of it may touch
  // numerics.
  Rng rng(103);
  Graph g = graph::barabasi_albert(700, 2, 2, rng);
  MelopprConfig cfg = small_config();
  cfg.selection = Selection::top_count(16);
  Engine engine(g, cfg);
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 4;
  hw::FpgaFarm farm(2, acfg, hw::Quantizer(0.85, 10, 50'000'000));
  EXPECT_EQ(farm.active_dispatches(), 0u);  // idle farm reports zero
  ShardedBallCache cache(g, 64u << 20);
  engine.set_shared_ball_cache(&cache);

  PipelineConfig pcfg;  // prefetch and throttle default-on
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, farm, pcfg);
  const std::vector<graph::NodeId> seeds{9, 42, 9, 300};
  const auto results = pipeline.query_batch(seeds);
  engine.set_shared_ball_cache(nullptr);
  EXPECT_EQ(farm.active_dispatches(), 0u);  // gauge returns to idle

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::unique_ptr<ScoreAggregator> agg =
        make_serial_aggregator(cfg.aggregation, cfg.k, cfg.topck_c);
    // Reference through the same farm numerics (FPGA quantization differs
    // from CPU): serial engine + a fresh farm clone.
    const auto clone = farm.clone();
    expect_bit_identical(engine.query(seeds[i], *clone, *agg), results[i]);
  }
}

/// A shared offloading backend whose devices never report a dispatch in
/// flight: diffusion runs on a CpuBackend, but the pipeline sees a farm
/// that is always idle — the state in which the farm-wait meter holds
/// every lookahead request.
class IdleFarmBackend final : public DiffusionBackend {
 public:
  explicit IdleFarmBackend(double alpha) : cpu_(alpha) {}

  BackendResult run(const graph::Subgraph& ball, double mass,
                    unsigned length) override {
    return cpu_.run(ball, mass, length);
  }
  [[nodiscard]] std::size_t working_bytes(
      std::size_t ball_nodes, std::size_t ball_edges) const override {
    return cpu_.working_bytes(ball_nodes, ball_edges);
  }
  [[nodiscard]] std::string name() const override { return "idle-farm"; }
  [[nodiscard]] std::unique_ptr<DiffusionBackend> clone() const override {
    return std::make_unique<IdleFarmBackend>(*this);
  }
  [[nodiscard]] bool thread_safe() const override { return true; }
  [[nodiscard]] bool offloads_compute() const override { return true; }
  [[nodiscard]] std::size_t active_dispatches() const override { return 0; }

 private:
  CpuBackend cpu_;
};

TEST(ServingLayer, IdleSharedFarmHoldsAllLookahead) {
  // The meter's wiring: against a shared offloading backend the pipeline
  // must install the pause gate, so while the farm reports zero active
  // dispatches lookahead is issued but never runs — and the held requests
  // are dropped at batch end without touching scores.
  Rng rng(105);
  Graph g = graph::barabasi_albert(700, 2, 2, rng);
  Engine engine(g, small_config());
  IdleFarmBackend backend(0.85);
  ShardedBallCache cache(g, 64u << 20);
  engine.set_shared_ball_cache(&cache);

  PipelineConfig pcfg;  // defaults: the throttle admits offloading backends
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);
  const std::vector<graph::NodeId> seeds{9, 42, 300, 511};
  QueryPipeline::BatchStats batch;
  const auto results = pipeline.query_batch(seeds, &batch);
  engine.set_shared_ball_cache(nullptr);

  ASSERT_NE(pipeline.prefetcher(), nullptr);
  EXPECT_GT(batch.prefetch_issued, 0u);   // lookahead was requested...
  EXPECT_EQ(batch.prefetched_balls, 0u);  // ...but the meter held all of it
  EXPECT_EQ(pipeline.prefetcher()->completed(), 0u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_bit_identical(engine.query(seeds[i]), results[i]);
  }
}

TEST(ServingLayer, WorkStealingSpreadsHeavyQuery) {
  Rng rng(95);
  Graph g = graph::barabasi_albert(2500, 2, 3, rng);
  MelopprConfig cfg = small_config();
  // Ratio selection: the hub's big ball yields many stage-2 tasks, a
  // periphery ball few — the skew the stealing scheduler exists for.
  cfg.selection = Selection::top_ratio(0.08);
  Engine engine(g, cfg);

  // Heaviest seed: the max-degree hub.
  graph::NodeId hub = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  ASSERT_GT(engine.query(hub).stats.stages[1].balls, 16u);

  // Light seeds: low-degree periphery nodes.
  std::vector<graph::NodeId> seeds{hub};
  for (graph::NodeId v = 0; v < g.num_nodes() && seeds.size() < 4; ++v) {
    if (g.degree(v) <= 2) seeds.push_back(v);
  }
  ASSERT_EQ(seeds.size(), 4u);

  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  pcfg.prefetch = false;
  QueryPipeline pipeline(engine, backend, pcfg);
  QueryPipeline::BatchStats batch;
  const std::vector<QueryResult> results =
      pipeline.query_batch(seeds, &batch);

  // The three light workers drain their queries and must steal from the
  // heavy one's deque — the heavy query ends up executed by several
  // workers instead of idling them.
  EXPECT_GT(batch.stolen_tasks, 0u);
  EXPECT_GT(results[0].stats.stolen_tasks, 0u);
  EXPECT_GE(results[0].stats.threads_used, 2u);
  // Scores unaffected by who ran what.
  expect_bit_identical(engine.query(hub), results[0]);
}

TEST(ServingLayer, BatchStatsAreCoherent) {
  Rng rng(96);
  Graph g = graph::barabasi_albert(800, 2, 2, rng);
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  ShardedBallCache cache(g, 64u << 20);
  engine.set_shared_ball_cache(&cache);

  // Popular-seed skew: repeats must show up as cache hits.
  std::vector<graph::NodeId> seeds;
  for (int rep = 0; rep < 4; ++rep) {
    for (graph::NodeId s : {5u, 77u, 300u}) seeds.push_back(s);
  }

  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);
  QueryPipeline::BatchStats batch;
  const auto results = pipeline.query_batch(seeds, &batch);
  engine.set_shared_ball_cache(nullptr);

  EXPECT_EQ(batch.queries, seeds.size());
  EXPECT_GT(batch.wall_seconds, 0.0);
  std::size_t balls = 0;
  for (const auto& r : results) balls += r.stats.total_balls();
  EXPECT_EQ(batch.executed_tasks, balls);
  // Every extraction went through the cache: hits + misses == balls.
  EXPECT_EQ(batch.cache_hits + batch.cache_misses, balls);
  EXPECT_GT(batch.cache_hits, 0u);  // repeated seeds share balls
  EXPECT_GT(batch.cache_hit_rate(), 0.0);
  // Per-query stats expose the same counters.
  std::size_t per_query_hits = 0;
  for (const auto& r : results) per_query_hits += r.stats.cache_hits();
  EXPECT_EQ(per_query_hits, batch.cache_hits);

  // A long-lived server reuses one BatchStats across batches: each call
  // must overwrite, never accumulate.
  engine.set_shared_ball_cache(&cache);
  pipeline.query_batch(seeds, &batch);
  engine.set_shared_ball_cache(nullptr);
  EXPECT_EQ(batch.queries, seeds.size());
  EXPECT_EQ(batch.executed_tasks, balls);
}

TEST(AggregatorPool, LeasesPreferSlotAndReuseArenas) {
  AggregatorPool pool(3);
  EXPECT_THROW(AggregatorPool(0), std::invalid_argument);
  {
    AggregatorPool::Lease lease = pool.acquire(1);
    lease->add(7, 0.5);
    EXPECT_EQ(lease->entries(), 1u);
  }
  EXPECT_EQ(pool.acquires(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  {
    // Same preferred slot: the arena comes back cleared (warm buckets,
    // empty content).
    AggregatorPool::Lease lease = pool.acquire(1);
    EXPECT_EQ(lease->entries(), 0u);
  }
  EXPECT_EQ(pool.reuses(), 1u);
  {
    // Distinct concurrent leases never alias.
    AggregatorPool::Lease a = pool.acquire(0);
    AggregatorPool::Lease b = pool.acquire(0);  // slot 0 busy → falls back
    a->add(1, 1.0);
    EXPECT_EQ(b->entries(), 0u);
    EXPECT_NE(&*a, &*b);
  }
}

TEST(AggregatorPool, ConcurrentAcquireReleaseIsSafe) {
  AggregatorPool pool(4);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        AggregatorPool::Lease lease =
            pool.acquire(static_cast<std::size_t>(t));
        lease->add(static_cast<graph::NodeId>(i), 1.0);
        ASSERT_GE(lease->entries(), 1u);  // exclusive: only our own adds
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.acquires(), static_cast<std::size_t>(kThreads * kIters));
  EXPECT_GE(pool.reuses(), pool.acquires() - 4);
}

}  // namespace
}  // namespace meloppr::core
