// The concurrent serving layer on top of the QueryPipeline: sharded cache
// integration (every extraction a demand fetch), work-stealing batch
// scheduling (bit-identical scores, skew behavior), and per-call batch
// accounting under concurrent callers.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/sharded_ball_cache.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "hw/farm.hpp"
#include "test_support.hpp"
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

TEST(ServingLayer, EveryExtractionIsADemandMiss) {
  // No thread extracts a ball that no task asked for: on a shared farm
  // with a shared cache, the extractor runs exactly once per demand miss.
  // A dedup join is a hit (it waits on another worker's extraction), so
  // Σ over queries and stages of cache_misses already excludes the joins.
  Rng rng(99);
  Graph g = graph::barabasi_albert(700, 2, 2, rng);
  MelopprConfig cfg = small_config();
  cfg.selection = Selection::top_count(16);
  Engine engine(g, cfg);
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 4;
  hw::FpgaFarm farm(2, acfg, hw::Quantizer(0.85, 10, 50'000'000));
  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 12; ++s) {
    seeds.push_back(s % 4 == 0 ? 9 : s * 71 % 700);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::atomic<std::size_t> extractions{0};
    ShardedBallCache cache(g, 64u << 20);
    cache.set_extractor([&extractions](const Graph& graph,
                                       graph::NodeId root, unsigned radius) {
      extractions.fetch_add(1, std::memory_order_relaxed);
      return graph::extract_ball(graph, root, radius);
    });
    engine.set_shared_ball_cache(&cache);
    PipelineConfig pcfg;
    pcfg.threads = threads;
    QueryPipeline pipeline(engine, farm, pcfg);
    QueryPipeline::BatchStats batch;
    const auto results = pipeline.query_batch(seeds, &batch);
    engine.set_shared_ball_cache(nullptr);

    std::size_t misses = 0;
    for (const QueryResult& r : results) {
      for (const StageStats& st : r.stats.stages) misses += st.cache_misses;
    }
    ASSERT_GT(misses, 0u);
    EXPECT_EQ(extractions.load(), misses);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_LE(batch.dedup_hits, batch.cache_hits);
    EXPECT_EQ(batch.prefetch_issued, 0u);
    EXPECT_EQ(batch.prefetched_balls, 0u);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const std::unique_ptr<ScoreAggregator> agg =
          make_serial_aggregator(cfg.aggregation, cfg.k, cfg.topck_c);
      // Reference through the same farm numerics (FPGA quantization
      // differs from CPU): serial engine + a fresh farm clone.
      const auto clone = farm.clone();
      expect_bit_identical(engine.query(seeds[i], *clone, *agg), results[i]);
    }
  }
}

TEST(ServingLayer, TightTinyLfuCacheKeepsScores) {
  // Admission pressure: cold balls lose their TinyLFU duels and are
  // re-extracted on their next demand fetch, which costs time only.
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
  // Tight TinyLFU cache: cold balls can lose their duels.
  ShardedBallCache cache(g, 512u << 10, 4, CacheAdmission::kTinyLFU);
  engine.set_shared_ball_cache(&cache);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);
  QueryPipeline::BatchStats batch;
  const auto results = pipeline.query_batch(seeds, &batch);
  engine.set_shared_ball_cache(nullptr);

  EXPECT_GT(batch.cache_admission_rejects, 0u);  // the pressure was real
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_bit_identical(engine.query(seeds[i]), results[i]);
  }
}

TEST(ServingLayer, SharedFarmKeepsScoresIdentical) {
  // Integration against a real shared farm: concurrent dispatches fill its
  // devices, its occupancy gauge returns to idle, and none of it may touch
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

  PipelineConfig pcfg;
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
  QueryPipeline pipeline(engine, backend, pcfg);
  QueryPipeline::BatchStats batch;
  const std::vector<QueryResult> results =
      pipeline.query_batch(seeds, &batch);

  // The three light workers drain their queries and must steal from the
  // heavy one's deque — the heavy query ends up executed by several
  // workers instead of idling them.
  EXPECT_GT(batch.stolen_tasks, 0u);
  EXPECT_GT(results[0].stats.stolen_tasks, 0u);
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

TEST(ServingLayer, ConcurrentCallersGetTheirOwnBatchStats) {
  // One batch owns the pool: two threads calling query_batch on one
  // pipeline queue behind each other, so each call's BatchStats counts its
  // own queries, tasks and cache deltas — never the other caller's.
  Rng rng(102);
  Graph g = graph::barabasi_albert(900, 2, 2, rng);
  Engine engine(g, small_config());
  constexpr std::size_t kCallers = 2;
  constexpr std::size_t kSeedsPerCall = 6;
  const std::size_t calls = meloppr::test::stress_iters(20);

  // Each caller draws its own seeds; references come from the serial
  // engine before the cache is installed.
  std::vector<std::vector<graph::NodeId>> seeds(kCallers);
  std::vector<std::vector<QueryResult>> want(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kSeedsPerCall; ++i) {
      seeds[c].push_back(
          static_cast<graph::NodeId>((c * kSeedsPerCall + i) * 53 % 900));
      want[c].push_back(engine.query(seeds[c].back()));
    }
  }

  CpuBackend backend(0.85);
  ShardedBallCache cache(g, 128u << 20);
  engine.set_shared_ball_cache(&cache);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);

  struct Call {
    QueryPipeline::BatchStats batch;
    std::vector<QueryResult> results;
  };
  std::vector<std::vector<Call>> got(kCallers, std::vector<Call>(calls));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (Call& call : got[c]) {
        call.results = pipeline.query_batch(seeds[c], &call.batch);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  engine.set_shared_ball_cache(nullptr);

  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t n = 0; n < calls; ++n) {
      const Call& call = got[c][n];
      SCOPED_TRACE("caller " + std::to_string(c) + " call " +
                   std::to_string(n));
      ASSERT_EQ(call.results.size(), kSeedsPerCall);
      std::size_t balls = 0;
      for (const QueryResult& r : call.results) balls += r.stats.total_balls();
      EXPECT_EQ(call.batch.queries, kSeedsPerCall);
      EXPECT_EQ(call.batch.executed_tasks, balls);
      // The cache-wide dedup delta is this call's joins alone, and each
      // join is one of this call's demand hits.
      EXPECT_LE(call.batch.dedup_hits, call.batch.cache_hits);
      for (std::size_t i = 0; i < kSeedsPerCall; ++i) {
        expect_bit_identical(want[c][i], call.results[i]);
      }
    }
  }
}

}  // namespace
}  // namespace meloppr::core
