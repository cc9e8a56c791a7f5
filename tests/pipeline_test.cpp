// QueryPipeline behaviors beyond score equivalence (covered by
// scheduler_equivalence_test): backend sharing vs cloning, farm
// integration, merged memory metering, and error propagation.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

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

hw::FpgaFarm make_farm(std::size_t devices) {
  hw::AcceleratorConfig cfg;
  cfg.parallelism = 4;
  return hw::FpgaFarm(devices, cfg, hw::Quantizer(0.85, 10, 50'000'000));
}

TEST(QueryPipeline, ResolvedThreadsDefaultsPositive) {
  PipelineConfig cfg;
  EXPECT_GE(cfg.resolved_threads(), 1u);
  cfg.threads = 3;
  EXPECT_EQ(cfg.resolved_threads(), 3u);
}

TEST(QueryPipeline, SharesThreadSafeBackendsClonesOthers) {
  // The farm advertises internal dispatch; the single FPGA backend does not
  // (its cycle counters are mutable state).
  EXPECT_TRUE(CpuBackend(0.85).thread_safe());
  EXPECT_TRUE(make_farm(2).thread_safe());
  hw::AcceleratorConfig acfg;
  hw::FpgaBackend single{hw::Accelerator(acfg, hw::Quantizer(0.85, 10, 1000))};
  EXPECT_FALSE(single.thread_safe());

  // Clones share no counters with the original.
  auto clone = single.clone();
  EXPECT_EQ(clone->name(), single.name());
}

TEST(QueryPipeline, FarmReceivesEveryDiffusionOnce) {
  Rng rng(82);
  Graph g = graph::barabasi_albert(600, 2, 2, rng);
  Engine engine(g, small_config());
  hw::FpgaFarm farm = make_farm(4);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, farm, pcfg);

  const QueryResult r = pipeline.query(9);
  EXPECT_FALSE(r.top.empty());
  // Every ball of the query was dispatched to the shared farm exactly once.
  EXPECT_EQ(farm.runs(), r.stats.total_balls());
  EXPECT_GE(farm.imbalance(), 1.0 - 1e-9);
}

TEST(QueryPipeline, FarmNumericsMatchSerialEngine) {
  Rng rng(83);
  Graph g = graph::barabasi_albert(500, 2, 3, rng);
  Engine engine(g, small_config());

  // Serial reference through one simulated FPGA (same quantizer as the
  // farm's devices — farm numerics are device-count independent).
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 4;
  hw::FpgaBackend single{
      hw::Accelerator(acfg, hw::Quantizer(0.85, 10, 50'000'000))};
  ExactAggregator agg;
  const QueryResult serial = engine.query(23, single, agg);

  hw::FpgaFarm farm = make_farm(3);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, farm, pcfg);
  const QueryResult parallel = pipeline.query(23);

  // The pipeline replays the serial depth-first reduction: bit-identical.
  ASSERT_EQ(parallel.top.size(), serial.top.size());
  for (std::size_t i = 0; i < serial.top.size(); ++i) {
    EXPECT_EQ(parallel.top[i].node, serial.top[i].node) << "rank " << i;
    EXPECT_EQ(parallel.top[i].score, serial.top[i].score) << "rank " << i;
  }
}

TEST(QueryPipeline, WorkerAccountingIsCoherent) {
  Rng rng(84);
  Graph g = graph::barabasi_albert(800, 2, 2, rng);
  MelopprConfig cfg = small_config();
  cfg.selection = Selection::top_count(24);
  Engine engine(g, cfg);
  hw::FpgaFarm farm = make_farm(4);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, farm, pcfg);

  const QueryResult r = pipeline.query(11);
  // The root runs on the worker that claimed it, so at most every other
  // task can have been stolen; the serial diffusion sum covers every ball.
  ASSERT_GT(r.stats.total_balls(), 1u);
  EXPECT_LT(r.stats.stolen_tasks, r.stats.total_balls());
  EXPECT_GT(r.stats.compute_seconds() + r.stats.transfer_seconds(), 0.0);
}

TEST(QueryPipeline, MergedMemoryPeakIsHonest) {
  Rng rng(85);
  Graph g = graph::barabasi_albert(800, 2, 2, rng);
  Engine engine(g, small_config());
  CpuBackend backend(0.85);

  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);
  const QueryResult parallel = pipeline.query(17);
  const QueryResult serial = engine.query(17);

  // The merged per-thread peak can only exceed the serial peak (T balls in
  // flight instead of one), and must include the aggregator.
  EXPECT_GT(parallel.stats.peak_bytes, 0u);
  EXPECT_GE(parallel.stats.peak_bytes, parallel.stats.aggregator_bytes);
  EXPECT_GE(parallel.stats.peak_bytes + 1024, serial.stats.aggregator_bytes);
}

TEST(QueryPipeline, BatchHandlesManyMoreQueriesThanWorkers) {
  Rng rng(86);
  Graph g = graph::barabasi_albert(400, 2, 2, rng);
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 40; ++s) seeds.push_back(s * 7 % 400);
  const std::vector<QueryResult> results = pipeline.query_batch(seeds);
  ASSERT_EQ(results.size(), seeds.size());
  for (const QueryResult& r : results) {
    EXPECT_FALSE(r.top.empty());
    EXPECT_GT(r.stats.total_balls(), 0u);
  }
}

TEST(QueryPipeline, WorkerExceptionsPropagateToCaller) {
  Rng rng(87);
  Graph g = graph::barabasi_albert(200, 2, 2, rng);
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  // An out-of-range seed fails inside a worker's BFS; the pipeline must
  // surface it instead of hanging or swallowing it.
  const std::vector<graph::NodeId> seeds{1, 2, 5'000'000};
  EXPECT_ANY_THROW(pipeline.query_batch(seeds));
  // The pool survives a failed dispatch and keeps serving.
  const std::vector<graph::NodeId> good{1, 2, 3};
  EXPECT_EQ(pipeline.query_batch(good).size(), 3u);
}

}  // namespace
}  // namespace meloppr::core
