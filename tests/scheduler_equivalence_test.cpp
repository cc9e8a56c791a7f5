// The contract of the iterative stage scheduler: it is a re-expression of
// the original recursive engine, not a reinterpretation. A faithful
// recursive reference lives in this file; the serial engine must reproduce
// it bit-for-bit (same DFS aggregation order), and every QueryPipeline
// path — query(), query_batch() at any thread count and batch size, exact
// and bounded aggregation, CPU and farm backends — must reproduce the
// serial engine bit-for-bit (the per-query reduction replays the DFS
// order).
//
// Randomized tests derive from test_support.hpp's --seed / MELOPPR_TEST_SEED
// (fixed default; the reproduction line prints on failure).
#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <map>
#include <span>
#include <string>

#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/paper_graphs.hpp"
#include "hw/farm.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace meloppr::core {
namespace {

using graph::Graph;

/// The pre-scheduler engine, verbatim: blind recursion, aggregating in DFS
/// order with the Eq. 8 subtraction applied immediately before each child.
void reference_recurse(const Graph& g, const MelopprConfig& cfg,
                       DiffusionBackend& backend, ScoreAggregator& agg,
                       graph::NodeId root, double mass, std::size_t stage) {
  const unsigned length = cfg.stage_lengths[stage];
  const graph::Subgraph ball = graph::extract_ball(g, root, length);
  const BackendResult diff = backend.run(ball, mass, length);
  for (graph::NodeId local = 0; local < ball.num_nodes(); ++local) {
    if (diff.accumulated[local] != 0.0) {
      agg.add(ball.to_global(local), diff.accumulated[local]);
    }
  }
  if (stage + 1 >= cfg.num_stages()) return;
  const std::vector<SelectedNode> selected =
      select_next_stage(diff.inflight, cfg.selection);
  std::vector<std::pair<graph::NodeId, double>> children;
  children.reserve(selected.size());
  for (const SelectedNode& sn : selected) {
    children.emplace_back(ball.to_global(sn.local), sn.residual);
  }
  for (const auto& [child, r] : children) {
    agg.add(child, -r);
    reference_recurse(g, cfg, backend, agg, child, r, stage + 1);
  }
}

std::map<graph::NodeId, double> reference_scores(const Graph& g,
                                                 const MelopprConfig& cfg,
                                                 graph::NodeId seed) {
  CpuBackend backend(cfg.alpha);
  ExactAggregator agg;
  reference_recurse(g, cfg, backend, agg, seed, 1.0, 0);
  return {agg.scores().begin(), agg.scores().end()};
}

MelopprConfig two_stage_config(Selection selection, std::size_t k = 50) {
  MelopprConfig cfg;
  cfg.stage_lengths = {3, 3};
  cfg.k = k;
  cfg.selection = selection;
  return cfg;
}

void expect_bit_identical(const QueryResult& want, const QueryResult& got) {
  ASSERT_EQ(want.top.size(), got.top.size());
  for (std::size_t i = 0; i < want.top.size(); ++i) {
    EXPECT_EQ(want.top[i].node, got.top[i].node) << "rank " << i;
    // EXPECT_EQ on doubles: bit-identical is the contract, not "near".
    EXPECT_EQ(want.top[i].score, got.top[i].score) << "rank " << i;
  }
  EXPECT_EQ(want.stats.aggregator_evictions, got.stats.aggregator_evictions);
  EXPECT_EQ(want.stats.total_balls(), got.stats.total_balls());
}

hw::FpgaFarm make_farm(std::size_t devices) {
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 4;
  return hw::FpgaFarm(devices, acfg, hw::Quantizer(0.85, 10, 50'000'000));
}

/// Engine::query through the numerics of `backend` (a fresh clone: a farm
/// clone is the same device model with zeroed load) and a fresh serial
/// aggregator of the engine's aggregation mode.
QueryResult serial_query(const Engine& engine, const DiffusionBackend& backend,
                         graph::NodeId seed) {
  const MelopprConfig& cfg = engine.config();
  const std::unique_ptr<DiffusionBackend> device = backend.clone();
  const std::unique_ptr<ScoreAggregator> aggregator = make_serial_aggregator(
      cfg.aggregation, cfg.k, cfg.topck_c, cfg.topck_epsilon);
  return engine.query(seed, *device, *aggregator);
}

/// The oracle: at every thread count, query_batch over an empty, a
/// one-seed and the full batch, and query() on a seed, are bit-identical
/// to serial_query. `want` holds serial_query for each of `seeds`.
void expect_pipeline_matches_serial(
    const Engine& engine, DiffusionBackend& backend,
    std::span<const graph::NodeId> seeds, const std::vector<QueryResult>& want,
    std::initializer_list<std::size_t> threads) {
  ASSERT_GE(seeds.size(), 2u);
  for (const std::size_t t : threads) {
    PipelineConfig pcfg;
    pcfg.threads = t;
    QueryPipeline pipeline(engine, backend, pcfg);
    for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                   seeds.size()}) {
      SCOPED_TRACE(backend.name() + " threads=" + std::to_string(t) +
                   " batch=" + std::to_string(size));
      QueryPipeline::BatchStats batch;
      const std::vector<QueryResult> got =
          pipeline.query_batch(seeds.first(size), &batch);
      ASSERT_EQ(got.size(), size);
      EXPECT_EQ(batch.queries, size);
      std::size_t evictions = 0;
      for (std::size_t i = 0; i < size; ++i) {
        SCOPED_TRACE("query=" + std::to_string(i));
        expect_bit_identical(want[i], got[i]);
        evictions += want[i].stats.aggregator_evictions;
      }
      EXPECT_EQ(batch.aggregator_evictions, evictions);
      if (engine.config().aggregation == AggregationMode::kBounded) {
        EXPECT_LE(batch.peak_aggregator_entries,
                  engine.config().table_capacity());
      }
    }
    SCOPED_TRACE(backend.name() + " query() threads=" + std::to_string(t));
    expect_bit_identical(want[1], pipeline.query(seeds[1]));
  }
}

class SchedulerEquivalence : public ::testing::Test {
 protected:
  static const Graph& paper_graph(int which) {
    static Rng rng(123);
    static const Graph g1 =
        graph::make_paper_graph(graph::PaperGraphId::kG1Citeseer, rng);
    static const Graph g2 =
        graph::make_paper_graph(graph::PaperGraphId::kG2Cora, rng);
    return which == 0 ? g1 : g2;
  }
};

TEST_F(SchedulerEquivalence, IterativeMatchesRecursiveBitwise) {
  // The 1-thread scheduler must reproduce the recursion's floating-point
  // operation order exactly — not approximately.
  for (int which : {0, 1}) {
    const Graph& g = paper_graph(which);
    const MelopprConfig cfg = two_stage_config(Selection::top_ratio(0.05));
    Engine engine(g, cfg);
    CpuBackend backend(cfg.alpha);
    ExactAggregator agg;
    engine.query(17, backend, agg);
    const auto reference = reference_scores(g, cfg, 17);
    ASSERT_EQ(agg.scores().size(), reference.size());
    for (const auto& [node, score] : agg.scores()) {
      const auto it = reference.find(node);
      ASSERT_TRUE(it != reference.end()) << "node " << node;
      EXPECT_DOUBLE_EQ(score, it->second) << "node " << node;
    }
  }
}

TEST_F(SchedulerEquivalence, IterativeMatchesRecursiveInExactMode) {
  const Graph& g = paper_graph(0);
  const MelopprConfig cfg = two_stage_config(Selection::all(), 100);
  Engine engine(g, cfg);
  CpuBackend backend(cfg.alpha);
  ExactAggregator agg;
  engine.query(3, backend, agg);
  const auto reference = reference_scores(g, cfg, 3);
  ASSERT_EQ(agg.scores().size(), reference.size());
  for (const auto& [node, score] : agg.scores()) {
    EXPECT_DOUBLE_EQ(score, reference.at(node)) << "node " << node;
  }
}

TEST_F(SchedulerEquivalence, QueryMatchesSerialBitwise) {
  // N≥4 worker threads spread one query's stage tasks by stealing; the
  // reduction replays the serial DFS order, so every score is identical
  // to the serial engine on the paper graphs.
  for (int which : {0, 1}) {
    const Graph& g = paper_graph(which);
    MelopprConfig cfg = two_stage_config(Selection::top_ratio(0.05));
    cfg.k = g.num_nodes();  // expose every aggregated node for comparison
    Engine engine(g, cfg);

    CpuBackend backend(cfg.alpha);
    PipelineConfig pcfg;
    pcfg.threads = 4;
    QueryPipeline pipeline(engine, backend, pcfg);
    expect_bit_identical(engine.query(29), pipeline.query(29));
  }
}

TEST_F(SchedulerEquivalence, DeterministicReductionIsThreadCountInvariant) {
  // The parallel scores must be *identical* to the serial engine for any
  // pool size, not merely close.
  const Graph& g = paper_graph(1);
  const MelopprConfig cfg = two_stage_config(Selection::top_ratio(0.08));
  Engine engine(g, cfg);
  CpuBackend backend(cfg.alpha);
  const QueryResult serial = engine.query(41);

  for (std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PipelineConfig pcfg;
    pcfg.threads = threads;
    QueryPipeline pipeline(engine, backend, pcfg);
    expect_bit_identical(serial, pipeline.query(41));
  }
}

TEST_F(SchedulerEquivalence, BatchMatchesSerialBitwise) {
  // query_batch executes tasks out of order across workers but reduces each
  // query in the serial DFS order, so scores are bit-identical to
  // Engine::query — on the CPU backend and on a shared device farm, at
  // every thread count and batch size.
  const Graph& g = paper_graph(1);
  const MelopprConfig cfg = two_stage_config(Selection::top_ratio(0.05), 30);
  Engine engine(g, cfg);
  CpuBackend cpu(cfg.alpha);
  hw::FpgaFarm farm = make_farm(2);

  const std::vector<graph::NodeId> seeds{3, 17, 29, 41, 55, 67, 79, 91};
  for (DiffusionBackend* backend : {static_cast<DiffusionBackend*>(&cpu),
                                    static_cast<DiffusionBackend*>(&farm)}) {
    std::vector<QueryResult> want;
    for (graph::NodeId s : seeds) {
      want.push_back(serial_query(engine, *backend, s));
    }
    expect_pipeline_matches_serial(engine, *backend, seeds, want, {1, 2, 4});
  }
}

TEST_F(SchedulerEquivalence, SerialStatsUnchangedShape) {
  // The scheduler reports the same per-stage accounting the recursion did.
  const Graph& g = paper_graph(0);
  MelopprConfig cfg = two_stage_config(Selection::top_count(5), 10);
  Engine engine(g, cfg);
  const QueryResult r = engine.query(9);
  ASSERT_EQ(r.stats.stages.size(), 2u);
  EXPECT_EQ(r.stats.stages[0].balls, 1u);
  EXPECT_EQ(r.stats.stages[0].selected, 5u);
  EXPECT_EQ(r.stats.stages[1].balls, 5u);
  EXPECT_EQ(r.stats.total_balls(), 6u);
  EXPECT_EQ(r.stats.stolen_tasks, 0u);
}


// ---------------------------------------------------------------------------
// Bounded (top-c·k) aggregation through the engine and the pipeline
// ---------------------------------------------------------------------------

MelopprConfig small_config(AggregationMode mode = AggregationMode::kExact,
                           std::size_t c = 10) {
  MelopprConfig cfg;
  cfg.stage_lengths = {3, 3};
  cfg.k = 20;
  cfg.selection = Selection::top_count(12);
  cfg.aggregation = mode;
  cfg.topck_c = c;
  return cfg;
}

TEST(BoundedAggregation, RecallDegradesMonotonicallyAsCShrinks) {
  // Fig. 6's story: precision vs the exact aggregation falls as the table
  // shrinks. Averaged over several seeds; the small slack absorbs rank
  // ties at the top-k boundary.
  Rng rng(meloppr::test::test_seed() ^ 0xfeed);
  Graph g = graph::barabasi_albert(1500, 2, 3, rng);
  Engine exact_engine(g, small_config());
  std::vector<graph::NodeId> seeds;
  for (int i = 0; i < 6; ++i) {
    seeds.push_back(static_cast<graph::NodeId>(rng.below(g.num_nodes())));
  }
  std::vector<std::vector<ppr::ScoredNode>> truth;
  truth.reserve(seeds.size());
  for (graph::NodeId s : seeds) truth.push_back(exact_engine.query(s).top);

  const std::size_t k = small_config().k;
  std::vector<double> recall_by_c;
  for (const std::size_t c : {1u, 2u, 4u, 8u}) {
    Engine bounded(g, small_config(AggregationMode::kBounded, c));
    double sum = 0.0;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      sum += ppr::precision_at_k(truth[i], bounded.query(seeds[i]).top, k);
    }
    recall_by_c.push_back(sum / static_cast<double>(seeds.size()));
  }
  for (std::size_t i = 1; i < recall_by_c.size(); ++i) {
    EXPECT_GE(recall_by_c[i] + 0.05, recall_by_c[i - 1])
        << "recall fell when c grew from rank " << i - 1 << " to " << i
        << " (seed " << meloppr::test::test_seed() << ")";
  }
  // The paper's headline: ample c is near-lossless, starved c is not.
  EXPECT_GE(recall_by_c.back(), 0.9);
}

TEST(BoundedAggregation, SerialQueryReportsTableStats) {
  Rng rng(meloppr::test::test_seed() ^ 0xbead);
  Graph g = graph::barabasi_albert(1200, 2, 3, rng);
  // c=1: the table holds only k entries, so evictions are guaranteed on
  // any query touching more than k nodes.
  Engine engine(g, small_config(AggregationMode::kBounded, 1));
  const QueryResult r = engine.query(17);
  EXPECT_LE(r.stats.aggregator_entries, engine.config().table_capacity());
  EXPECT_GT(r.stats.aggregator_evictions, 0u);
  EXPECT_EQ(r.stats.aggregator_bytes, engine.config().table_capacity() * 8u);
  EXPECT_LE(r.top.size(), engine.config().k);
}

TEST(BoundedAggregation, BatchBitIdenticalToSerialAtEveryThreadCount) {
  // The acceptance contract: query() and query_batch() with bounded
  // aggregation reproduce Engine::query with a TopCKAggregator
  // entry-for-entry at 1, 2, 4 and 8 workers, for empty, one-seed and
  // full batches, on the CPU backend and on a shared device farm.
  Rng rng(meloppr::test::test_seed() ^ 0xabcd);
  Graph g = graph::barabasi_albert(1200, 2, 3, rng);
  // c=2 on k=20: small enough that evictions demonstrably happen (the
  // equivalence must hold *through* the lossy path, not vacuously).
  Engine engine(g, small_config(AggregationMode::kBounded, 2));

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 12; ++s) seeds.push_back(s * 97 % 1200);

  CpuBackend cpu(0.85);
  hw::FpgaFarm farm = make_farm(2);
  for (DiffusionBackend* backend : {static_cast<DiffusionBackend*>(&cpu),
                                    static_cast<DiffusionBackend*>(&farm)}) {
    std::vector<QueryResult> want;
    std::size_t total_evictions = 0;
    for (graph::NodeId s : seeds) {
      want.push_back(serial_query(engine, *backend, s));
      total_evictions += want.back().stats.aggregator_evictions;
    }
    ASSERT_GT(total_evictions, 0u) << "c too large to exercise eviction";
    expect_pipeline_matches_serial(engine, *backend, seeds, want,
                                   {1, 2, 4, 8});
  }
}

TEST(BoundedAggregation, BatchBitIdenticalUnderForcedStealingSkew) {
  // One hub query with a huge stage-2 fan-out plus periphery queries: the
  // light workers finish and steal the hub's tasks, so the reduction runs
  // over stolen, out-of-order outcomes — and must still replay the serial
  // bounded semantics exactly.
  Rng rng(meloppr::test::test_seed() ^ 0x5ca1ed);
  Graph g = graph::barabasi_albert(2500, 2, 3, rng);
  MelopprConfig cfg = small_config(AggregationMode::kBounded, 2);
  cfg.selection = Selection::top_ratio(0.08);
  Engine engine(g, cfg);

  graph::NodeId hub = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
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
  const auto results = pipeline.query_batch(seeds, &batch);
  // The skew must actually engage stealing for the test to mean anything
  // (single-core runners can legitimately drain without steals — then the
  // equivalence still holds, but flag the vacuous case loudly in CI logs).
  if (batch.stolen_tasks == 0) {
    std::cout << "note: no steals occurred (oversubscribed runner?); "
                 "equivalence checked but skew not exercised\n";
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("query=" + std::to_string(i));
    expect_bit_identical(engine.query(seeds[i]), results[i]);
  }
}

}  // namespace
}  // namespace meloppr::core

// Custom main (the linker prefers this over gtest_main's): --seed flag +
// failure reproduction line.
int main(int argc, char** argv) {
  return meloppr::test::run_all_tests(argc, argv);
}
