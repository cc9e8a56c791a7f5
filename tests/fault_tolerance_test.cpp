// Resilient dispatch end to end: circuit breakers, farm retry/deadline/
// failover, graceful per-query degradation, and the bit-exact CPU failover
// invariant — all under deterministic fault injection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_ball_cache.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "hw/farm.hpp"
#include "test_support.hpp"
#include "util/circuit_breaker.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace meloppr {
namespace {

using core::BackendResult;
using core::CpuBackend;
using core::Engine;
using core::FailoverBackend;
using core::MelopprConfig;
using core::PipelineConfig;
using core::QueryOutcome;
using core::QueryPipeline;
using core::QueryResult;
using core::RunStatus;
using core::ShardedBallCache;
using graph::Graph;
using hw::DispatchPolicy;
using hw::FpgaFarm;

// ---------------------------------------------------------------------------
// CircuitBreaker state machine (clock-free: `now` is synthetic throughout).
// ---------------------------------------------------------------------------

TEST(CircuitBreaker, TripsAfterConsecutiveFailures) {
  CircuitBreaker breaker(3, 1.0);
  EXPECT_TRUE(breaker.closed());
  breaker.record_failure(0.0);
  breaker.record_failure(0.1);
  EXPECT_TRUE(breaker.closed());  // streak of 2 < threshold
  EXPECT_EQ(breaker.consecutive_failures(), 2u);
  breaker.record_failure(0.2);
  EXPECT_FALSE(breaker.closed());
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_EQ(breaker.state(0.2), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreaker, SuccessResetsTheStreak) {
  CircuitBreaker breaker(3, 1.0);
  breaker.record_failure(0.0);
  breaker.record_failure(0.1);
  breaker.record_success();
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  breaker.record_failure(0.2);
  breaker.record_failure(0.3);
  EXPECT_TRUE(breaker.closed());  // streak restarted — still below threshold
}

TEST(CircuitBreaker, ProbeMaturesReclosesOnSuccess) {
  CircuitBreaker breaker(1, 1.0);
  breaker.record_failure(5.0);  // trips immediately (threshold 1)
  EXPECT_FALSE(breaker.closed());
  EXPECT_FALSE(breaker.probe_ready(5.5));  // timer not matured
  EXPECT_EQ(breaker.state(5.5), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(breaker.probe_ready(6.0));
  breaker.begin_probe();
  EXPECT_EQ(breaker.state(6.0), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.probe_ready(6.0));  // single probe slot claimed
  breaker.record_success();
  EXPECT_TRUE(breaker.closed());  // device rejoined rotation
  EXPECT_EQ(breaker.probes(), 1u);
}

TEST(CircuitBreaker, FailedProbeReopensAndRearms) {
  CircuitBreaker breaker(1, 1.0);
  breaker.record_failure(0.0);
  ASSERT_TRUE(breaker.probe_ready(1.0));
  breaker.begin_probe();
  breaker.record_failure(1.0);  // probe did not pay off
  EXPECT_FALSE(breaker.closed());
  EXPECT_FALSE(breaker.probe_ready(1.5));  // re-armed: 1.0 + interval
  EXPECT_TRUE(breaker.probe_ready(2.0));
  EXPECT_EQ(breaker.trips(), 1u);  // a failed probe is not a new trip
}

TEST(CircuitBreaker, OpenStateFailurePushesProbeHorizon) {
  // A dispatch that checked out before the trip can fail while the breaker
  // is already open without a probe claim; the probe timer must re-arm.
  CircuitBreaker breaker(1, 1.0);
  breaker.record_failure(0.0);
  breaker.record_failure(1.5);  // open, no probe in flight
  EXPECT_FALSE(breaker.probe_ready(2.0));  // horizon pushed to 2.5
  EXPECT_TRUE(breaker.probe_ready(2.5));
}

TEST(CircuitBreaker, KillIsTerminal) {
  CircuitBreaker breaker(3, 0.1);
  breaker.kill();
  EXPECT_TRUE(breaker.dead());
  EXPECT_FALSE(breaker.closed());
  EXPECT_FALSE(breaker.probe_ready(1e9));  // no probe ever re-admits
  breaker.record_success();  // ignored once dead
  EXPECT_TRUE(breaker.dead());
  EXPECT_EQ(breaker.state(0.0), CircuitBreaker::State::kDead);
}

TEST(CircuitBreaker, ZeroThresholdNeverTrips) {
  CircuitBreaker breaker(0, 0.1);
  for (int i = 0; i < 100; ++i) breaker.record_failure(i);
  EXPECT_TRUE(breaker.closed());
  EXPECT_EQ(breaker.trips(), 0u);
}

// ---------------------------------------------------------------------------
// Farm-level resilience under injected fault plans.
// ---------------------------------------------------------------------------

class FarmFaultTest : public ::testing::Test {
 protected:
  FarmFaultTest() : rng_(test::test_seed()) {
    g_ = graph::barabasi_albert(400, 2, 2, rng_);
    ball_ = graph::extract_ball(g_, 7, 3);
  }

  [[nodiscard]] hw::Quantizer quantizer() const {
    // Exactly make_cpu_backend's derivation, so the farm's fixed-point
    // scores are comparable to the host path at zero tolerance.
    return hw::Quantizer::from_graph_stats(
        0.85, 10, hw::DChoice::kHalfMaxDegree, g_.average_degree(),
        g_.max_degree(), g_.num_nodes());
  }

  [[nodiscard]] FpgaFarm make_farm(std::size_t devices,
                                   const DispatchPolicy& policy,
                                   const FaultPlan& plan) const {
    hw::AcceleratorConfig cfg;
    cfg.parallelism = 4;
    return FpgaFarm(devices, cfg, quantizer(), policy, plan);
  }

  Rng rng_;
  Graph g_;
  graph::Subgraph ball_;
};

TEST_F(FarmFaultTest, EmptyPlanDispatchesUnwrapped) {
  FpgaFarm farm = make_farm(2, DispatchPolicy{}, FaultPlan{});
  EXPECT_EQ(farm.name(), "farm(2x fpga(P=4))");  // no faulty(...) wrapper
  const BackendResult r = farm.run(ball_, 1.0, 3);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.attempts, 1u);
  const core::DispatchHealth h = farm.dispatch_health();
  EXPECT_EQ(h.devices, 2u);
  EXPECT_EQ(h.healthy_devices, 2u);
  EXPECT_EQ(h.retries, 0u);
}

TEST_F(FarmFaultTest, RetriesAbsorbTransientFaults) {
  FaultPlan plan = FaultPlan::parse("transient=0.5");
  plan.seed = test::test_seed();
  DispatchPolicy policy;
  policy.max_attempts = 4;
  policy.breaker_failure_threshold = 0;  // isolate the retry layer
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm = make_farm(2, policy, plan);
  EXPECT_NE(farm.name().find("faulty("), std::string::npos);

  std::size_t ok_runs = 0;
  std::size_t multi_attempt_runs = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    const BackendResult r = farm.run(ball_, 1.0, 3);
    if (r.ok()) {
      ++ok_runs;
      if (r.attempts > 1) ++multi_attempt_runs;
    } else {
      // Budget exhausted: the typed channel, never a throw.
      EXPECT_EQ(r.status, RunStatus::kTransientFault);
      EXPECT_EQ(r.attempts, policy.max_attempts);
      EXPECT_TRUE(r.accumulated.empty());
    }
  }
  // p(fail one attempt)=0.5 → p(exhaust 4)=1/16: most runs must succeed,
  // and some must have needed a retry.
  EXPECT_GE(ok_runs, 40u);
  EXPECT_GT(multi_attempt_runs, 0u);
  EXPECT_GT(farm.dispatch_health().retries, 0u);
}

TEST_F(FarmFaultTest, StickyDeathShrinksRotationButServiceContinues) {
  FaultPlan plan = FaultPlan::parse("death=3@0");
  plan.seed = test::test_seed();
  DispatchPolicy policy;
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm = make_farm(2, policy, plan);

  for (std::size_t i = 0; i < 20; ++i) {
    const BackendResult r = farm.run(ball_, 1.0, 3);
    // Device 0's death burns one attempt; device 1 absorbs the retry.
    EXPECT_TRUE(r.ok()) << "run " << i << ": " << r.error;
  }
  EXPECT_EQ(farm.device_count(), 2u);
  EXPECT_EQ(farm.dead_device_count(), 1u);
  EXPECT_EQ(farm.healthy_device_count(), 1u);
  const core::DispatchHealth h = farm.dispatch_health();
  EXPECT_EQ(h.dead_devices, 1u);
  EXPECT_GT(h.retries, 0u);  // the death was discovered mid-run and retried
}

TEST_F(FarmFaultTest, NoHealthyDeviceFailsFastWithoutBlocking) {
  FaultPlan plan = FaultPlan::parse("death=0@0");  // device 0 dead on arrival
  DispatchPolicy policy;
  policy.max_attempts = 2;
  policy.breaker_probe_seconds = 3600.0;  // probes far beyond the test
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm = make_farm(1, policy, plan);

  const BackendResult first = farm.run(ball_, 1.0, 3);
  EXPECT_FALSE(first.ok());  // the only device is dead
  EXPECT_EQ(farm.healthy_device_count(), 0u);

  // Subsequent runs must return kNoHealthyDevice immediately — no waiting
  // on probe timers, so the failover layer can serve without stalling.
  const BackendResult r = farm.run(ball_, 1.0, 3);
  EXPECT_EQ(r.status, RunStatus::kNoHealthyDevice);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_FALSE(r.error.empty());
  EXPECT_GT(farm.dispatch_health().exhausted_runs, 0u);
}

TEST_F(FarmFaultTest, BreakerTripsTakeFlakyDeviceOutOfRotation) {
  FaultPlan plan = FaultPlan::parse("transient=1");  // every dispatch fails
  plan.seed = test::test_seed();
  DispatchPolicy policy;
  policy.max_attempts = 6;
  policy.breaker_failure_threshold = 2;
  policy.breaker_probe_seconds = 3600.0;
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm = make_farm(2, policy, plan);

  const BackendResult r = farm.run(ball_, 1.0, 3);
  EXPECT_FALSE(r.ok());
  // 2 devices × threshold 2 = 4 failures trip both breakers; the remaining
  // attempts find nothing dispatchable.
  EXPECT_EQ(r.status, RunStatus::kNoHealthyDevice);
  EXPECT_EQ(farm.healthy_device_count(), 0u);
  EXPECT_EQ(farm.dead_device_count(), 0u);  // tripped, not dead
  const core::DispatchHealth h = farm.dispatch_health();
  EXPECT_EQ(h.breaker_trips, 2u);
}

TEST_F(FarmFaultTest, ProbeReadmitsRecoveredDevice) {
  FaultPlan plan = FaultPlan::parse("transient=1");
  plan.seed = test::test_seed();
  DispatchPolicy policy;
  policy.max_attempts = 3;
  policy.breaker_failure_threshold = 1;
  policy.breaker_probe_seconds = 0.0;  // probes mature immediately
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm = make_farm(1, policy, plan);

  const BackendResult r = farm.run(ball_, 1.0, 3);
  EXPECT_FALSE(r.ok());
  // With a matured probe timer every later attempt claims the half-open
  // probe — traffic keeps flowing to an open breaker.
  EXPECT_GT(farm.dispatch_health().probes, 0u);
}

TEST_F(FarmFaultTest, DeadlineMissDiscardsLateAttempts) {
  // Every run spikes 5ms against a 1ms deadline: attempts complete with
  // correct scores but are discarded as late.
  FaultPlan plan = FaultPlan::parse("spike=1:0.005");
  plan.seed = test::test_seed();
  DispatchPolicy policy;
  policy.max_attempts = 2;
  policy.run_deadline_seconds = 1e-3;
  policy.breaker_failure_threshold = 0;
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm = make_farm(1, policy, plan);

  const BackendResult r = farm.run(ball_, 1.0, 3);
  EXPECT_EQ(r.status, RunStatus::kDeadlineMiss);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.deadline_misses, 2u);
  EXPECT_TRUE(r.accumulated.empty());  // a late answer is discarded whole
  EXPECT_EQ(farm.dispatch_health().deadline_misses, 2u);
}

TEST_F(FarmFaultTest, CallerErrorsStillPropagate) {
  FaultPlan plan = FaultPlan::parse("transient=0.2");
  plan.seed = test::test_seed();
  DispatchPolicy policy;
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm = make_farm(2, policy, plan);
  const graph::Subgraph empty_ball;
  // A bad ball is a bug/caller error on every device: it must throw, not
  // burn the retry budget (pipeline batch-abort semantics depend on this).
  EXPECT_ANY_THROW(farm.run(empty_ball, 1.0, 3));
  // The device the throw happened on must have been released.
  EXPECT_TRUE(farm.run(ball_, 1.0, 3).ok());
}

TEST_F(FarmFaultTest, ResetRearmsBreakersButNotInjectedDeath) {
  FaultPlan plan = FaultPlan::parse("death=0@0");
  DispatchPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm = make_farm(2, policy, plan);
  ASSERT_TRUE(farm.run(ball_, 1.0, 3).ok());  // device 1 absorbs
  EXPECT_EQ(farm.dead_device_count(), 1u);
  farm.reset();
  EXPECT_EQ(farm.dead_device_count(), 0u);  // breaker re-armed...
  ASSERT_TRUE(farm.run(ball_, 1.0, 3).ok());
  EXPECT_EQ(farm.dead_device_count(), 1u);  // ...but the device is still dead
}

// ---------------------------------------------------------------------------
// Bit-exact failover: farm → fixed-point host path.
// ---------------------------------------------------------------------------

TEST_F(FarmFaultTest, FailoverServesBitIdenticalScores) {
  MelopprConfig cfg;
  cfg.stage_lengths = {3, 3};
  cfg.numerics = ppr::Numerics::kFixedPoint;
  const std::unique_ptr<core::DiffusionBackend> reference =
      core::make_cpu_backend(g_, cfg);
  const BackendResult want = reference->run(ball_, 1.0, 3);
  ASSERT_TRUE(want.ok());

  // A farm whose only device is dead: every run fails over to the host.
  FaultPlan plan = FaultPlan::parse("death=0@0");
  DispatchPolicy policy;
  policy.max_attempts = 2;
  policy.breaker_probe_seconds = 3600.0;
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm = make_farm(1, policy, plan);
  const std::unique_ptr<core::DiffusionBackend> fallback =
      core::make_cpu_backend(g_, cfg);
  FailoverBackend failover(farm, *fallback);

  const BackendResult got = failover.run(ball_, 1.0, 3);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.failed_over);
  EXPECT_GE(got.attempts, 2u);  // the farm's failed attempts are charged
  EXPECT_EQ(failover.failovers(), 1u);
  ASSERT_EQ(got.accumulated.size(), want.accumulated.size());
  for (std::size_t v = 0; v < want.accumulated.size(); ++v) {
    // EXPECT_EQ on doubles: bit-identical is the contract, not "near".
    EXPECT_EQ(got.accumulated[v], want.accumulated[v]) << "node " << v;
    EXPECT_EQ(got.inflight[v], want.inflight[v]) << "node " << v;
  }
  EXPECT_EQ(failover.dispatch_health().failovers, 1u);
}

TEST_F(FarmFaultTest, HealthyPrimaryNeverFailsOver) {
  MelopprConfig cfg;
  cfg.numerics = ppr::Numerics::kFixedPoint;
  FpgaFarm farm = make_farm(2, DispatchPolicy{}, FaultPlan{});
  const std::unique_ptr<core::DiffusionBackend> fallback =
      core::make_cpu_backend(g_, cfg);
  FailoverBackend failover(farm, *fallback);
  const BackendResult r = failover.run(ball_, 1.0, 3);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.failed_over);
  EXPECT_EQ(failover.failovers(), 0u);
  EXPECT_NE(failover.name().find("failover(farm("), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine/pipeline graceful degradation.
// ---------------------------------------------------------------------------

MelopprConfig fx_config() {
  MelopprConfig cfg;
  cfg.stage_lengths = {3, 3};
  cfg.k = 20;
  cfg.selection = core::Selection::top_count(8);
  cfg.numerics = ppr::Numerics::kFixedPoint;
  return cfg;
}

TEST(FaultTolerantQuery, DegradedQueriesStayBitIdentical) {
  Rng rng(test::test_seed());
  const Graph g = graph::barabasi_albert(800, 2, 2, rng);
  const MelopprConfig cfg = fx_config();
  Engine engine(g, cfg);

  // Reference: the healthy fixed-point host backend with the same bounded
  // c·k table the degraded queries use — the table may evict, so an exact
  // aggregation is not a valid reference.
  const std::vector<graph::NodeId> seeds{3, 99, 250, 421, 777};
  const std::unique_ptr<core::DiffusionBackend> healthy =
      core::make_cpu_backend(g, cfg);
  std::vector<QueryResult> want;
  for (const graph::NodeId s : seeds) {
    core::TopCKAggregator table(cfg.table_capacity());
    want.push_back(engine.query(s, *healthy, table));
  }

  // Faulty farm (transients + one sticky death) behind a bit-exact host
  // fallback: every query must complete with identical scores.
  const hw::Quantizer quant = hw::Quantizer::from_graph_stats(
      cfg.alpha, cfg.fixed_point_q, cfg.fixed_point_d, g.average_degree(),
      g.max_degree(), g.num_nodes());
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 4;
  FaultPlan plan = FaultPlan::parse("transient=0.2,death=6@1");
  plan.seed = test::test_seed();
  DispatchPolicy policy;
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm(2, acfg, quant, policy, plan);
  const std::unique_ptr<core::DiffusionBackend> fallback =
      core::make_cpu_backend(g, cfg);
  FailoverBackend failover(farm, *fallback);

  bool any_degraded = false;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    core::TopCKAggregator table(cfg.table_capacity());
    const QueryResult got = engine.query(seeds[i], failover, table);
    EXPECT_NE(got.stats.outcome(), QueryOutcome::kFailed);
    EXPECT_EQ(got.stats.failed_balls(), 0u);
    if (got.stats.outcome() == QueryOutcome::kDegraded) any_degraded = true;
    ASSERT_EQ(got.top.size(), want[i].top.size());
    for (std::size_t r = 0; r < want[i].top.size(); ++r) {
      EXPECT_EQ(got.top[r].node, want[i].top[r].node);
      EXPECT_EQ(got.top[r].score, want[i].top[r].score);
    }
  }
  // With p=0.2 transients over hundreds of balls the machinery must have
  // actually engaged (deterministic under the plan seed's default).
  EXPECT_TRUE(any_degraded);
  EXPECT_GT(engine.query(seeds[0], failover, *make_serial_aggregator(
      cfg.aggregation, cfg.k, cfg.topck_c, cfg.topck_epsilon))
                .stats.total_balls(), 0u);
}

TEST(FaultTolerantQuery, ExhaustedDiffusionDegradesNotAborts) {
  // No fallback and a farm whose single device is dead: each ball's
  // diffusion fails past the budget — the query must complete with the
  // failure contained per task, not thrown.
  Rng rng(test::test_seed());
  const Graph g = graph::barabasi_albert(400, 2, 2, rng);
  const MelopprConfig cfg = fx_config();
  Engine engine(g, cfg);

  const hw::Quantizer quant = hw::Quantizer::from_graph_stats(
      cfg.alpha, cfg.fixed_point_q, cfg.fixed_point_d, g.average_degree(),
      g.max_degree(), g.num_nodes());
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 4;
  DispatchPolicy policy;
  policy.max_attempts = 2;
  policy.breaker_probe_seconds = 3600.0;
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm(1, acfg, quant, policy, FaultPlan::parse("death=0@0"));

  core::TopCKAggregator table(cfg.table_capacity());
  QueryResult r;
  ASSERT_NO_THROW(r = engine.query(42, farm, table));
  EXPECT_EQ(r.stats.outcome(), QueryOutcome::kFailed);
  EXPECT_GT(r.stats.failed_balls(), 0u);
  EXPECT_TRUE(r.top.empty());  // the root ball itself failed: lower bound {}
}

TEST(FaultTolerantQuery, FlakyExtractorRetriedToIdenticalScores) {
  Rng rng(test::test_seed());
  const Graph g = graph::barabasi_albert(600, 2, 2, rng);
  MelopprConfig cfg = fx_config();
  cfg.extraction_attempts = 6;
  Engine engine(g, cfg);
  const QueryResult want = engine.query(17);

  FaultPlan plan = FaultPlan::parse("extractor=0.3");
  plan.seed = test::test_seed();
  ShardedBallCache cache(g, 64u << 20);
  cache.set_extractor(make_flaky_extractor(plan));
  engine.set_shared_ball_cache(&cache);
  const std::unique_ptr<core::DiffusionBackend> backend =
      core::make_cpu_backend(g, cfg);
  core::TopCKAggregator table(cfg.table_capacity());
  const QueryResult got = engine.query(17, *backend, table);
  engine.set_shared_ball_cache(nullptr);

  // p(6 consecutive extractor faults) = 0.3^6 ≈ 7e-4 per ball: the retry
  // budget absorbs the flakiness (deterministic for the default seed).
  EXPECT_EQ(got.stats.failed_balls(), 0u);
  EXPECT_GT(got.stats.extraction_faults(), 0u);
  EXPECT_EQ(got.stats.outcome(), QueryOutcome::kDegraded);
  EXPECT_GT(cache.extraction_failures(), 0u);
  ASSERT_EQ(got.top.size(), want.top.size());
  for (std::size_t r = 0; r < want.top.size(); ++r) {
    EXPECT_EQ(got.top[r].node, want.top[r].node);
    EXPECT_EQ(got.top[r].score, want.top[r].score);
  }
}

TEST(FaultTolerantQuery, ExtractorDeadOnEveryAttemptFailsTheBallOnly) {
  Rng rng(test::test_seed());
  const Graph g = graph::barabasi_albert(300, 2, 2, rng);
  MelopprConfig cfg = fx_config();
  cfg.extraction_attempts = 3;
  Engine engine(g, cfg);
  ShardedBallCache cache(g, 64u << 20);
  cache.set_extractor(make_flaky_extractor(FaultPlan::parse("extractor=1")));
  engine.set_shared_ball_cache(&cache);
  const std::unique_ptr<core::DiffusionBackend> backend =
      core::make_cpu_backend(g, cfg);
  core::TopCKAggregator table(cfg.table_capacity());
  QueryResult r;
  ASSERT_NO_THROW(r = engine.query(5, *backend, table));
  engine.set_shared_ball_cache(nullptr);
  EXPECT_EQ(r.stats.outcome(), QueryOutcome::kFailed);
  EXPECT_EQ(r.stats.extraction_faults(), 3u);  // the budget, no more
  EXPECT_EQ(cache.stats().extraction_failures, 3u);
}

TEST(FaultTolerantBatch, ZeroAbortsAndBitIdenticalUnderFaultPlan) {
  // The PR's acceptance scenario: a batch under transient faults plus one
  // sticky device death mid-batch completes with zero aborts and scores
  // bit-identical to the fault-free fixed-point run.
  Rng rng(test::test_seed());
  const Graph g = graph::barabasi_albert(1000, 2, 2, rng);
  const MelopprConfig cfg = fx_config();
  Engine engine(g, cfg);

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 16; ++s) seeds.push_back((s * 61 + 5) % 1000);
  std::vector<QueryResult> want;
  for (const graph::NodeId s : seeds) want.push_back(engine.query(s));

  const hw::Quantizer quant = hw::Quantizer::from_graph_stats(
      cfg.alpha, cfg.fixed_point_q, cfg.fixed_point_d, g.average_degree(),
      g.max_degree(), g.num_nodes());
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 4;
  FaultPlan plan = FaultPlan::parse("transient=0.1,death=10@0");
  plan.seed = test::test_seed();
  DispatchPolicy policy;
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm(2, acfg, quant, policy, plan);
  const std::unique_ptr<core::DiffusionBackend> fallback =
      core::make_cpu_backend(g, cfg);
  FailoverBackend failover(farm, *fallback);

  ShardedBallCache cache(g, 128u << 20);
  engine.set_shared_ball_cache(&cache);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, failover, pcfg);
  QueryPipeline::BatchStats batch;
  std::vector<QueryResult> got;
  ASSERT_NO_THROW(got = pipeline.query_batch(seeds, &batch));
  engine.set_shared_ball_cache(nullptr);

  ASSERT_EQ(got.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_NE(got[i].stats.outcome(), QueryOutcome::kFailed) << "seed " << i;
    ASSERT_EQ(got[i].top.size(), want[i].top.size()) << "seed " << i;
    for (std::size_t r = 0; r < want[i].top.size(); ++r) {
      EXPECT_EQ(got[i].top[r].node, want[i].top[r].node);
      EXPECT_EQ(got[i].top[r].score, want[i].top[r].score);
    }
  }
  // The batch accounting must show the machinery engaged and the death.
  EXPECT_EQ(batch.failed_queries, 0u);
  EXPECT_EQ(batch.failed_balls, 0u);
  EXPECT_EQ(batch.devices, 2u);
  EXPECT_EQ(batch.dead_devices, 1u);
  EXPECT_EQ(batch.healthy_devices, 1u);
  EXPECT_GT(batch.dispatch_retries + batch.failovers, 0u);
}

TEST(FaultTolerantBatch, InvariantViolationsStillAbortTheBatch) {
  // The containment boundary must not swallow bugs: a caller error inside
  // a batch still propagates (pipeline_test's WorkerExceptionsPropagate
  // covers the pipeline side; this pins the farm's behavior with a plan).
  Rng rng(test::test_seed());
  const Graph g = graph::barabasi_albert(300, 2, 2, rng);
  const MelopprConfig cfg = fx_config();
  Engine engine(g, cfg);
  const hw::Quantizer quant = hw::Quantizer::from_graph_stats(
      cfg.alpha, cfg.fixed_point_q, cfg.fixed_point_d, g.average_degree(),
      g.max_degree(), g.num_nodes());
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 4;
  FaultPlan plan = FaultPlan::parse("transient=0.1");
  plan.seed = test::test_seed();
  FpgaFarm farm(2, acfg, quant, DispatchPolicy{}, plan);
  core::TopCKAggregator table(cfg.table_capacity());
  // Seed beyond the graph: std::invalid_argument from extraction.
  EXPECT_THROW(engine.query(5'000'000, farm, table), std::invalid_argument);
}

TEST(FaultTolerantBatch, WorkersRetryAndCountDemandExtractorFaults) {
  // Every ball is a demand fetch on the worker that needs it, so extractor
  // faults surface on the workers themselves: they must be retried within
  // the engine's budget, counted per query, never kill a worker, and never
  // change a surviving query's scores.
  Rng rng(test::test_seed());
  const Graph g = graph::barabasi_albert(600, 2, 2, rng);
  MelopprConfig cfg = fx_config();
  cfg.extraction_attempts = 8;
  Engine engine(g, cfg);
  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 12; ++s) seeds.push_back((s * 47 + 3) % 600);
  std::vector<QueryResult> want;
  for (const graph::NodeId s : seeds) want.push_back(engine.query(s));

  const std::unique_ptr<core::DiffusionBackend> backend =
      core::make_cpu_backend(g, cfg);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, *backend, pcfg);
  const auto sum_faults = [](const std::vector<QueryResult>& results) {
    std::size_t faults = 0;
    for (const QueryResult& r : results) faults += r.stats.extraction_faults();
    return faults;
  };
  const auto expect_want = [&](const std::vector<QueryResult>& got) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].top.size(), want[i].top.size()) << "seed " << i;
      for (std::size_t r = 0; r < want[i].top.size(); ++r) {
        EXPECT_EQ(got[i].top[r].node, want[i].top[r].node) << "seed " << i;
        EXPECT_EQ(got[i].top[r].score, want[i].top[r].score) << "seed " << i;
      }
    }
  };

  // Flaky: p(8 consecutive faults) = 0.2^8 per ball, so the budget absorbs
  // the flakiness. Each failed extraction fails its claimer and every
  // joiner, and each of them counts one fault, so the per-query sum is at
  // least the cache's count of failed extractions.
  {
    FaultPlan plan = FaultPlan::parse("extractor=0.2");
    plan.seed = test::test_seed();
    ShardedBallCache cache(g, 64u << 20);
    cache.set_extractor(make_flaky_extractor(plan));
    engine.set_shared_ball_cache(&cache);
    QueryPipeline::BatchStats batch;
    std::vector<QueryResult> got;
    ASSERT_NO_THROW(got = pipeline.query_batch(seeds, &batch));
    engine.set_shared_ball_cache(nullptr);
    EXPECT_EQ(batch.failed_queries, 0u);
    EXPECT_GT(batch.degraded_queries, 0u);
    EXPECT_GT(cache.extraction_failures(), 0u);
    EXPECT_GE(sum_faults(got), cache.extraction_failures());
    expect_want(got);
  }

  // Dead: every root ball fails exactly its budget, the batch still
  // completes, and the same workers serve the next batch once healed.
  {
    ShardedBallCache cache(g, 64u << 20);
    cache.set_extractor(make_flaky_extractor(FaultPlan::parse("extractor=1")));
    engine.set_shared_ball_cache(&cache);
    QueryPipeline::BatchStats batch;
    std::vector<QueryResult> got;
    ASSERT_NO_THROW(got = pipeline.query_batch(seeds, &batch));
    EXPECT_EQ(batch.failed_queries, seeds.size());
    EXPECT_EQ(sum_faults(got), seeds.size() * cfg.extraction_attempts);

    cache.set_extractor({});  // no fetch in flight between batches
    ASSERT_NO_THROW(got = pipeline.query_batch(seeds, &batch));
    engine.set_shared_ball_cache(nullptr);
    EXPECT_EQ(batch.failed_queries, 0u);
    EXPECT_EQ(sum_faults(got), 0u);
    expect_want(got);
  }
}

// ---------------------------------------------------------------------------
// Concurrent fault hammer (the TSan target): stealing batch + faulty farm
// + flaky extractor, all at once.
// ---------------------------------------------------------------------------

TEST(FaultTolerantBatch, ConcurrentFaultHammer) {
  Rng rng(test::test_seed());
  const Graph g = graph::barabasi_albert(900, 2, 2, rng);
  MelopprConfig cfg = fx_config();
  cfg.extraction_attempts = 8;
  Engine engine(g, cfg);

  std::vector<graph::NodeId> seeds;
  const std::size_t batch_size = test::stress_iters(48);
  for (std::size_t s = 0; s < batch_size; ++s) {
    seeds.push_back(static_cast<graph::NodeId>((s * 37 + 11) % 900));
  }
  std::vector<QueryResult> want;
  for (const graph::NodeId s : seeds) want.push_back(engine.query(s));

  const hw::Quantizer quant = hw::Quantizer::from_graph_stats(
      cfg.alpha, cfg.fixed_point_q, cfg.fixed_point_d, g.average_degree(),
      g.max_degree(), g.num_nodes());
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 4;
  FaultPlan plan = FaultPlan::parse("transient=0.15,death=12@1");
  plan.seed = test::test_seed();
  DispatchPolicy policy;
  policy.backoff_initial_seconds = 1e-6;
  FpgaFarm farm(3, acfg, quant, policy, plan);
  const std::unique_ptr<core::DiffusionBackend> fallback =
      core::make_cpu_backend(g, cfg);
  FailoverBackend failover(farm, *fallback);

  FaultPlan xplan = FaultPlan::parse("extractor=0.05");
  xplan.seed = test::test_seed();
  ShardedBallCache cache(g, 96u << 20);
  cache.set_extractor(make_flaky_extractor(xplan));
  engine.set_shared_ball_cache(&cache);

  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, failover, pcfg);
  QueryPipeline::BatchStats batch;
  std::vector<QueryResult> got;
  ASSERT_NO_THROW(got = pipeline.query_batch(seeds, &batch));
  engine.set_shared_ball_cache(nullptr);

  // Under concurrency WHICH queries degrade is scheduling-dependent, but
  // every query that did not lose a ball must be bit-identical — fault
  // containment may cost coverage, never correctness.
  ASSERT_EQ(got.size(), seeds.size());
  std::size_t failed = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (got[i].stats.outcome() == QueryOutcome::kFailed) {
      ++failed;
      continue;
    }
    ASSERT_EQ(got[i].top.size(), want[i].top.size()) << "seed " << i;
    for (std::size_t r = 0; r < want[i].top.size(); ++r) {
      EXPECT_EQ(got[i].top[r].node, want[i].top[r].node) << "seed " << i;
      EXPECT_EQ(got[i].top[r].score, want[i].top[r].score) << "seed " << i;
    }
  }
  // The extractor retry budget (8 attempts at p=0.05) makes a lost ball
  // vanishingly rare; diffusions always have the host fallback.
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(batch.queries, seeds.size());
}

}  // namespace
}  // namespace meloppr

int main(int argc, char** argv) {
  return meloppr::test::run_all_tests(argc, argv);
}
