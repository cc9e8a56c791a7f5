// FpgaFarm (parallel next-stage computation — the paper's future work).
#include "hw/farm.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace meloppr::hw {
namespace {

using graph::Graph;

FpgaFarm make_farm(std::size_t devices, unsigned p = 4) {
  AcceleratorConfig cfg;
  cfg.parallelism = p;
  return FpgaFarm(devices, cfg, Quantizer(0.85, 10, 50'000'000));
}

TEST(FpgaFarm, RejectsZeroDevices) {
  AcceleratorConfig cfg;
  EXPECT_THROW(FpgaFarm(0, cfg, Quantizer(0.85, 10, 1000)),
               std::invalid_argument);
}

TEST(FpgaFarm, NameAndCounts) {
  FpgaFarm farm = make_farm(4, 8);
  EXPECT_EQ(farm.device_count(), 4u);
  EXPECT_EQ(farm.name(), "farm(4x fpga(P=8))");
}

TEST(FpgaFarm, ActiveDispatchGaugeIdlesAtRestAndAfterRuns) {
  // The occupancy gauge reads 0 exactly when no caller is inside run().
  // A generic backend without a live signal reports "unknown" (max).
  Rng rng(75);
  Graph g = graph::barabasi_albert(300, 2, 2, rng);
  FpgaFarm farm = make_farm(2);
  EXPECT_EQ(farm.active_dispatches(), 0u);
  const graph::Subgraph ball = graph::extract_ball(g, 3, 2);
  farm.run(ball, 1.0, 2);
  EXPECT_EQ(farm.active_dispatches(), 0u);  // returns to idle after runs
  core::CpuBackend cpu(0.85);
  EXPECT_EQ(cpu.active_dispatches(),
            std::numeric_limits<std::size_t>::max());
}

TEST(FpgaFarm, NumericsMatchSingleBackend) {
  Rng rng(71);
  Graph g = graph::barabasi_albert(400, 2, 2, rng);
  graph::Subgraph ball = graph::extract_ball(g, 7, 3);

  FpgaFarm farm = make_farm(3);
  AcceleratorConfig cfg;
  cfg.parallelism = 4;
  FpgaBackend single{Accelerator(cfg, Quantizer(0.85, 10, 50'000'000))};

  core::BackendResult a = farm.run(ball, 1.0, 3);
  core::BackendResult b = single.run(ball, 1.0, 3);
  ASSERT_EQ(a.accumulated.size(), b.accumulated.size());
  for (std::size_t v = 0; v < a.accumulated.size(); ++v) {
    EXPECT_DOUBLE_EQ(a.accumulated[v], b.accumulated[v]);
    EXPECT_DOUBLE_EQ(a.inflight[v], b.inflight[v]);
  }
}

TEST(FpgaFarm, MakespanShrinksWithDevices) {
  Rng rng(72);
  Graph g = graph::barabasi_albert(1000, 2, 2, rng);
  std::vector<graph::Subgraph> balls;
  for (graph::NodeId seed : {3u, 17u, 44u, 99u, 250u, 500u, 750u, 999u}) {
    balls.push_back(graph::extract_ball(g, seed, 3));
  }
  double prev_makespan = 1e9;
  for (std::size_t devices : {1u, 2u, 4u}) {
    FpgaFarm farm = make_farm(devices);
    for (const auto& ball : balls) farm.run(ball, 1.0, 3);
    EXPECT_LT(farm.makespan_seconds(), prev_makespan)
        << devices << " devices";
    EXPECT_GE(farm.imbalance(), 1.0 - 1e-9);
    prev_makespan = farm.makespan_seconds();
  }
}

TEST(FpgaFarm, SerialTimeIsDeviceIndependent) {
  Rng rng(73);
  Graph g = graph::barabasi_albert(500, 2, 2, rng);
  graph::Subgraph ball = graph::extract_ball(g, 5, 3);
  FpgaFarm one = make_farm(1);
  FpgaFarm four = make_farm(4);
  for (int i = 0; i < 8; ++i) {
    one.run(ball, 1.0, 3);
    four.run(ball, 1.0, 3);
  }
  // Note: per-device DMA double-buffering means a device's 2nd+ run hides
  // its transfer; with 4 devices each runs fewer times, so serial sums can
  // differ slightly by the extra cold transfers. Compare loosely.
  EXPECT_NEAR(four.serial_seconds(), one.serial_seconds(),
              0.25 * one.serial_seconds());
}

TEST(FpgaFarm, SingleDeviceMakespanEqualsSerial) {
  Rng rng(74);
  Graph g = graph::barabasi_albert(300, 2, 2, rng);
  graph::Subgraph ball = graph::extract_ball(g, 5, 3);
  FpgaFarm farm = make_farm(1);
  farm.run(ball, 1.0, 3);
  farm.run(ball, 1.0, 3);
  EXPECT_DOUBLE_EQ(farm.makespan_seconds(), farm.serial_seconds());
  EXPECT_DOUBLE_EQ(farm.imbalance(), 1.0);
}

TEST(FpgaFarm, ResetClearsLoad) {
  Rng rng(75);
  Graph g = graph::barabasi_albert(300, 2, 2, rng);
  graph::Subgraph ball = graph::extract_ball(g, 5, 3);
  FpgaFarm farm = make_farm(2);
  farm.run(ball, 1.0, 3);
  farm.reset();
  EXPECT_DOUBLE_EQ(farm.makespan_seconds(), 0.0);
  EXPECT_EQ(farm.runs(), 0u);
}

TEST(FpgaFarm, BusyAccountingSurvivesParallelDispatch) {
  // Hammer the farm from more threads than devices: every dispatched second
  // must land in exactly one device's busy total, the makespan must stay
  // the max-device view, and imbalance() must stay ≥ 1.
  Rng rng(80);
  Graph g = graph::barabasi_albert(1200, 2, 2, rng);
  std::vector<graph::Subgraph> balls;
  for (graph::NodeId seed : {3u, 17u, 44u, 99u, 250u, 500u, 750u, 999u}) {
    balls.push_back(graph::extract_ball(g, seed, 3));
  }

  FpgaFarm farm = make_farm(3);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRunsPerThread = 6;
  std::mutex mu;
  double dispatched_seconds = 0.0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      double mine = 0.0;
      for (std::size_t i = 0; i < kRunsPerThread; ++i) {
        const core::BackendResult r =
            farm.run(balls[(t + i) % balls.size()], 1.0, 3);
        EXPECT_FALSE(r.accumulated.empty());
        mine += r.compute_seconds + r.transfer_seconds;
      }
      std::lock_guard<std::mutex> lock(mu);
      dispatched_seconds += mine;
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(farm.runs(), kThreads * kRunsPerThread);
  // Conservation: Σ device busy time == Σ seconds handed to callers.
  EXPECT_NEAR(farm.serial_seconds(), dispatched_seconds,
              1e-9 * dispatched_seconds + 1e-15);
  EXPECT_GE(farm.imbalance(), 1.0 - 1e-9);
  EXPECT_LE(farm.makespan_seconds(), farm.serial_seconds() + 1e-15);
  // 48 runs over 3 devices: every device must have been exercised.
  EXPECT_GE(farm.makespan_seconds(), farm.serial_seconds() / 3.0 - 1e-15);
}

TEST(FpgaFarm, CloneSharesNoLoad) {
  Rng rng(81);
  Graph g = graph::barabasi_albert(300, 2, 2, rng);
  graph::Subgraph ball = graph::extract_ball(g, 5, 3);
  FpgaFarm farm = make_farm(2);
  farm.run(ball, 1.0, 3);
  auto clone = farm.clone();
  EXPECT_EQ(clone->name(), farm.name());
  EXPECT_TRUE(clone->thread_safe());
  auto* fresh = dynamic_cast<FpgaFarm*>(clone.get());
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->runs(), 0u);
  EXPECT_DOUBLE_EQ(fresh->makespan_seconds(), 0.0);
  EXPECT_EQ(farm.runs(), 1u);  // original untouched
}

TEST(FpgaFarm, WorksAsEngineBackend) {
  Rng rng(76);
  Graph g = graph::barabasi_albert(600, 2, 2, rng);
  core::MelopprConfig cfg;
  cfg.stage_lengths = {3, 3};
  cfg.k = 20;
  cfg.selection = core::Selection::top_count(12);
  core::Engine engine(g, cfg);

  FpgaFarm farm = make_farm(4);
  core::TopCKAggregator table(200);
  core::QueryResult r = engine.query(9, farm, table);
  EXPECT_FALSE(r.top.empty());
  EXPECT_EQ(farm.runs(), r.stats.total_balls());
  // Parallel completion beats the serial sum once there are many children.
  EXPECT_LT(farm.makespan_seconds(), farm.serial_seconds());
}

}  // namespace
}  // namespace meloppr::hw
