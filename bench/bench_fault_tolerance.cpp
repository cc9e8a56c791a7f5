// Fault-tolerance acceptance harness: the same query batch runs twice
// through the serving stack — once on a healthy FPGA farm, once under an
// injected fault plan (transient device faults, latency spikes, and one
// sticky device death mid-batch) with the bit-exact fixed-point host
// fallback behind it. The contract this binary gates:
//
//   1. zero aborts — every query in the faulted batch completes;
//   2. bit-identical scores — fault containment may cost retries and
//      failovers, never correctness (fixed-point numerics make the host
//      fallback node-for-node equal to the accelerator);
//   3. bounded throughput loss — the faulted batch's wall time stays
//      within a small factor of the healthy run.
//
// `--smoke` shrinks the workload and turns violations into a non-zero
// exit, which is how CI runs it. Knobs:
//
//   MELOPPR_FAULT_PLAN  overrides the injected plan
//                       (transient=P,spike=P:S,death=N@D,extractor=P,seed=N)
//   MELOPPR_SEEDS       queries in the batch (default 24; smoke 10)
//   MELOPPR_SCALE       graph-size multiplier
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_ball_cache.hpp"
#include "hw/farm.hpp"
#include "util/fault_injection.hpp"

namespace meloppr::bench {
namespace {

struct BatchRun {
  std::vector<core::QueryResult> results;
  core::QueryPipeline::BatchStats stats;
  double wall_seconds = 0.0;
};

BatchRun run_batch(core::Engine& engine, core::DiffusionBackend& backend,
                   core::ShardedBallCache& cache,
                   const std::vector<graph::NodeId>& stream) {
  // The full serving stack: stealing workers and a shared cache.
  engine.set_shared_ball_cache(&cache);
  core::PipelineConfig pcfg;
  pcfg.threads = 4;
  core::QueryPipeline pipeline(engine, backend, pcfg);
  BatchRun run;
  Timer wall;
  run.results = pipeline.query_batch(stream, &run.stats);
  run.wall_seconds = wall.elapsed_seconds();
  engine.set_shared_ball_cache(nullptr);
  return run;
}

std::size_t mismatched_queries(const BatchRun& want, const BatchRun& got) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    const auto& a = want.results[i].top;
    const auto& b = got.results[i].top;
    if (a.size() != b.size()) {
      ++bad;
      continue;
    }
    for (std::size_t r = 0; r < a.size(); ++r) {
      if (a[r].node != b[r].node || a[r].score != b[r].score) {
        ++bad;
        break;
      }
    }
  }
  return bad;
}

int run(bool smoke) {
  Rng rng = banner("fault tolerance — zero-abort, bit-exact degradation");
  graph::Graph g = build_graph(graph::PaperGraphId::kG3Pubmed, rng);

  // Fixed-point numerics on both sides of the failover boundary: the host
  // fallback replays the accelerator's quantized arithmetic exactly, so
  // "degraded" never means "different scores".
  core::MelopprConfig cfg = default_config(/*k=*/100);
  cfg.selection = core::Selection::top_ratio(0.03);
  cfg.numerics = ppr::Numerics::kFixedPoint;
  cfg.extraction_attempts = 4;
  core::Engine engine(g, cfg);

  const std::size_t query_count = bench_seed_count(smoke ? 10 : 24);
  std::vector<graph::NodeId> stream;
  stream.reserve(query_count);
  for (std::size_t i = 0; i < query_count; ++i) {
    stream.push_back(graph::random_seed_node(g, rng));
  }

  FaultPlan plan = FaultPlan::from_env();
  if (plan.empty()) {
    // The acceptance scenario: transients throughout, a latency spike tail,
    // and device 1 dying for good partway into the batch.
    plan = FaultPlan::parse(smoke ? "transient=0.08,spike=0.02:0.0005,death=15@1"
                                  : "transient=0.08,spike=0.02:0.001,death=60@1");
  }
  plan.seed = bench_rng_seed();
  std::cout << "fault plan: " << plan.summary() << "\n\n";

  const PaperSetup setup = paper_setup();
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 16;
  acfg.clock_hz = setup.clock_hz;
  const hw::Quantizer quant = hw::Quantizer::from_graph_stats(
      setup.alpha, setup.q, hw::DChoice::kHalfMaxDegree, g.average_degree(),
      g.max_degree(), g.num_nodes());
  hw::DispatchPolicy policy = hw::DispatchPolicy::from_env();

  TablePrinter table({"run", "wall (s)", "q/s", "ok/degr/fail", "retries",
                      "failovers", "deadline miss", "breaker trips",
                      "devices healthy/dead"});
  auto add_row = [&](const std::string& name, const BatchRun& r) {
    const auto& s = r.stats;
    table.add_row(
        {name, fmt_fixed(r.wall_seconds, 3),
         fmt_fixed(static_cast<double>(s.queries) / r.wall_seconds, 1),
         std::to_string(s.queries - s.degraded_queries - s.failed_queries) +
             "/" + std::to_string(s.degraded_queries) + "/" +
             std::to_string(s.failed_queries),
         std::to_string(s.dispatch_retries), std::to_string(s.failovers),
         std::to_string(s.deadline_misses), std::to_string(s.breaker_trips),
         std::to_string(s.healthy_devices) + "/" +
             std::to_string(s.dead_devices)});
  };

  // --- Healthy baseline: same farm + failover wiring, empty plan, so any
  // overhead of the resilience layer itself is in this row too.
  hw::FpgaFarm healthy_farm(2, acfg, quant, policy, FaultPlan{});
  const std::unique_ptr<core::DiffusionBackend> healthy_cpu =
      core::make_cpu_backend(g, cfg);
  core::FailoverBackend healthy(healthy_farm, *healthy_cpu);
  core::ShardedBallCache healthy_cache(g, 128u << 20);
  const BatchRun want = run_batch(engine, healthy, healthy_cache, stream);
  add_row("healthy farm", want);

  // --- Faulted run: identical stream, farm under the plan.
  hw::FpgaFarm faulted_farm(2, acfg, quant, policy, plan);
  const std::unique_ptr<core::DiffusionBackend> fallback =
      core::make_cpu_backend(g, cfg);
  core::FailoverBackend failover(faulted_farm, *fallback);
  core::ShardedBallCache faulted_cache(g, 128u << 20);
  const BatchRun got = run_batch(engine, failover, faulted_cache, stream);
  add_row("under fault plan", got);

  const std::size_t mismatches = mismatched_queries(want, got);
  const double slowdown = got.wall_seconds / want.wall_seconds;
  std::cout << table.ascii() << '\n'
            << "score check: " << (stream.size() - mismatches) << "/"
            << stream.size() << " queries bit-identical to the healthy run; "
            << "faulted wall = " << fmt_fixed(slowdown, 2)
            << "x healthy\n"
            << "reading: the retry layer absorbs transients on-device, the "
               "breaker takes the dead device out of rotation (one sticky "
               "death → devices 1/1 at batch end), and the fixed-point host "
               "fallback serves anything the farm exhausts — so the right "
               "column degrades while the score column does not.\n";

  if (smoke) {
    // CI gate — violations fail the build.
    std::size_t violations = 0;
    const auto fail = [&violations](const std::string& what) {
      std::cerr << "SMOKE FAIL: " << what << '\n';
      ++violations;
    };
    if (got.results.size() != stream.size()) fail("faulted batch aborted");
    if (got.stats.failed_queries != 0) {
      fail(std::to_string(got.stats.failed_queries) + " failed queries");
    }
    if (mismatches != 0) {
      fail(std::to_string(mismatches) + " queries with non-identical scores");
    }
    if (got.stats.dead_devices != 1) {
      fail("expected exactly 1 dead device at batch end, saw " +
           std::to_string(got.stats.dead_devices));
    }
    if (got.stats.dispatch_retries + got.stats.failovers == 0) {
      fail("fault plan never engaged the resilience machinery");
    }
    if (slowdown > 5.0) {
      fail("throughput loss " + fmt_fixed(slowdown, 2) + "x exceeds 5x");
    }
    if (violations != 0) return 1;
    std::cout << "smoke: all fault-tolerance gates passed\n";
  }
  return 0;
}

}  // namespace
}  // namespace meloppr::bench

int main(int argc, char** argv) {
  const bool smoke = meloppr::bench::parse_bench_args(argc, argv);
  return meloppr::bench::run(smoke);
}
