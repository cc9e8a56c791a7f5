// Multi-query throughput of the QueryPipeline: queries/sec vs worker
// threads, the serving-scale face of the paper's Sec. VI-C future work.
//
// Two backends are swept:
//   * cpu         — shared CpuBackend (stateless, thread-safe): measures
//                   how well independent queries scale on host cores alone.
//   * fpga farm   — one shared FpgaFarm of D simulated devices: workers'
//                   dispatches interleave on the farm exactly as a
//                   multi-accelerator deployment would see them.
//
// For each thread count T the same query stream runs through
// QueryPipeline::query_batch. Two throughputs are reported:
//
//   wall qps    — stream_size / measured wall seconds on THIS host. This
//                 only scales with T when the container actually has spare
//                 cores; on a 1-core box it stays flat by physics.
//   modeled qps — the serving-deployment view, in the same spirit as
//                 bench_future_parallel's makespan accounting: per-query
//                 costs are measured once at T=1 (host BFS + simulated
//                 device seconds, both contention-free), then the stream is
//                 greedily list-scheduled onto T workers and the modeled
//                 completion time is the worker makespan. Queries are
//                 independent (linear decomposition), so this is the
//                 throughput a T-core PS with T devices would see.
//
// Scores are bit-identical across T (every query is reduced in the serial
// DFS order), so the sweep measures scheduling, not approximation.
//
//   MELOPPR_SEEDS   queries in the stream       (default 48)
//   MELOPPR_SCALE   graph-size multiplier        (default 1)
//   MELOPPR_THREADS max thread count swept       (default 8)
#include <algorithm>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "hw/farm.hpp"

namespace meloppr::bench {
namespace {

hw::FpgaFarm make_farm(const graph::Graph& g, std::size_t devices) {
  const PaperSetup setup = paper_setup();
  hw::AcceleratorConfig cfg;
  cfg.parallelism = 16;  // the paper's largest build
  cfg.clock_hz = setup.clock_hz;
  const hw::Quantizer quant = hw::Quantizer::from_graph_stats(
      setup.alpha, setup.q, hw::DChoice::kHalfMaxDegree, g.average_degree(),
      g.max_degree(), g.num_nodes());
  return hw::FpgaFarm(devices, cfg, quant);
}

/// Greedy online list scheduling of per-query costs onto `workers` —
/// the same discipline the FpgaFarm uses for balls, applied to queries.
double modeled_makespan(const std::vector<double>& costs,
                        std::size_t workers) {
  std::vector<double> busy(workers, 0.0);
  for (double c : costs) {
    *std::min_element(busy.begin(), busy.end()) += c;
  }
  return *std::max_element(busy.begin(), busy.end());
}

int run() {
  Rng rng = banner("pipeline throughput — queries/sec vs worker threads");
  graph::Graph g = build_graph(graph::PaperGraphId::kG3Pubmed, rng);

  core::MelopprConfig cfg = default_config(/*k=*/100);
  cfg.selection = core::Selection::top_ratio(0.03);
  core::Engine engine(g, cfg);

  const std::size_t query_count = bench_seed_count(48);
  std::vector<graph::NodeId> stream;
  stream.reserve(query_count);
  for (std::size_t i = 0; i < query_count; ++i) {
    stream.push_back(graph::random_seed_node(g, rng));
  }

  const std::size_t max_threads = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("MELOPPR_THREADS", 8)));
  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  TablePrinter table({"backend", "threads", "wall (s)", "wall q/s",
                      "modeled q/s", "modeled speedup", "farm imbalance"});

  for (const bool use_farm : {false, true}) {
    core::CpuBackend cpu(cfg.alpha);
    hw::FpgaFarm farm = make_farm(g, max_threads);
    core::DiffusionBackend& backend =
        use_farm ? static_cast<core::DiffusionBackend&>(farm)
                 : static_cast<core::DiffusionBackend&>(cpu);

    // Contention-free per-query costs, measured once at T=1: host-side
    // BFS wall time plus the diffusion seconds in the backend's own
    // timebase (simulated device seconds for the farm, measured wall for
    // the CPU). Using total_seconds here would time the *simulation*, not
    // the modeled deployment.
    std::vector<double> costs;
    {
      core::PipelineConfig pcfg;
      pcfg.threads = 1;
      core::QueryPipeline pipeline(engine, backend, pcfg);
      for (const core::QueryResult& r : pipeline.query_batch(stream)) {
        costs.push_back(r.stats.bfs_seconds() + r.stats.compute_seconds() +
                        r.stats.transfer_seconds());
      }
      farm.reset();
    }

    double base_modeled_qps = 0.0;
    for (const std::size_t threads : thread_counts) {
      farm.reset();
      core::PipelineConfig pcfg;
      pcfg.threads = threads;
      core::QueryPipeline pipeline(engine, backend, pcfg);
      Timer wall;
      const std::vector<core::QueryResult> results =
          pipeline.query_batch(stream);
      const double seconds = wall.elapsed_seconds();
      const double n = static_cast<double>(results.size());
      const double modeled_qps = n / modeled_makespan(costs, threads);
      if (threads == 1) base_modeled_qps = modeled_qps;
      table.add_row({backend.name(), std::to_string(threads),
                     fmt_fixed(seconds, 3), fmt_fixed(n / seconds, 1),
                     fmt_fixed(modeled_qps, 1),
                     fmt_fixed(modeled_qps / base_modeled_qps, 2) + "x",
                     use_farm ? fmt_fixed(farm.imbalance(), 2) : "-"});
    }
  }

  std::cout << table.ascii() << '\n'
            << "reading: queries (and their stage tasks) are independent by "
               "linear decomposition, so modeled throughput scales almost "
               "linearly with workers — >2x at 4 threads — until device "
               "count or BFS bandwidth saturates. Wall q/s tracks the model "
               "only when the host has that many real cores.\n\n";

  // --- Aggregation mode A/B (top-c·k aggregation in the pipeline). Same
  // stream, repeated; each worker's aggregator keeps its storage warm across
  // queries (hash-map buckets for exact, fixed BRAM slots for bounded), and
  // the bounded row shows the c·k memory envelope riding the same batch
  // path. Deeper bounded A/B (recall, thread sweep, memory gate) lives in
  // bench_topck_pipeline.
  std::vector<graph::NodeId> repeated;
  repeated.reserve(stream.size() * 4);
  for (int rep = 0; rep < 4; ++rep) {
    repeated.insert(repeated.end(), stream.begin(), stream.end());
  }
  core::MelopprConfig bounded_cfg = cfg;
  bounded_cfg.aggregation = core::AggregationMode::kBounded;
  bounded_cfg.topck_c = paper_setup().c;
  core::Engine bounded_engine(g, bounded_cfg);

  struct AggRow {
    const char* name;
    bool bounded;
  };
  const AggRow agg_rows[] = {{"per-worker exact", false},
                             {"per-worker bounded c=10", true}};
  TablePrinter pool_table({"aggregators", "threads", "wall (s)", "wall q/s",
                           "peak agg entries", "evictions"});
  for (const AggRow& row : agg_rows) {
    core::CpuBackend cpu(cfg.alpha);
    core::PipelineConfig pcfg;
    pcfg.threads = max_threads;
    core::QueryPipeline pipeline(row.bounded ? bounded_engine : engine, cpu,
                                 pcfg);
    core::QueryPipeline::BatchStats batch;
    Timer wall;
    const std::size_t served = pipeline.query_batch(repeated, &batch).size();
    const double seconds = wall.elapsed_seconds();
    pool_table.add_row(
        {row.name, std::to_string(max_threads), fmt_fixed(seconds, 3),
         fmt_fixed(static_cast<double>(served) / seconds, 1),
         std::to_string(batch.peak_aggregator_entries),
         row.bounded ? std::to_string(batch.aggregator_evictions) : "-"});
  }
  std::cout << pool_table.ascii() << '\n'
            << "reading: both rows reuse each worker's warm aggregator "
               "(clear() keeps the storage); the bounded row caps every "
               "query's score table "
               "at c*k entries — the paper's BRAM envelope — on the same "
               "work-stealing batch path.\n";
  return 0;
}

}  // namespace
}  // namespace meloppr::bench

int main(int argc, char** argv) {
  meloppr::bench::parse_bench_args(argc, argv);
  return meloppr::bench::run();
}
