// The concurrent serving layer vs the bare stealing scheduler: sharded
// ball cache and stage-lookahead prefetch on a skewed (popular-seed-heavy)
// query stream.
//
// The paper's Fig. 7 shows CPU-side BFS dominating end-to-end latency once
// device parallelism grows; without a cache the pipeline pays full BFS on
// every task. This bench layers the fixes on one at a time, at a fixed
// thread count, all on the work-stealing batch scheduler:
//
//   bare stealing     — no cache, no prefetch
//   + sharded cache   — popular balls extracted once, served to all workers
//   + prefetch        — next-stage balls extracted during device diffusion
//
// Reported per configuration: wall q/s, the BFS seconds the workers still
// paid (demand), the BFS seconds the cache+prefetcher removed or hid, the
// demand hit rate, and steal counts. Scores are asserted bit-identical to
// the serial engine in every configuration — the layer changes scheduling,
// never numerics.
//
// A second table runs the same stream against a shared FpgaFarm to show the
// PS/PL overlap directly: farm dispatch-wait seconds (workers blocked on
// busy devices) is exactly the window the prefetcher fills with BFS.
//
//   --smoke          CI mode: small sizes + hard assertions (exit 1 on
//                    regression in the cache/prefetch path)
//   MELOPPR_SEEDS    queries in the stream        (default 96; smoke 24)
//   MELOPPR_SCALE    graph-size multiplier        (default 1)
//   MELOPPR_THREADS  worker threads               (default 4)
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_ball_cache.hpp"
#include "hw/farm.hpp"

namespace meloppr::bench {
namespace {

struct LayerConfig {
  std::string name;
  bool cache = false;
  bool prefetch = false;
};

const std::vector<LayerConfig> kLayers = {
    {"bare stealing", false, false},
    {"+ sharded cache", true, false},
    {"+ prefetch", true, true},
};

struct RunResult {
  double wall_seconds = 0.0;
  core::QueryPipeline::BatchStats stats;
  std::vector<core::QueryResult> results;
};

RunResult run_layer(core::Engine& engine, core::DiffusionBackend& backend,
                    const LayerConfig& layer, std::size_t threads,
                    std::span<const graph::NodeId> stream,
                    core::ShardedBallCache* cache) {
  engine.set_shared_ball_cache(layer.cache ? cache : nullptr);
  core::PipelineConfig pcfg;
  pcfg.threads = threads;
  pcfg.prefetch = layer.prefetch;
  // This bench measures the lookahead layer itself, so the backend-aware
  // throttle is off: the CPU-backend table shows what prefetch buys when
  // cores are genuinely spare, the farm table the throttle's target case.
  pcfg.prefetch_throttle = false;
  core::QueryPipeline pipeline(engine, backend, pcfg);

  RunResult r;
  Timer wall;
  r.results = pipeline.query_batch(stream, &r.stats);
  r.wall_seconds = wall.elapsed_seconds();
  engine.set_shared_ball_cache(nullptr);
  return r;
}

/// Bit-identical comparison against precomputed serial references (the
/// pipeline's acceptance contract).
bool scores_match_serial(
    const std::unordered_map<graph::NodeId, std::vector<ppr::ScoredNode>>&
        reference,
    std::span<const graph::NodeId> stream,
    const std::vector<core::QueryResult>& results) {
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto& want = reference.at(stream[i]);
    if (want.size() != results[i].top.size()) return false;
    for (std::size_t j = 0; j < want.size(); ++j) {
      if (want[j].node != results[i].top[j].node ||
          want[j].score != results[i].top[j].score) {
        return false;
      }
    }
  }
  return true;
}

int run(bool smoke) {
  Rng rng = banner(
      "serving layer — sharded cache + prefetch vs bare stealing");
  graph::Graph g = build_graph(graph::PaperGraphId::kG3Pubmed, rng);

  core::MelopprConfig cfg = default_config(/*k=*/100);
  cfg.selection = core::Selection::top_ratio(0.03);
  core::Engine engine(g, cfg);

  const std::size_t threads = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("MELOPPR_THREADS", 4)));
  const std::size_t query_count = bench_seed_count(smoke ? 24 : 96);

  // Skewed stream: 70% of traffic hits 16 popular seeds (a Zipf-ish head)
  // — the access pattern that makes a shared cache pay.
  std::vector<graph::NodeId> popular;
  for (int i = 0; i < 16; ++i) {
    popular.push_back(graph::random_seed_node(g, rng));
  }
  std::vector<graph::NodeId> stream;
  stream.reserve(query_count);
  for (std::size_t i = 0; i < query_count; ++i) {
    stream.push_back(rng.chance(0.7)
                         ? popular[rng.below(popular.size())]
                         : graph::random_seed_node(g, rng));
  }

  const std::size_t cache_mb = smoke ? 64 : 256;

  // Serial references, once per distinct seed — every configuration must
  // reproduce these bit-for-bit.
  std::unordered_map<graph::NodeId, std::vector<ppr::ScoredNode>> reference;
  for (graph::NodeId seed : stream) {
    if (reference.find(seed) == reference.end()) {
      reference.emplace(seed, engine.query(seed).top);
    }
  }

  TablePrinter table({"configuration", "wall (s)", "q/s", "speedup",
                      "demand BFS (s)", "BFS hidden (s)", "hit rate",
                      "dedup", "steals"});
  double base_qps = 0.0;
  double layered_qps = 0.0;
  bool all_identical = true;
  core::QueryPipeline::BatchStats full_stats;

  for (const LayerConfig& layer : kLayers) {
    core::CpuBackend backend(cfg.alpha);
    core::ShardedBallCache cache(g, cache_mb << 20);
    const RunResult r =
        run_layer(engine, backend, layer, threads, stream, &cache);
    const double qps = static_cast<double>(query_count) / r.wall_seconds;
    if (layer.name == kLayers.front().name) base_qps = qps;
    layered_qps = qps;
    full_stats = r.stats;
    // BFS removed or hidden: extraction time spent on prefetch threads plus
    // the serial-BFS seconds that cache hits made vanish (estimated as
    // hits x mean miss cost).
    const double mean_miss_s =
        r.stats.cache_misses > 0
            ? cache.extraction_seconds() /
                  static_cast<double>(r.stats.cache_misses +
                                      r.stats.prefetched_balls)
            : 0.0;
    const double hidden_s =
        r.stats.prefetch_hidden_seconds +
        mean_miss_s * static_cast<double>(r.stats.cache_hits);
    all_identical =
        all_identical && scores_match_serial(reference, stream, r.results);
    table.add_row(
        {layer.name, fmt_fixed(r.wall_seconds, 3), fmt_fixed(qps, 1),
         fmt_fixed(qps / base_qps, 2) + "x",
         fmt_fixed(r.stats.demand_bfs_seconds, 3), fmt_fixed(hidden_s, 3),
         layer.cache ? fmt_percent(r.stats.cache_hit_rate()) : "-",
         layer.cache ? std::to_string(r.stats.dedup_hits) : "-",
         std::to_string(r.stats.stolen_tasks)});
  }

  std::cout << table.ascii() << '\n';

  // --- PS/PL overlap against a shared device farm. ---
  TablePrinter farm_table({"configuration", "wall (s)", "q/s",
                           "farm wait (s)", "BFS hidden (s)", "hit rate",
                           "peak devices"});
  for (const LayerConfig& layer : {kLayers.front(), kLayers.back()}) {
    hw::AcceleratorConfig acfg;
    acfg.parallelism = 16;
    acfg.clock_hz = paper_setup().clock_hz;
    const hw::Quantizer quant = hw::Quantizer::from_graph_stats(
        paper_setup().alpha, paper_setup().q, hw::DChoice::kHalfMaxDegree,
        g.average_degree(), g.max_degree(), g.num_nodes());
    // Fewer devices than workers: dispatchers must queue for the farm,
    // which is exactly the window prefetch threads fill with BFS.
    hw::FpgaFarm farm(std::max<std::size_t>(1, threads / 2), acfg, quant);
    core::ShardedBallCache cache(g, cache_mb << 20);
    const RunResult r =
        run_layer(engine, farm, layer, threads, stream, &cache);
    farm_table.add_row(
        {layer.name, fmt_fixed(r.wall_seconds, 3),
         fmt_fixed(static_cast<double>(query_count) / r.wall_seconds, 1),
         fmt_fixed(farm.dispatch_wait_seconds(), 3),
         fmt_fixed(r.stats.prefetch_hidden_seconds, 3),
         layer.cache ? fmt_percent(r.stats.cache_hit_rate()) : "-",
         std::to_string(farm.peak_concurrent_runs())});
  }
  std::cout << farm_table.ascii() << '\n'
            << "reading: the cache turns repeated popular-seed BFS into "
               "memory and the prefetcher moves the remaining BFS into the "
               "farm-wait window — scores bit-identical throughout.\n";

  // --- loud checks (CI smoke gate) ---
  bool ok = true;
  const auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::cout << "CHECK FAILED: " << what << "\n";
      ok = false;
    }
  };
  // Bit-identical scores are a correctness invariant at ANY parameters.
  check(all_identical,
        "batch scores bit-identical to serial Engine::query in every "
        "configuration");
  if (smoke) {
    // The remaining gates assume the smoke-mode workload shape (skewed
    // stream, several threads); arbitrary env overrides in full mode can
    // legitimately produce a cold cache or a thread count too small for
    // stealing/prefetch to engage.
    check(full_stats.cache_hit_rate() > 0.3,
          "sharded cache demand hit rate > 30% on the skewed stream");
    check(threads < 2 || full_stats.prefetch_issued > 0,
          "prefetcher received lookahead work");
    // Wall-clock q/s on shared CI runners is noisy; the smoke gate only
    // rejects catastrophic regressions of the full stack vs the bare
    // stealing scheduler.
    check(layered_qps >= 0.75 * base_qps,
          "full serving stack at least ~parity with bare stealing");
  }
  std::cout << (ok ? "OK" : "FAILED") << ": serving-layer checks ("
            << (smoke ? "smoke" : "full") << " mode), full-stack speedup "
            << fmt_fixed(layered_qps / base_qps, 2) << "x\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace meloppr::bench

int main(int argc, char** argv) {
  const bool smoke = meloppr::bench::parse_bench_args(argc, argv);
  if (smoke && meloppr::env_int("MELOPPR_SEEDS", 0) == 0) {
    // Smoke defaults sized for a CI container; env overrides still win.
    setenv("MELOPPR_SCALE", "0.25", /*overwrite=*/0);
  }
  return meloppr::bench::run(smoke);
}
