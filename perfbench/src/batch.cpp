// batch_farm_cold: closed-loop QueryPipeline::query_batch on the com-dblp
// stand-in (G5) over uniform distinct seeds, whose ball working set is
// many times the TinyLFU cache budget, diffused on a 2-device FpgaFarm in
// the paper's FPGA configuration (fixed point, bounded top-c·k with
// c = 10), with stage and root prefetch on.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/aggregator.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_ball_cache.hpp"
#include "graph/paper_graphs.hpp"
#include "hw/farm.hpp"
#include "hw/host.hpp"
#include "layers.hpp"
#include "ppr/local_ppr.hpp"
#include "trace.hpp"
#include "util/fault_injection.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using meloppr::Rng;
using meloppr::Timer;
using meloppr::graph::Graph;
using meloppr::graph::NodeId;
namespace core = meloppr::core;
namespace graph = meloppr::graph;
namespace hw = meloppr::hw;

constexpr std::uint64_t kGraphSeed = 20210705;
/// 2 workers + 2 prefetch threads = 4 busy threads; the farm's devices
/// are simulated on the workers' own threads.
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kPrefetchThreads = 2;
constexpr std::size_t kDevices = 2;
constexpr std::size_t kCacheBytes = std::size_t{16} << 20;
constexpr std::size_t kBatchSize = 32;
constexpr std::size_t kWarmupQueries = 8;
/// Set-up is short here, so more repetitions steady its median.
constexpr std::size_t kSetupRepetitions = 5;
constexpr std::size_t kCheckSample = 12;
/// Seeds the fixed precision sample, the same in every run.
constexpr std::uint64_t kCheckSeed = 99;

core::MelopprConfig farm_config() {
  core::MelopprConfig cfg;  // paper FPGA setup: L = 3 + 3, k = 200
  cfg.k = 200;
  cfg.numerics = meloppr::ppr::Numerics::kFixedPoint;
  cfg.aggregation = core::AggregationMode::kBounded;
  cfg.topck_c = 10;
  return cfg;
}

hw::AcceleratorConfig accelerator_config() {
  hw::AcceleratorConfig acfg;
  acfg.parallelism = 16;
  acfg.clock_hz = 100e6;
  return acfg;
}

hw::Quantizer quantizer_for(const Graph& g, const core::MelopprConfig& cfg) {
  return hw::Quantizer::from_graph_stats(
      cfg.alpha, cfg.fixed_point_q, cfg.fixed_point_d, g.average_degree(),
      g.max_degree(), g.num_nodes());
}

struct Stack {
  std::unique_ptr<core::ShardedBallCache> cache;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<hw::FpgaFarm> farm;
  std::unique_ptr<TracingBackend> traced;
  std::unique_ptr<core::QueryPipeline> pipeline;
};

std::unique_ptr<Stack> build_stack(const Graph& g, SpanSink* sink,
                                   const std::vector<NodeId>& warm) {
  auto s = std::make_unique<Stack>();
  const core::MelopprConfig cfg = farm_config();
  s->cache = std::make_unique<core::ShardedBallCache>(
      g, kCacheBytes, 0, core::CacheAdmission::kTinyLFU);
  if (sink != nullptr) s->cache->set_extractor(traced_extractor(*sink));
  s->engine = std::make_unique<core::Engine>(g, cfg);
  s->engine->set_shared_ball_cache(s->cache.get());
  // Explicit policy and empty fault plan: the 3-argument constructor would
  // read MELOPPR_FAULT_PLAN and MELOPPR_DISPATCH_* from the environment.
  s->farm = std::make_unique<hw::FpgaFarm>(kDevices, accelerator_config(),
                                           quantizer_for(g, cfg),
                                           hw::DispatchPolicy{},
                                           meloppr::FaultPlan{});
  core::DiffusionBackend* backend = s->farm.get();
  if (sink != nullptr) {
    s->traced = std::make_unique<TracingBackend>(*s->farm, *sink, "hw.run");
    backend = s->traced.get();
  }
  core::PipelineConfig pcfg;
  pcfg.threads = kWorkers;
  pcfg.prefetch_threads = kPrefetchThreads;
  s->pipeline = std::make_unique<core::QueryPipeline>(*s->engine, *backend, pcfg);
  (void)s->pipeline->query_batch(warm);
  return s;
}

struct Pass {
  std::size_t queries = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  std::vector<double> service_s;
  std::vector<double> claim_wait_s;
  double device_s = 0.0;  ///< modeled compute + transfer
  double cpu_s = 0.0;     ///< process CPU over the pass
  /// Per batch, in order: balls diffused, edge ops, executed tasks — the
  /// deterministic program counts the traced run must reproduce.
  std::vector<std::uint64_t> balls, edge_ops, tasks;
  std::vector<core::QueryResult> first_results;  ///< the first batch's
  std::vector<NodeId> first_seeds;
  core::ShardedBallCache::Stats cache;
  LayerLedger ledger;
};

Pass run_pass(Stack& s, const std::vector<NodeId>& seeds, double seconds) {
  Pass pass;
  const core::ShardedBallCache::Stats before = s.cache->stats();
  const double cpu_start = process_cpu_s();
  for (std::size_t begin = 0;
       begin < seeds.size() && pass.wall_s < seconds; begin += kBatchSize) {
    const std::size_t end = std::min(seeds.size(), begin + kBatchSize);
    const std::vector<NodeId> batch(seeds.begin() + static_cast<std::ptrdiff_t>(begin),
                                    seeds.begin() + static_cast<std::ptrdiff_t>(end));
    core::QueryPipeline::BatchStats bs;
    Timer t;
    std::vector<core::QueryResult> results;
    try {
      results = s.pipeline->query_batch(batch, &bs);
    } catch (const std::exception& e) {
      std::cerr << "batch aborted: " << e.what() << '\n';
      pass.queries += batch.size();
      pass.failed += batch.size();
      pass.wall_s += t.elapsed_seconds();
      continue;
    }
    pass.wall_s += t.elapsed_seconds();
    pass.queries += batch.size();
    std::uint64_t balls = 0;
    std::uint64_t ops = 0;
    for (const core::QueryResult& r : results) {
      if (r.stats.outcome() == core::QueryOutcome::kFailed) ++pass.failed;
      pass.service_s.push_back(r.stats.service_seconds());
      pass.claim_wait_s.push_back(r.stats.queue_seconds);
      pass.device_s += r.stats.compute_seconds() + r.stats.transfer_seconds();
      balls += r.stats.total_balls();
      ops += r.stats.edge_ops();
    }
    pass.balls.push_back(balls);
    pass.edge_ops.push_back(ops);
    pass.tasks.push_back(bs.executed_tasks);
    pass.ledger.add_batch(bs);
    if (pass.first_results.empty()) {
      pass.first_results = std::move(results);
      pass.first_seeds = batch;
    }
  }
  pass.cpu_s = process_cpu_s() - cpu_start;
  pass.cache = cache_delta(s.cache->stats(), before);
  pass.ledger.queries = pass.queries - pass.failed;
  pass.ledger.service_s = pass.service_s;
  pass.ledger.claim_wait_s = pass.claim_wait_s;
  pass.ledger.cache = pass.cache;
  pass.ledger.health = s.farm->dispatch_health();
  return pass;
}

double qps_of(const Pass& p) {
  return p.wall_s > 0.0 ? static_cast<double>(p.queries) / p.wall_s : 0.0;
}

}  // namespace

void run_batch_farm_cold(const Options& opt, Result& result) {
  std::cout << "workers=" << kWorkers << " prefetch_threads="
            << kPrefetchThreads << " devices=" << kDevices << " batch="
            << kBatchSize << " cache_budget_mib=" << (kCacheBytes >> 20)
            << '\n';
  Rng root(opt.seed);
  Rng warm_rng = root.fork(1);
  Rng order_rng = root.fork(2);

  std::unique_ptr<Graph> g;
  std::unique_ptr<Stack> stack;
  // setup_s is set-up CPU time: on a shared host the wall time swings with
  // the CPU time the hypervisor steals, and CPU time is not charged for it.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::vector<NodeId> warm;
  const std::size_t reps = opt.trace ? 1 : kSetupRepetitions;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    stack.reset();
    g.reset();
    Timer t;
    const double cpu0 = process_cpu_s();
    Rng grng(kGraphSeed);
    g = std::make_unique<Graph>(
        graph::make_paper_graph(graph::PaperGraphId::kG5Dblp, grng));
    Rng wr = warm_rng;
    warm.clear();
    for (std::size_t i = 0; i < kWarmupQueries; ++i) {
      warm.push_back(graph::random_seed_node(*g, wr));
    }
    stack = build_stack(*g, nullptr, warm);
    setup_wall_s.push_back(t.elapsed_seconds());
    setup_s.push_back(process_cpu_s() - cpu0);
  }
  std::cout << "set-up: median " << summarize(setup_s).median
            << " CPU s, " << summarize(setup_wall_s).median << " wall s over "
            << reps << " repetition(s)\n";
  std::cout << "graph " << g->summary() << '\n';

  // Uniform distinct seeds: a seeded shuffle of the non-isolated nodes.
  std::vector<NodeId> seeds;
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    if (g->degree(v) > 0) seeds.push_back(v);
  }
  for (std::size_t i = seeds.size(); i > 1; --i) {
    std::swap(seeds[i - 1], seeds[order_rng.below(i)]);
  }

  const double pass_seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  Pass plain = run_pass(*stack, seeds, pass_seconds);
  const double peak_rss = peak_rss_mib();
  result.attempted = plain.queries;
  result.failed = plain.failed;

  // --- Correctness. Served scores must be bit-identical to a serial
  // engine with the same numerics (one simulated accelerator with the
  // farm's quantizer) and the same bounded aggregation, on a sample of the
  // first measured batch and on a fixed seed sample served through the
  // same stack afterwards. precision@k against local_ppr is taken on the
  // fixed sample, so it does not depend on the run's seed.
  const core::MelopprConfig cfg = farm_config();
  const core::Engine ref(*g, cfg);
  hw::FpgaBackend device(hw::Accelerator(accelerator_config(), quantizer_for(*g, cfg)));
  core::TopCKAggregator table(cfg.table_capacity(), cfg.topck_epsilon);
  std::vector<NodeId> fixed_seeds;
  Rng check_rng(kCheckSeed);
  for (std::size_t i = 0; i < kCheckSample; ++i) {
    fixed_seeds.push_back(graph::random_seed_node(*g, check_rng));
  }
  const std::vector<core::QueryResult> fixed_results =
      stack->pipeline->query_batch(fixed_seeds);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  double precision = 0.0;
  std::vector<double> peaks_kb;
  auto check_one = [&](NodeId seed, const core::QueryResult& got) {
    const core::QueryResult want = ref.query(seed, device, table);
    if (!same_scores(got, want)) ++mismatches;
    ++checked;
    return want;
  };
  for (std::size_t i = 0; i < fixed_seeds.size(); ++i) {
    const core::QueryResult want = check_one(fixed_seeds[i], fixed_results[i]);
    peaks_kb.push_back(static_cast<double>(want.stats.peak_bytes) / 1024.0);
    const meloppr::ppr::LocalPprResult exact = meloppr::ppr::local_ppr(
        *g, fixed_seeds[i], {cfg.alpha, cfg.total_length(), cfg.k});
    precision += meloppr::ppr::precision_at_k(exact.top, fixed_results[i].top,
                                              cfg.k);
  }
  precision /= static_cast<double>(kCheckSample);
  const std::size_t stride =
      std::max<std::size_t>(1, plain.first_results.size() / kCheckSample);
  for (std::size_t i = 0, n = 0;
       i < plain.first_results.size() && n < kCheckSample; i += stride, ++n) {
    (void)check_one(plain.first_seeds[i], plain.first_results[i]);
  }
  std::cout << "check: " << checked - mismatches << "/" << checked
            << " sampled queries bit-identical to serial Engine::query "
               "(fixed point, bounded c*k); precision@k vs local_ppr="
            << precision << '\n';
  if (plain.first_results.empty()) result.fail_check("no completed batch to check");
  if (mismatches != 0) {
    result.fail_check(std::to_string(mismatches) +
                      " batch queries differ from serial Engine::query");
  }

  const Summary service = summarize_ms(plain.service_s);
  const double device_ms = plain.queries == 0 ? 0.0
      : plain.device_s * 1e3 / static_cast<double>(plain.queries);
  std::cout << "closed loop: attempted=" << plain.queries << " succeeded="
            << plain.queries - plain.failed << " failed=" << plain.failed
            << " batches=" << plain.balls.size() << " wall=" << plain.wall_s
            << " s\n";
  print_timing("service (claim->finalize)", service);
  const double fail_ratio =
      plain.queries == 0 ? 0.0
                         : static_cast<double>(plain.failed) /
                               static_cast<double>(plain.queries);
  std::cout << "end-to-end:\n  qps=" << qps_of(plain)
            << "\n  device_ms_per_query=" << device_ms
            << " (modeled FPGA compute + transfer; not wall time)"
            << "\n  fail_ratio=" << fail_ratio << " (" << plain.failed << "/"
            << plain.queries << ")"
            << "\n  demand hit ratio=" << plain.cache.hit_rate() << " (of "
            << plain.cache.hits + plain.cache.misses << " lookups)\n";

  if (!opt.trace) {
    result.add("setup_s", summarize(setup_s).median, "s");
    result.add("setup_wall_s", summarize(setup_wall_s).median, "s");
    result.add("qps", qps_of(plain), "1/s");
    result.add("cpu_ms_per_query",
               plain.queries == 0 ? 0.0
                                  : plain.cpu_s * 1e3 /
                                        static_cast<double>(plain.queries),
               "ms");
    result.add("p50_ms", service.median, "ms");
    result.add_tail("{p}_ms", service, "ms");
    result.add("precision_at_k", precision, "fraction");
    result.add("peak_rss_mb", peak_rss, "MiB");
    result.add("fail_ratio", fail_ratio, "fraction");
    result.add("device_ms_per_query", device_ms, "ms");
    return;
  }

  SpanSink sink;
  stack.reset();
  stack = build_stack(*g, &sink, warm);
  const double traced_start = sink.now();
  Pass traced = run_pass(*stack, seeds, pass_seconds);
  std::vector<Span> spans;
  for (const Span& sp : sink.snapshot()) {
    if (sp.start_s >= traced_start) spans.push_back(sp);
  }
  traced.ledger.query_peak_kb = summarize(peaks_kb).median;
  traced.ledger.trace_overhead =
      qps_of(traced) > 0.0 ? qps_of(plain) / qps_of(traced) - 1.0 : 0.0;
  std::cout << "traced run: " << qps_of(traced) << " q/s vs " << qps_of(plain)
            << " untraced (overhead " << traced.ledger.trace_overhead * 100.0
            << "%)\n";
  const std::size_t common = std::min(plain.balls.size(), traced.balls.size());
  const auto prefix_sum = [common](const std::vector<std::uint64_t>& v) {
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < common; ++i) s += v[i];
    return s;
  };
  std::cout << "program counts over the first " << common
            << " batches untraced/traced: balls " << prefix_sum(plain.balls)
            << "/" << prefix_sum(traced.balls) << ", tasks "
            << prefix_sum(plain.tasks) << "/" << prefix_sum(traced.tasks)
            << ", edge_ops " << prefix_sum(plain.edge_ops) << "/"
            << prefix_sum(traced.edge_ops) << '\n';
  if (common == 0 || prefix_sum(plain.balls) != prefix_sum(traced.balls) ||
      prefix_sum(plain.tasks) != prefix_sum(traced.tasks) ||
      prefix_sum(plain.edge_ops) != prefix_sum(traced.edge_ops)) {
    result.fail_check("traced run executed different program counts");
  }
  add_layer_metrics(result, traced.ledger, spans);
  if (!opt.trace_out.empty() && !sink.write_jsonl(opt.trace_out)) {
    std::cerr << "could not write " << opt.trace_out << '\n';
  }
}

}  // namespace perfbench
