// Cache admission policy A/B — LRU always-admit vs TinyLFU frequency
// gating, with cross-query root prefetch layered on top.
//
// The sharded ball cache (PR 2) admits every ball that fits its shard's
// budget: on a skewed stream that is fine, but a burst of unpopular seeds
// (a scan) flushes the hot hub balls the whole serving pipeline depends
// on, and the next popular query pays cold BFS again. TinyLFU admission
// (CacheAdmission::kTinyLFU) gates retention on estimated access
// frequency: a candidate that would evict residents must be hotter than
// every victim, so one-shot scan traffic cannot displace repeatedly-hit
// balls. Prefetch (PipelineConfig::prefetch) additionally warms the
// stage-0 balls of upcoming queries the stealing batch already knows
// about.
//
// Two streams, three configurations each:
//
//   skewed      — 70% of traffic on a popular head: the cache's home turf.
//                 Admission barely matters; root prefetch hides cold
//                 starts of the uniform tail.
//   scan-burst  — warm (hot set cycled) → scan (one pass of cold seeds,
//                 in aggregate much larger than the cache) → probe (hot
//                 set again). The probe phase's demand hit rate is the
//                 scan-resistance metric: LRU re-misses everything the
//                 scan evicted, TinyLFU kept the hot set resident. A
//                 prefetched cold ball the admission gate rejects is
//                 still served to its claim from the pinned side-table,
//                 so root prefetch never pays the BFS twice.
//
// Scores are asserted bit-identical to the serial engine in every cell —
// admission and prefetch change retention and scheduling, never numerics.
//
//   --smoke          CI mode: small sizes + hard assertions (exit 1 when
//                    TinyLFU's probe hit rate falls below always-admit's,
//                    when TinyLFU never rejected during the scan, or when
//                    any score diverges)
//   MELOPPR_SEEDS    queries in the skewed stream   (default 96; smoke 24)
//   MELOPPR_SCALE    graph-size multiplier          (default 1)
//   MELOPPR_THREADS  worker threads                 (default 4)
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_ball_cache.hpp"

namespace meloppr::bench {
namespace {

constexpr std::size_t kShards = 8;

struct AdmissionConfig {
  std::string name;
  core::CacheAdmission admission = core::CacheAdmission::kAlways;
  bool prefetch = false;  ///< stage lookahead + cross-query root prefetch
};

const std::vector<AdmissionConfig> kConfigs = {
    {"always-admit (LRU)", core::CacheAdmission::kAlways, false},
    {"TinyLFU", core::CacheAdmission::kTinyLFU, false},
    {"TinyLFU + root prefetch", core::CacheAdmission::kTinyLFU, true},
};

core::PipelineConfig pipeline_config(const AdmissionConfig& cfg,
                                     std::size_t threads) {
  core::PipelineConfig pcfg;
  pcfg.threads = threads;
  pcfg.prefetch = cfg.prefetch;
  // CPU backend here: opt out of the backend-aware throttle so the
  // prefetch rows actually exercise lookahead (the cores are idle in this
  // harness; a production CPU-only server keeps the default).
  pcfg.prefetch_throttle = false;
  return pcfg;
}

/// Bit-identical comparison against precomputed serial references.
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

struct StreamResult {
  double wall_seconds = 0.0;
  double hit_rate = 0.0;        ///< demand hit rate over the whole stream
  double probe_hit_rate = 0.0;  ///< scan-burst only: the post-scan phase
  core::ShardedBallCache::Stats cache;
  core::QueryPipeline::BatchStats batch;
  bool identical = true;
};

int run(bool smoke) {
  Rng rng = banner("cache admission — LRU vs TinyLFU vs TinyLFU+prefetch");
  graph::Graph g = build_graph(graph::PaperGraphId::kG3Pubmed, rng);

  core::MelopprConfig cfg = default_config(/*k=*/100);
  cfg.selection = core::Selection::top_ratio(0.03);
  core::Engine engine(g, cfg);

  const std::size_t threads = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("MELOPPR_THREADS", 4)));

  // --- streams -----------------------------------------------------------
  // Skewed: 70% of traffic on 12 popular seeds, like production traffic.
  const std::size_t skew_count = bench_seed_count(smoke ? 24 : 96);
  std::vector<graph::NodeId> popular;
  for (int i = 0; i < 12; ++i) {
    popular.push_back(graph::random_seed_node(g, rng));
  }
  std::vector<graph::NodeId> skewed;
  skewed.reserve(skew_count);
  for (std::size_t i = 0; i < skew_count; ++i) {
    skewed.push_back(rng.chance(0.7) ? popular[rng.below(popular.size())]
                                     : graph::random_seed_node(g, rng));
  }

  // Scan-burst: hot set cycled (warm) → one pass of distinct cold seeds
  // (scan) → hot set cycled again (probe).
  constexpr std::size_t kHot = 8;
  const std::size_t scan_len = smoke ? 20 : 48;
  std::vector<graph::NodeId> hot;
  std::unordered_set<graph::NodeId> taken;
  while (hot.size() < kHot) {
    const graph::NodeId s = graph::random_seed_node(g, rng);
    if (taken.insert(s).second) hot.push_back(s);
  }
  std::vector<graph::NodeId> scan;
  while (scan.size() < scan_len) {
    const graph::NodeId s = graph::random_seed_node(g, rng);
    if (taken.insert(s).second) scan.push_back(s);
  }
  std::vector<graph::NodeId> warm;
  for (int cycle = 0; cycle < 3; ++cycle) {
    warm.insert(warm.end(), hot.begin(), hot.end());
  }
  std::vector<graph::NodeId> probe;
  for (int cycle = 0; cycle < 2; ++cycle) {
    probe.insert(probe.end(), hot.begin(), hot.end());
  }

  // --- serial references (the bit-identity contract) ---------------------
  std::unordered_map<graph::NodeId, std::vector<ppr::ScoredNode>> reference;
  const auto remember = [&](std::span<const graph::NodeId> stream) {
    for (graph::NodeId seed : stream) {
      if (reference.find(seed) == reference.end()) {
        reference.emplace(seed, engine.query(seed).top);
      }
    }
  };
  remember(skewed);
  remember(warm);
  remember(scan);

  // --- cache sizing ------------------------------------------------------
  // Measure the hot set's resident footprint against an effectively
  // unbounded cache, then budget 1.5x of it: the hot set fits, the scan
  // (much larger in aggregate) cannot — the regime where admission policy
  // decides who survives.
  std::size_t hot_bytes = 0;
  {
    core::ShardedBallCache probe_cache(g, std::size_t{1} << 30, kShards);
    engine.set_shared_ball_cache(&probe_cache);
    core::CpuBackend backend(cfg.alpha);
    core::QueryPipeline pipeline(engine, backend,
                                 pipeline_config(kConfigs.front(), threads));
    pipeline.query_batch(warm);
    hot_bytes = probe_cache.bytes();
    engine.set_shared_ball_cache(nullptr);
  }
  const std::size_t budget =
      std::max<std::size_t>(hot_bytes + hot_bytes / 2, kShards * (64u << 10));
  std::cout << "hot-set footprint " << (hot_bytes >> 20)
            << " MiB -> cache budget " << (budget >> 20) << " MiB ("
            << kShards << " shards)\n\n";

  // --- harness -----------------------------------------------------------
  const auto serve = [&](const AdmissionConfig& acfg,
                         std::span<const std::vector<graph::NodeId>> phases,
                         std::size_t probe_phase) {
    StreamResult r;
    core::ShardedBallCache cache(g, budget, kShards, acfg.admission);
    engine.set_shared_ball_cache(&cache);
    core::CpuBackend backend(cfg.alpha);
    core::QueryPipeline pipeline(engine, backend,
                                 pipeline_config(acfg, threads));
    Timer wall;
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const core::ShardedBallCache::Stats before = cache.stats();
      core::QueryPipeline::BatchStats batch;
      const std::vector<core::QueryResult> results =
          pipeline.query_batch(phases[p], &batch);
      r.identical =
          r.identical && scores_match_serial(reference, phases[p], results);
      r.batch.prefetch_issued += batch.prefetch_issued;
      r.batch.root_prefetch_issued += batch.root_prefetch_issued;
      r.batch.prefetch_hidden_seconds += batch.prefetch_hidden_seconds;
      if (p == probe_phase) {
        const core::ShardedBallCache::Stats after = cache.stats();
        const std::size_t total = (after.hits - before.hits) +
                                  (after.misses - before.misses);
        r.probe_hit_rate =
            total == 0 ? 0.0
                       : static_cast<double>(after.hits - before.hits) /
                             static_cast<double>(total);
      }
    }
    r.wall_seconds = wall.elapsed_seconds();
    r.cache = cache.stats();
    r.hit_rate = r.cache.hit_rate();
    engine.set_shared_ball_cache(nullptr);
    return r;
  };

  // --- skewed stream -----------------------------------------------------
  TablePrinter skew_table({"configuration", "wall (s)", "q/s", "hit rate",
                           "evictions", "rejected", "root pf",
                           "BFS hidden (s)"});
  bool all_identical = true;
  for (const AdmissionConfig& acfg : kConfigs) {
    const std::vector<std::vector<graph::NodeId>> phases{skewed};
    const StreamResult r = serve(acfg, phases, /*probe_phase=*/0);
    all_identical = all_identical && r.identical;
    skew_table.add_row(
        {acfg.name, fmt_fixed(r.wall_seconds, 3),
         fmt_fixed(static_cast<double>(skew_count) / r.wall_seconds, 1),
         fmt_percent(r.hit_rate), std::to_string(r.cache.evictions),
         std::to_string(r.cache.admission_rejects),
         acfg.prefetch ? std::to_string(r.batch.root_prefetch_issued) : "-",
         acfg.prefetch ? fmt_fixed(r.batch.prefetch_hidden_seconds, 3)
                       : "-"});
  }
  std::cout << "skewed stream (" << skew_count << " queries, 70% on "
            << popular.size() << " seeds):\n"
            << skew_table.ascii() << '\n';

  // --- scan-burst stream -------------------------------------------------
  TablePrinter scan_table({"configuration", "wall (s)", "probe hit rate",
                           "overall hit rate", "evictions", "rejected"});
  const std::vector<std::vector<graph::NodeId>> phases{warm, scan, probe};
  double always_probe_rate = 0.0;
  double tinylfu_probe_rate = 0.0;
  std::size_t tinylfu_rejects = 0;
  std::size_t always_rejects = 0;
  for (const AdmissionConfig& acfg : kConfigs) {
    const StreamResult r = serve(acfg, phases, /*probe_phase=*/2);
    all_identical = all_identical && r.identical;
    if (acfg.name == kConfigs[0].name) {
      always_probe_rate = r.probe_hit_rate;
      always_rejects = r.cache.admission_rejects;
    }
    if (acfg.name == kConfigs[1].name) {
      tinylfu_probe_rate = r.probe_hit_rate;
      tinylfu_rejects = r.cache.admission_rejects;
    }
    scan_table.add_row({acfg.name, fmt_fixed(r.wall_seconds, 3),
                        fmt_percent(r.probe_hit_rate), fmt_percent(r.hit_rate),
                        std::to_string(r.cache.evictions),
                        std::to_string(r.cache.admission_rejects)});
  }
  std::cout << "scan-burst stream (warm " << warm.size() << " -> scan "
            << scan.size() << " -> probe " << probe.size() << " queries):\n"
            << scan_table.ascii() << '\n'
            << "reading: after a one-pass cold scan, LRU re-misses the hot "
               "set it evicted; TinyLFU rejected the scan balls that would "
               "have displaced hotter residents, so the probe phase stays "
               "warm — scores bit-identical throughout.\n";

  // --- loud checks (CI smoke gate) ---------------------------------------
  bool ok = true;
  const auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::cout << "CHECK FAILED: " << what << "\n";
      ok = false;
    }
  };
  // Invariants that hold at ANY parameters.
  check(all_identical,
        "scores bit-identical to serial Engine::query in every "
        "configuration and stream");
  check(always_rejects == 0, "kAlways never rejects an admission");
  if (smoke) {
    // Workload-shaped gates: the smoke sizes guarantee the scan overflows
    // the budget, so admission policy is actually exercised.
    check(tinylfu_probe_rate >= always_probe_rate,
          "TinyLFU probe hit rate >= always-admit on the scan-burst "
          "stream");
    check(tinylfu_rejects > 0,
          "TinyLFU rejected at least one admission during the scan");
  }
  std::cout << (ok ? "OK" : "FAILED") << ": cache-admission checks ("
            << (smoke ? "smoke" : "full") << " mode), probe hit rate "
            << fmt_percent(always_probe_rate) << " (LRU) vs "
            << fmt_percent(tinylfu_probe_rate) << " (TinyLFU)\n";
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
