// Prefetch on vs off — what the serving stack's one lookahead policy buys.
//
// With PipelineConfig::prefetch on (and a shared ball cache), the pipeline
// runs stage lookahead plus cross-query root lookahead:
//
//   * Adaptive window: the root-lookahead width is derived per claim from
//     the prefetch threads' smoothed idle fraction and the EWMA of
//     recently extracted ball bytes, between QueryPipeline::
//     kRootWindowFloor and kRootWindowCeiling, and bounded by the
//     spare-budget throttle min(spare, budget/8). Idle lookahead capacity
//     widens the window; a full cache stops speculation entirely.
//   * Pinned handoff: every root-prefetched ball is held in the cache's
//     bounded pinned side-table until its seed is claimed, so an
//     admission rejection (or an eviction racing the claim) can no longer
//     force the claiming worker to re-run the BFS.
//
// Two streams:
//
//   mixed skew  — hot head cycled for warmth, then an interleave of hot
//                 repeats and distinct cold seeds under a roomy always-
//                 admit cache: hit rate is decided by lookahead coverage
//                 alone. Prefetch off vs on.
//   pressured   — the same interleave under a tight TinyLFU cache sized
//                 to ~1.5x the hot set: cold root prefetches lose their
//                 admission duels, the regime the pinned handoff exists
//                 for. One run, prefetch on.
//
// Scores are asserted bit-identical to the serial engine in every cell —
// lookahead and pinning change cache temperature, never numerics.
//
//   --smoke          CI mode: small sizes + hard assertions (exit 1 when
//                    prefetch on does not beat prefetch off on the mixed
//                    stream's stage-0 hit rate, when the pressured run
//                    re-extracts a root-prefetched ball, or when any
//                    score diverges)
//   MELOPPR_SEEDS    cold seeds in the mixed stream (default 96; smoke 48)
//   MELOPPR_SCALE    graph-size multiplier          (default 1)
//   MELOPPR_THREADS  worker threads                 (default 4)
#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_ball_cache.hpp"

namespace meloppr::bench {
namespace {

constexpr std::size_t kShards = 8;
constexpr std::size_t kHot = 8;

core::PipelineConfig pipeline_config(bool prefetch, std::size_t threads) {
  core::PipelineConfig pcfg;
  pcfg.threads = threads;
  pcfg.prefetch = prefetch;
  // CPU backend: opt out of the backend-aware throttle so lookahead runs
  // (this harness's cores are otherwise idle; a production CPU-only
  // server keeps the default).
  pcfg.prefetch_throttle = false;
  pcfg.prefetch_threads = threads;  // ample lookahead capacity
  return pcfg;
}

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
  std::size_t mixed_hits = 0;      ///< demand hits over the mixed phase
  std::size_t mixed_accesses = 0;  ///< demand accesses over the mixed phase
  /// Stage-0 (query-root) fetch outcomes over the mixed phase — the slice
  /// root prefetch exists to warm; stages >= 1 are stage lookahead's job.
  std::size_t root_hits = 0;
  std::size_t root_accesses = 0;
  core::ShardedBallCache::Stats cache;
  core::QueryPipeline::BatchStats batch;  ///< the mixed phase's accounting
  std::size_t last_window = 0;
  double idle_fraction = 0.0;
  bool identical = true;
  [[nodiscard]] double mixed_hit_rate() const {
    return mixed_accesses == 0 ? 0.0
                               : static_cast<double>(mixed_hits) /
                                     static_cast<double>(mixed_accesses);
  }
};

int run(bool smoke) {
  Rng rng = banner("prefetch on vs off (adaptive window, pinned handoff)");
  graph::Graph g = build_graph(graph::PaperGraphId::kG3Pubmed, rng);

  core::MelopprConfig cfg = default_config(/*k=*/100);
  cfg.selection = core::Selection::top_ratio(0.03);
  core::Engine engine(g, cfg);

  const std::size_t threads = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("MELOPPR_THREADS", 4)));

  // --- streams -----------------------------------------------------------
  // Hot head: kHot seeds cycled to warm the cache (and the sketch).
  std::vector<graph::NodeId> hot;
  std::unordered_set<graph::NodeId> taken;
  while (hot.size() < kHot) {
    const graph::NodeId s = graph::random_seed_node(g, rng);
    if (taken.insert(s).second) hot.push_back(s);
  }
  std::vector<graph::NodeId> warm;
  for (int cycle = 0; cycle < 3; ++cycle) {
    warm.insert(warm.end(), hot.begin(), hot.end());
  }
  // Mixed phase: distinct cold seeds interleaved 1:1 with hot repeats —
  // the cold half's hit rate is pure lookahead coverage.
  const std::size_t cold_count = bench_seed_count(smoke ? 48 : 96);
  std::vector<graph::NodeId> mixed;
  mixed.reserve(2 * cold_count);
  std::size_t cold_added = 0;
  while (cold_added < cold_count) {
    const graph::NodeId s = graph::random_seed_node(g, rng);
    if (!taken.insert(s).second) continue;
    mixed.push_back(s);
    mixed.push_back(hot[cold_added % hot.size()]);
    ++cold_added;
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
  remember(warm);
  remember(mixed);

  // --- cache sizing ------------------------------------------------------
  std::size_t hot_bytes = 0;
  std::size_t all_bytes = 0;
  {
    core::ShardedBallCache probe(g, std::size_t{1} << 30, kShards);
    engine.set_shared_ball_cache(&probe);
    core::CpuBackend backend(cfg.alpha);
    core::QueryPipeline pipeline(engine, backend,
                                 pipeline_config(/*prefetch=*/false, threads));
    pipeline.query_batch(warm);
    hot_bytes = probe.bytes();
    pipeline.query_batch(mixed);
    all_bytes = probe.bytes();
    engine.set_shared_ball_cache(nullptr);
  }
  // Roomy: everything fits (hit rate isolates lookahead coverage).
  const std::size_t roomy = 2 * all_bytes + (kShards << 16);
  // Tight: ~1.5x the hot set — cold admissions must duel hot residents.
  const std::size_t tight =
      std::max<std::size_t>(hot_bytes + hot_bytes / 2, kShards * (32u << 10));
  std::cout << "hot set " << (hot_bytes >> 10) << " KiB, full stream "
            << (all_bytes >> 10) << " KiB -> roomy budget " << (roomy >> 10)
            << " KiB, tight budget " << (tight >> 10) << " KiB (" << kShards
            << " shards)\n\n";

  // --- harness -----------------------------------------------------------
  const auto serve = [&](bool prefetch, std::size_t budget,
                         core::CacheAdmission admission) {
    StreamResult r;
    core::ShardedBallCache cache(g, budget, kShards, admission);
    engine.set_shared_ball_cache(&cache);
    core::CpuBackend backend(cfg.alpha);
    core::QueryPipeline pipeline(engine, backend,
                                 pipeline_config(prefetch, threads));
    Timer wall;
    core::QueryPipeline::BatchStats batch;
    const std::vector<core::QueryResult> warm_results =
        pipeline.query_batch(warm, &batch);
    r.identical = scores_match_serial(reference, warm, warm_results);

    const core::ShardedBallCache::Stats before = cache.stats();
    const std::vector<core::QueryResult> results =
        pipeline.query_batch(mixed, &batch);
    r.wall_seconds = wall.elapsed_seconds();
    const core::ShardedBallCache::Stats after = cache.stats();
    r.identical =
        r.identical && scores_match_serial(reference, mixed, results);
    r.mixed_hits = after.hits - before.hits;
    r.mixed_accesses = r.mixed_hits + (after.misses - before.misses);
    for (const core::QueryResult& qr : results) {
      r.root_hits += qr.stats.stages.front().cache_hits;
      r.root_accesses += qr.stats.stages.front().cache_hits +
                         qr.stats.stages.front().cache_misses;
    }
    r.batch = batch;  // the mixed phase's accounting (last assignment wins)
    r.cache = cache.stats();
    r.last_window = batch.last_root_prefetch_window;
    r.idle_fraction = batch.prefetch_idle_fraction;
    engine.set_shared_ball_cache(nullptr);
    return r;
  };

  // --- mixed skew stream: prefetch off vs on -----------------------------
  // Interleaved repetitions: whether a cold claim's root prefetch STARTED
  // before the claim is scheduler jitter worth a query or two per run, so
  // the comparison aggregates hit COUNTS across the alternating runs.
  const std::vector<std::pair<const char*, bool>> configs = {
      {"prefetch off", false},
      {"prefetch on", true},
  };
  const std::size_t reps = smoke ? 5 : 3;
  TablePrinter mixed_table({"configuration", "wall (s)", "q/s",
                            "mixed hit rate", "root hit rate", "root pf",
                            "last window", "pf idle", "BFS hidden (s)"});
  std::vector<StreamResult> totals(configs.size());
  bool all_identical = true;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t cidx = 0; cidx < configs.size(); ++cidx) {
      const StreamResult r = serve(configs[cidx].second, roomy,
                                   core::CacheAdmission::kAlways);
      all_identical = all_identical && r.identical;
      StreamResult& t = totals[cidx];
      t.mixed_hits += r.mixed_hits;
      t.mixed_accesses += r.mixed_accesses;
      t.root_hits += r.root_hits;
      t.root_accesses += r.root_accesses;
      t.wall_seconds += r.wall_seconds;
      t.batch.root_prefetch_issued += r.batch.root_prefetch_issued;
      t.batch.prefetch_hidden_seconds += r.batch.prefetch_hidden_seconds;
      t.last_window = r.last_window;
      t.idle_fraction = r.idle_fraction;
    }
  }
  const auto root_rate = [&](const StreamResult& t) {
    return t.root_accesses == 0 ? 0.0
                                : static_cast<double>(t.root_hits) /
                                      static_cast<double>(t.root_accesses);
  };
  const double runs = static_cast<double>(reps);
  for (std::size_t cidx = 0; cidx < configs.size(); ++cidx) {
    const StreamResult& t = totals[cidx];
    mixed_table.add_row(
        {configs[cidx].first, fmt_fixed(t.wall_seconds / runs, 3),
         fmt_fixed(runs * static_cast<double>(mixed.size()) / t.wall_seconds,
                   1),
         fmt_percent(t.mixed_hit_rate()), fmt_percent(root_rate(t)),
         std::to_string(t.batch.root_prefetch_issued / reps),
         std::to_string(t.last_window), fmt_percent(t.idle_fraction),
         fmt_fixed(t.batch.prefetch_hidden_seconds / runs, 3)});
  }
  std::cout << "mixed skew stream (" << mixed.size() << " queries, "
            << "1:1 cold:hot, roomy always-admit cache, mean of " << reps
            << " interleaved reps):\n"
            << mixed_table.ascii() << '\n';
  const double off_root_rate = root_rate(totals[0]);
  const double on_root_rate = root_rate(totals[1]);

  // --- pressured stream: the pinned handoff under admission pressure -----
  const StreamResult pressured =
      serve(/*prefetch=*/true, tight, core::CacheAdmission::kTinyLFU);
  all_identical = all_identical && pressured.identical;
  TablePrinter pin_table({"configuration", "wall (s)", "mixed hit rate",
                          "root pf", "rejected", "pins", "pin hits",
                          "re-extracted"});
  pin_table.add_row({"prefetch on", fmt_fixed(pressured.wall_seconds, 3),
                     fmt_percent(pressured.mixed_hit_rate()),
                     std::to_string(pressured.batch.root_prefetch_issued),
                     std::to_string(pressured.cache.admission_rejects),
                     std::to_string(pressured.cache.pins_installed),
                     std::to_string(pressured.cache.pin_hits),
                     std::to_string(pressured.cache.root_reextractions)});
  std::cout << "pressured stream (tight TinyLFU cache, ~1.5x hot set):\n"
            << pin_table.ascii() << '\n'
            << "reading: root lookahead warms the stage-0 balls of cold "
               "seeds before their claim (idle lookahead widens the "
               "window, a full cache closes it); pinning makes every "
               "root-prefetch BFS serve its claim even when admission "
               "rejected retention — scores bit-identical throughout.\n";

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
  check(pressured.cache.root_reextractions == 0,
        "pinned handoff leaves zero root-prefetched balls re-extracted "
        "by claiming workers");
  if (smoke) {
    // Workload-shaped gate for the CI sizes. Root prefetch warms the
    // stage-0 balls, so the gate compares stage-0 hit rates summed over
    // the interleaved reps.
    check(on_root_rate > off_root_rate,
          "prefetch on beats prefetch off on the mixed skew stream's "
          "stage-0 hit rate");
  }
  std::cout << (ok ? "OK" : "FAILED") << ": adaptive-prefetch checks ("
            << (smoke ? "smoke" : "full") << " mode), stage-0 hit rate "
            << fmt_percent(off_root_rate) << " (prefetch off) vs "
            << fmt_percent(on_root_rate)
            << " (prefetch on); pressured run re-extractions "
            << pressured.cache.root_reextractions << " ("
            << pressured.cache.pin_hits << " pin hits)\n";
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
