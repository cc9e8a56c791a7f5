// The traced run's per-layer ledger: what each workload collects while its
// traced phases run, and the one function that turns it into the
// per-layer metrics named in BENCHMARK.json. Every workload reports every
// name; a layer the workload does not exercise reports zero.
#pragma once

#include <cstddef>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_ball_cache.hpp"
#include "trace.hpp"

namespace perfbench {

struct LayerLedger {
  std::size_t queries = 0;  ///< succeeded queries in the traced phases
  // Front end (zero on closed-loop workloads).
  std::vector<double> submit_s;
  std::vector<double> admission_wait_s;
  std::size_t batches = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;
  // Scheduler.
  std::vector<double> claim_wait_s;
  std::vector<double> service_s;
  std::size_t tasks = 0;
  std::size_t stolen = 0;
  // Cache: deltas of ShardedBallCache::stats() across the traced phases.
  meloppr::core::ShardedBallCache::Stats cache;
  // Prefetcher and adaptive window (BatchStats sums).
  std::size_t prefetch_issued = 0;
  std::size_t prefetch_balls = 0;
  double prefetch_hidden_s = 0.0;
  double demand_bfs_s = 0.0;
  std::size_t root_reextractions = 0;
  std::size_t last_window = 0;
  // Engine / aggregator.
  std::size_t aggregator_evictions = 0;
  std::size_t peak_aggregator_entries = 0;
  double query_peak_kb = 0.0;
  // Farm health (zero for the CPU backend).
  meloppr::core::DispatchHealth health;
  // Load generator.
  std::vector<double> lag_s;
  /// Traced over untraced cost, minus one (see each workload).
  double trace_overhead = 0.0;

  /// Folds one phase's pipeline accounting into the ledger.
  void add_batch(const meloppr::core::QueryPipeline::BatchStats& b);
};

/// `after - before` for the cache counters the ledger reports.
meloppr::core::ShardedBallCache::Stats cache_delta(
    const meloppr::core::ShardedBallCache::Stats& after,
    const meloppr::core::ShardedBallCache::Stats& before);
void accumulate(meloppr::core::ShardedBallCache::Stats& into,
                const meloppr::core::ShardedBallCache::Stats& delta);

/// Emits every per-layer metric from the ledger and the recorded spans.
void add_layer_metrics(Result& result, const LayerLedger& ledger,
                       const std::vector<Span>& spans);

}  // namespace perfbench
