// Per-query accounting produced by the MeLoPPR engine — the raw numbers
// behind Table II (memory), Fig. 6 (precision), and Fig. 7 (latency split).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace meloppr::core {

/// Aggregated statistics for one stage index (all balls diffused at that
/// recursion depth).
struct StageStats {
  std::size_t balls = 0;          ///< diffusions executed at this stage
  std::size_t selected = 0;       ///< next-stage nodes chosen here
  std::size_t candidates = 0;     ///< non-zero residual nodes available
  std::size_t max_ball_nodes = 0;
  std::size_t max_ball_edges = 0;
  std::uint64_t total_ball_nodes = 0;
  std::uint64_t total_ball_edges = 0;
  double bfs_seconds = 0.0;       ///< CPU-side sub-graph preparation
  double compute_seconds = 0.0;   ///< device diffusion time
  double transfer_seconds = 0.0;  ///< host↔device data movement (FPGA only)
  std::uint64_t edge_ops = 0;
  /// Ball-cache outcomes for this stage's extractions (both zero when no
  /// cache is installed). A hit means the BFS was skipped — either the ball
  /// was resident or a prefetch/concurrent extraction was joined. These are
  /// per-task attributions counted by the worker that ran the task, so they
  /// can never race a cache-wide counter reset; cache-wide rates (which
  /// fold in other queries sharing the cache, prefetch traffic, and
  /// admission decisions) come from ShardedBallCache::stats(), whose
  /// snapshot is taken as one consistent unit.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;

  /// Fault-tolerance accounting (all zero on a healthy stack).
  /// Extra dispatch attempts the backend's retry layer consumed for this
  /// stage's diffusions (BackendResult::attempts - 1 summed).
  std::size_t dispatch_retries = 0;
  /// Attempts discarded for missing the dispatch deadline.
  std::size_t deadline_misses = 0;
  /// Diffusions served by a fallback backend after the primary failed —
  /// bit-identical scores (fixed-point failover), degraded throughput.
  std::size_t failovers = 0;
  /// Balls whose diffusion (or extraction) failed past every retry and
  /// failover: their contribution is missing from the scores.
  std::size_t failed_balls = 0;
  /// Ball extractions that threw an environmental error and were retried
  /// (the engine's extraction_attempts budget).
  std::size_t extraction_faults = 0;

  /// Folds another task's increments into this stage's totals (sums, with
  /// max for the max_* fields). Schedulers use this to combine per-task
  /// StageStats deltas — in deterministic task order when parallel.
  void merge(const StageStats& other) {
    balls += other.balls;
    selected += other.selected;
    candidates += other.candidates;
    max_ball_nodes = max_ball_nodes > other.max_ball_nodes
                         ? max_ball_nodes
                         : other.max_ball_nodes;
    max_ball_edges = max_ball_edges > other.max_ball_edges
                         ? max_ball_edges
                         : other.max_ball_edges;
    total_ball_nodes += other.total_ball_nodes;
    total_ball_edges += other.total_ball_edges;
    bfs_seconds += other.bfs_seconds;
    compute_seconds += other.compute_seconds;
    transfer_seconds += other.transfer_seconds;
    edge_ops += other.edge_ops;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    dispatch_retries += other.dispatch_retries;
    deadline_misses += other.deadline_misses;
    failovers += other.failovers;
    failed_balls += other.failed_balls;
    extraction_faults += other.extraction_faults;
  }
};

/// Per-query degradation verdict derived from the stage stats.
enum class QueryOutcome : std::uint8_t {
  /// Every ball diffused on the primary path; scores are the full answer.
  kOk = 0,
  /// At least one diffusion was served by the failover backend (or burned
  /// retries). Scores are still bit-identical to the healthy fixed-point
  /// path — the degradation is throughput, not correctness.
  kDegraded,
  /// At least one ball's contribution is missing (extraction or diffusion
  /// failed past every retry and failover). Scores are a lower bound.
  kFailed,
};

[[nodiscard]] inline const char* to_string(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kOk:
      return "ok";
    case QueryOutcome::kDegraded:
      return "degraded";
    case QueryOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

struct QueryStats {
  std::vector<StageStats> stages;

  /// Graph version the query was admitted at (dynamic graphs; 0 on a
  /// static graph). Every ball served to the query reflects at least this
  /// version — the freshness stamp the serving layer reports.
  std::uint64_t graph_version = 0;

  /// Peak simultaneously-live bytes: ball + device working set + aggregator
  /// + pending next-stage lists. The "Memory (MB)" column of Table II.
  std::size_t peak_bytes = 0;

  /// Aggregator footprint at the end of the query.
  std::size_t aggregator_bytes = 0;

  /// Score-table occupancy at the end of the query (for a bounded table,
  /// ≤ its c·k capacity — the Table II memory story; for exact
  /// aggregation, the number of touched nodes).
  std::size_t aggregator_entries = 0;
  /// Min-evictions a bounded score table performed (always 0 for exact
  /// aggregation). Zero evictions certify the bounded result equals exact;
  /// with an ε admission margin (MelopprConfig::topck_epsilon) boundary
  /// challengers are dropped instead of evicting, so this count shrinks at
  /// equal capacity — the churn the hysteresis removes.
  std::size_t aggregator_evictions = 0;

  /// End-to-end response time, arrival→finalize. Under a batch scheduler
  /// the clock starts when the query was SUBMITTED (pushed into the batch
  /// or stream), not when a worker first claimed it — so scheduler
  /// queueing delay is included, which is the quantity an SLO must bound.
  /// For the serial engine, arrival and start coincide and this is plain
  /// service time.
  double total_seconds = 0.0;
  /// Arrival→first-claim wait under a batch scheduler: how long the query
  /// sat submitted before any worker started it. 0 outside batch
  /// scheduling. total_seconds - queue_seconds is the in-system (service)
  /// time, so the pre-fix service-time view stays derivable.
  double queue_seconds = 0.0;

  /// Stage tasks of this query executed by a worker other than the one that
  /// started the query — the work-stealing batch scheduler's spill count.
  /// Zero for the serial engine.
  std::size_t stolen_tasks = 0;

  [[nodiscard]] double bfs_seconds() const {
    double s = 0.0;
    for (const auto& st : stages) s += st.bfs_seconds;
    return s;
  }
  [[nodiscard]] double compute_seconds() const {
    double s = 0.0;
    for (const auto& st : stages) s += st.compute_seconds;
    return s;
  }
  [[nodiscard]] double transfer_seconds() const {
    double s = 0.0;
    for (const auto& st : stages) s += st.transfer_seconds;
    return s;
  }
  [[nodiscard]] std::uint64_t edge_ops() const {
    std::uint64_t s = 0;
    for (const auto& st : stages) s += st.edge_ops;
    return s;
  }
  [[nodiscard]] std::size_t total_balls() const {
    std::size_t s = 0;
    for (const auto& st : stages) s += st.balls;
    return s;
  }
  /// Claim→finalize time: the response time with the scheduler queue wait
  /// stripped back out (what total_seconds used to report pre-fix).
  [[nodiscard]] double service_seconds() const {
    return total_seconds > queue_seconds ? total_seconds - queue_seconds
                                         : 0.0;
  }
  /// Fraction of the query's in-system time spent in CPU-side BFS — the
  /// light-blue bars of Fig. 7. Measured against service_seconds(), not the
  /// response time, so scheduler queueing under load cannot dilute it.
  [[nodiscard]] double bfs_fraction() const {
    const double service = service_seconds();
    return service > 0.0 ? bfs_seconds() / service : 0.0;
  }
  [[nodiscard]] std::size_t cache_hits() const {
    std::size_t s = 0;
    for (const auto& st : stages) s += st.cache_hits;
    return s;
  }
  [[nodiscard]] std::size_t cache_misses() const {
    std::size_t s = 0;
    for (const auto& st : stages) s += st.cache_misses;
    return s;
  }
  /// Ball-cache hit rate over this query's extractions (0 when no cache).
  [[nodiscard]] double cache_hit_rate() const {
    const std::size_t total = cache_hits() + cache_misses();
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits()) /
                            static_cast<double>(total);
  }

  [[nodiscard]] std::size_t dispatch_retries() const {
    std::size_t s = 0;
    for (const auto& st : stages) s += st.dispatch_retries;
    return s;
  }
  [[nodiscard]] std::size_t deadline_misses() const {
    std::size_t s = 0;
    for (const auto& st : stages) s += st.deadline_misses;
    return s;
  }
  [[nodiscard]] std::size_t failovers() const {
    std::size_t s = 0;
    for (const auto& st : stages) s += st.failovers;
    return s;
  }
  [[nodiscard]] std::size_t failed_balls() const {
    std::size_t s = 0;
    for (const auto& st : stages) s += st.failed_balls;
    return s;
  }
  [[nodiscard]] std::size_t extraction_faults() const {
    std::size_t s = 0;
    for (const auto& st : stages) s += st.extraction_faults;
    return s;
  }

  /// Degradation verdict: any missing ball → kFailed; any failover or
  /// retry → kDegraded; else kOk.
  [[nodiscard]] QueryOutcome outcome() const {
    if (failed_balls() > 0) return QueryOutcome::kFailed;
    if (failovers() > 0 || dispatch_retries() > 0 || extraction_faults() > 0) {
      return QueryOutcome::kDegraded;
    }
    return QueryOutcome::kOk;
  }
};

}  // namespace meloppr::core
