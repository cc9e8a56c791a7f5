// Concurrent query execution over the stage scheduler.
//
// The paper's linear decomposition (Eq. 6/8) makes every same-stage
// diffusion independent — its stated future work (Sec. VI-C) is running
// them in parallel. The engine's scheduler materializes exactly that
// independence as StageTasks; QueryPipeline adds the thread pool that
// exploits it with ONE scheduler, the work-stealing stream:
//
//   query_stream(stream) — continuous ingest: workers drain a SeedStream
//                        that other threads may still be pushing into.
//                        Every query's per-stage tasks go into per-worker
//                        deques and idle workers steal from the tails of
//                        busy ones, so one query with a huge stage-2
//                        fan-out cannot idle the pool. Fresh seeds are
//                        claimed the moment they arrive (idle workers park
//                        event-driven on stream arrival), results are
//                        delivered through a sink as each query finalizes,
//                        and per-query times are arrival-stamped:
//                        total_seconds is arrival→finalize response time,
//                        queue_seconds the arrival→claim wait. The serving
//                        front end (core/serving.hpp) builds its admission
//                        queue, deadline-aware dispatch, and tenant fair
//                        queueing on top of this call.
//   query_batch(seeds) — the same scheduler over a pre-filled, closed
//                        stream, at any thread count and batch size.
//   query(seed)        — a one-seed batch.
//
// One batch owns the pool: query_stream calls on one pipeline run one at a
// time, and each batch hands its stealing loop to every persistent worker
// exactly once. Concurrent callers therefore queue behind each other, and
// each gets exactly its own BatchStats.
//
// Each query is reduced by one thread replaying the serial depth-first
// order into that worker's serial aggregator, so every pipeline result is
// bit-identical to Engine::query at any thread count, in both aggregation
// modes (MelopprConfig::aggregation): an exact map, or the bounded c·k
// TopCK arena (the paper's BRAM memory envelope with the serial table's
// exact semantics).
//
// Host/device overlap: when the engine carries a ShardedBallCache, the
// pipeline runs a stage-lookahead prefetcher — the moment a task's
// children are selected, dedicated host threads extract the balls of the
// siblings the worker does not dive into next while the current stage's
// diffusions still occupy the backend. This is the Fig. 4 PS/PL overlap
// the paper leaves serial: CPU-side BFS, the end-to-end bottleneck of
// Fig. 7, hides behind device time instead of serializing in front of it.
// Prefetch never affects scores; a missed prefetch just means the demand
// fetch pays the BFS itself.
//
// Farm-wait metering: with a shared offloading backend, lookahead pauses
// while it reports zero active dispatches — an idle farm means no worker is
// blocked device-side, so the host's cores belong to the demand path and
// extra BFS threads would oversubscribe them. It resumes the moment a
// dispatch enters the farm.
//
// Backend policy: a thread_safe() backend (CpuBackend, FpgaFarm) is shared
// by all workers — the farm then receives genuinely concurrent dispatches,
// its devices filling with independent same-stage balls. A non-thread-safe
// backend (FpgaBackend with its cycle counters) is clone()d once per
// worker.
//
// Memory accounting stays honest under concurrency: every worker meters
// its own transient footprints (ball + device working set), and a query's
// peak sums every worker's published peak — an upper bound on the true
// simultaneous peak, never an under-report. The peak story becomes
// "T balls at a time + outcome tree + aggregator" instead of one ball.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/prefetcher.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace meloppr::core {

/// A growable, lock-protected seed stream — the input of the pipeline's
/// one scheduler. Seeds may be pushed from any thread WHILE a
/// QueryPipeline::query_stream call is draining the stream: workers claim
/// fresh roots in push order the moment they arrive, and idle workers park
/// event-driven until a push, a task publication, or close() wakes them. Each push stamps the seed's arrival time on the
/// stream's own monotonic clock; that stamp is what makes
/// QueryStats::total_seconds an arrival→finalize response time (and
/// queue_seconds the arrival→claim wait) instead of the claim-clocked
/// service time the scheduler used to report.
///
/// A stream is single-use: fill/close it, hand it to exactly one
/// query_stream call (pushes may continue while that call runs), and
/// discard it afterwards. close() is the end-of-stream marker — a draining
/// scheduler finishes every pushed seed and returns.
class SeedStream {
 public:
  SeedStream() = default;
  SeedStream(const SeedStream&) = delete;
  SeedStream& operator=(const SeedStream&) = delete;

  /// Appends one seed; thread-safe against concurrent pushes and a running
  /// query_stream. Returns the seed's stream index (results are delivered
  /// with it). Throws std::logic_error after close().
  std::size_t push(graph::NodeId seed);

  /// Bulk push; returns the index of the first appended seed.
  std::size_t push_all(std::span<const graph::NodeId> seeds);

  /// Marks the end of the stream: no further pushes are accepted, and a
  /// draining query_stream returns once every pushed seed has finished.
  /// Idempotent.
  void close();

  [[nodiscard]] bool closed() const;
  /// Seeds pushed so far.
  [[nodiscard]] std::size_t size() const;
  /// Seconds since construction — the arrival clock every stamp uses.
  [[nodiscard]] double now() const { return clock_.elapsed_seconds(); }

 private:
  friend class QueryPipeline;

  struct Slot {
    graph::NodeId seed = graph::kInvalidNode;
    double arrival_seconds = 0.0;  ///< push time on the stream clock
  };

  mutable util::Mutex mu_;
  std::vector<Slot> slots_ MELOPPR_GUARDED_BY(mu_);
  /// Scheduler claim cursor.
  std::size_t next_claim_ MELOPPR_GUARDED_BY(mu_) = 0;
  bool closed_ MELOPPR_GUARDED_BY(mu_) = false;
  /// Scheduler wake hook, registered by the draining query_stream call and
  /// cleared before it returns; invoked (under mu_) on push and close so
  /// parked workers never poll for arrivals.
  std::function<void()> on_event_ MELOPPR_GUARDED_BY(mu_);
  Timer clock_;
};

class QueryPipeline {
 public:
  /// Batch-level accounting for one query_batch/query_stream call: what
  /// the serving layer (cache + prefetcher + stealing) did for the whole
  /// stream. Cache/prefetch deltas are measured around the call while it
  /// owns the pool, so they are this batch's alone; only a cache shared
  /// with another pipeline folds that pipeline's cache traffic in.
  struct BatchStats {
    std::size_t queries = 0;
    double wall_seconds = 0.0;
    std::size_t executed_tasks = 0;  ///< stage tasks (balls) run
    std::size_t stolen_tasks = 0;    ///< tasks executed off their home worker
    std::size_t cache_hits = 0;      ///< demand hits (incl. dedup joins)
    std::size_t cache_misses = 0;
    std::size_t dedup_hits = 0;      ///< joins of an in-flight extraction
    std::size_t prefetch_issued = 0;
    std::size_t prefetched_balls = 0;  ///< lookahead BFS actually performed
    /// Always 0: the pipeline has no cross-query root lookahead, so no
    /// root-prefetched ball is ever re-extracted and no root window exists.
    /// Both fields stay only because the repo benchmark (perfbench) still
    /// reads them; they go with its next revision.
    std::size_t root_reextractions = 0;
    std::size_t last_root_prefetch_window = 0;
    /// Balls the cache served but declined to retain because a resident
    /// victim was estimated hotter (CacheAdmission::kTinyLFU only).
    std::size_t cache_admission_rejects = 0;
    double prefetch_hidden_seconds = 0.0;  ///< BFS time moved off demand path
    double demand_bfs_seconds = 0.0;       ///< BFS time still paid by workers
    /// Largest per-query peak_bytes in the batch (upper bound: every
    /// query's peak folds in all workers' transient ball/device
    /// footprints, since tasks of any query may run on any worker).
    std::size_t peak_bytes = 0;
    /// Σ bounded-table min-evictions across the batch (0 in exact mode).
    std::size_t aggregator_evictions = 0;
    /// Largest per-query score-table occupancy — in bounded mode never
    /// exceeds c·k, the paper's BRAM envelope per in-flight query.
    std::size_t peak_aggregator_entries = 0;

    /// Fault-tolerance accounting (all zero on a healthy stack). Per-query
    /// sums come from QueryStats; breaker/probe/device figures are the
    /// shared backend's dispatch_health() — trips/probes as deltas around
    /// the batch, device counts as the absolute state at batch end (zeros
    /// when the backend is per-worker-cloned and has no shared health).
    std::size_t dispatch_retries = 0;  ///< extra attempts the retry layer spent
    std::size_t deadline_misses = 0;   ///< attempts discarded for lateness
    std::size_t failovers = 0;         ///< diffusions served by the fallback
    std::size_t failed_balls = 0;      ///< balls missing from scores entirely
    std::size_t degraded_queries = 0;  ///< outcome() == kDegraded
    std::size_t failed_queries = 0;    ///< outcome() == kFailed
    /// Prefetch-worker extractions that threw (worker survived and kept
    /// draining; the demand path re-attempts the ball itself).
    std::size_t prefetch_failures = 0;
    std::size_t breaker_trips = 0;     ///< closed→open transitions this batch
    std::size_t breaker_probes = 0;    ///< half-open probes this batch
    std::size_t devices = 0;           ///< farm size at batch end
    std::size_t healthy_devices = 0;   ///< breaker-closed at batch end
    std::size_t dead_devices = 0;      ///< sticky-dead at batch end

    /// Arrival-stamped response-time distribution (seconds) over the
    /// batch: percentiles of QueryStats::total_seconds, which is
    /// arrival→finalize — the SLO-facing quantity,
    /// queueing delay included. All zero for an empty batch.
    double response_p50_seconds = 0.0;
    double response_p99_seconds = 0.0;
    double response_p999_seconds = 0.0;
    double max_response_seconds = 0.0;
    /// Mean arrival→claim wait (QueryStats::queue_seconds) — how much of
    /// the response time was scheduler queueing rather than service.
    double mean_queue_seconds = 0.0;

    [[nodiscard]] double cache_hit_rate() const {
      const std::size_t total = cache_hits + cache_misses;
      return total == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(total);
    }
  };

  /// Spawns the worker pool (prefetch threads spawn lazily, see
  /// prefetcher()). `engine` and `backend` must outlive the pipeline.
  QueryPipeline(const Engine& engine, DiffusionBackend& backend,
                PipelineConfig config = {});
  QueryPipeline(const QueryPipeline&) = delete;
  QueryPipeline& operator=(const QueryPipeline&) = delete;
  ~QueryPipeline();

  /// One query as a one-seed batch: its stage tasks spread across the
  /// pool by stealing; scores are bit-identical to Engine::query.
  QueryResult query(graph::NodeId seed);

  /// Many queries, concurrently: `seeds` become a pre-filled, closed
  /// SeedStream drained by query_stream, so every seed arrives at
  /// submission (total_seconds spans submission→finalize, queue_seconds
  /// the wait behind earlier seeds). Scores are bit-identical to
  /// Engine::query at any thread count. Results are positionally aligned
  /// with `seeds`; `batch_stats` (optional) receives the serving-layer
  /// accounting.
  std::vector<QueryResult> query_batch(std::span<const graph::NodeId> seeds,
                                       BatchStats* batch_stats = nullptr);

  /// Delivers one finished query: the seed's stream index and its result.
  /// Invoked on a worker thread; implementations must be thread-safe
  /// against each other and must not re-enter the pipeline.
  using ResultSink =
      std::function<void(std::size_t stream_index, QueryResult&& result)>;

  /// Continuous-ingest batch: drains `stream`, claiming seeds as they
  /// arrive (pushes are allowed while this call runs) and blocking until
  /// the stream is closed and every pushed seed finished. A concurrent
  /// call on the same pipeline waits until this one returns. Scores for every
  /// seed are bit-identical to Engine::query regardless
  /// of when it was injected; QueryStats::total_seconds is arrival→finalize
  /// on the stream's clock and queue_seconds the arrival→claim wait. The
  /// first task exception is rethrown after the workers stop; seeds not yet
  /// finished at that point deliver no result.
  void query_stream(SeedStream& stream, const ResultSink& on_result,
                    BatchStats* batch_stats = nullptr);

  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] const PipelineConfig& config() const { return config_; }
  [[nodiscard]] const Engine& engine() const { return *engine_; }

  /// The stage-lookahead prefetcher. Created lazily by the first batch
  /// that finds a ShardedBallCache on the engine (threads are pointless
  /// without one), so this is nullptr until then — and permanently when
  /// config.prefetch is off or the backend-aware throttle suppresses
  /// lookahead (config.prefetch_throttle with a backend that computes on
  /// the host's own cores).
  [[nodiscard]] const BallPrefetcher* prefetcher() const {
    return prefetcher_.get();
  }

 private:
  /// Runs each handed-off batch loop once per generation, as worker
  /// `worker_id`, until the destructor stops the pool.
  void worker_loop(std::size_t worker_id);

  /// The work-stealing scheduler over a (possibly still growing) seed
  /// stream — every query runs through here. Results are
  /// delivered through `on_result` as each query finalizes; serving-layer
  /// deltas are taken by the caller around this call. `lookahead` is the
  /// cache activate_lookahead() returned for this batch (nullptr: no
  /// lookahead).
  void run_stream_batch(SeedStream& stream, const ResultSink& on_result,
                        ShardedBallCache* lookahead)
      MELOPPR_REQUIRES(batch_mu_);

  [[nodiscard]] DiffusionBackend& backend_for(std::size_t worker_id) {
    return shared_backend_ != nullptr ? *shared_backend_
                                      : *clones_[worker_id];
  }

  /// Returns the cache to prefetch into when lookahead is active —
  /// config.prefetch on AND a shared cache installed — spawning the
  /// prefetch threads on first activation; nullptr otherwise.
  ShardedBallCache* activate_lookahead() MELOPPR_REQUIRES(batch_mu_);

  const Engine* engine_;
  PipelineConfig config_;
  std::size_t threads_;
  /// Whether the backend runs diffusions off the host (farm/device) — the
  /// signal the backend-aware prefetch throttle keys on.
  bool backend_offloads_ = false;

  /// Exactly one of these is used: the shared thread-safe backend, or one
  /// clone per worker.
  DiffusionBackend* shared_backend_ = nullptr;
  std::vector<std::unique_ptr<DiffusionBackend>> clones_;

  /// Held by query_stream for its whole body: one batch owns the workers,
  /// the prefetcher and the aggregators at a time.
  util::Mutex batch_mu_;
  std::unique_ptr<BallPrefetcher> prefetcher_;
  /// One serial aggregator per worker, built eagerly and cleared before
  /// each reduction so its storage stays warm across queries. Only worker
  /// w touches aggregators_[w].
  std::vector<std::unique_ptr<ScoreAggregator>> aggregators_;

  std::vector<std::thread> workers_;
  /// Batch handoff: run_stream_batch publishes its loop in job_, bumps
  /// generation_ and waits until running_ drops back to zero.
  util::Mutex mu_;
  std::condition_variable handoff_;  ///< new generation or stop_
  std::condition_variable finished_;  ///< running_ reached zero
  const std::function<void(std::size_t)>* job_ MELOPPR_GUARDED_BY(mu_) =
      nullptr;
  std::uint64_t generation_ MELOPPR_GUARDED_BY(mu_) = 0;
  std::size_t running_ MELOPPR_GUARDED_BY(mu_) = 0;
  bool stop_ MELOPPR_GUARDED_BY(mu_) = false;
};

}  // namespace meloppr::core
