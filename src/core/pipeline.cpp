#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/assert.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace meloppr::core {

std::size_t SeedStream::push(graph::NodeId seed) {
  util::MutexLock lock(mu_);
  if (closed_) {
    throw std::logic_error("SeedStream::push: stream is closed");
  }
  const std::size_t index = slots_.size();
  slots_.push_back({seed, clock_.elapsed_seconds()});
  // The wake hook runs under mu_ by contract: the draining scheduler clears
  // it under the same lock, so no invocation can outlive its frame.
  if (on_event_) on_event_();
  return index;
}

std::size_t SeedStream::push_all(std::span<const graph::NodeId> seeds) {
  util::MutexLock lock(mu_);
  if (closed_) {
    throw std::logic_error("SeedStream::push_all: stream is closed");
  }
  const std::size_t first = slots_.size();
  const double now = clock_.elapsed_seconds();
  slots_.reserve(slots_.size() + seeds.size());
  for (graph::NodeId seed : seeds) slots_.push_back({seed, now});
  if (on_event_ && !seeds.empty()) on_event_();
  return first;
}

void SeedStream::close() {
  util::MutexLock lock(mu_);
  if (closed_) return;
  closed_ = true;
  if (on_event_) on_event_();
}

bool SeedStream::closed() const {
  util::MutexLock lock(mu_);
  return closed_;
}

std::size_t SeedStream::size() const {
  util::MutexLock lock(mu_);
  return slots_.size();
}

QueryPipeline::QueryPipeline(const Engine& engine, DiffusionBackend& backend,
                             PipelineConfig config)
    : engine_(&engine),
      config_(config),
      threads_(config.resolved_threads()) {
  // Aggregators follow the engine's aggregation mode: exact maps, or
  // bounded c·k tables whose clear() keeps the fixed slots warm.
  const MelopprConfig& mc = engine.config();
  aggregators_.reserve(threads_);
  for (std::size_t w = 0; w < threads_; ++w) {
    aggregators_.push_back(make_serial_aggregator(
        mc.aggregation, mc.k, mc.topck_c, mc.topck_epsilon));
  }
  if (backend.thread_safe()) {
    shared_backend_ = &backend;
  } else {
    clones_.reserve(threads_);
    for (std::size_t w = 0; w < threads_; ++w) {
      clones_.push_back(backend.clone());
    }
  }
  workers_.reserve(threads_);
  for (std::size_t w = 0; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

QueryPipeline::~QueryPipeline() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  handoff_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void QueryPipeline::worker_loop(std::size_t worker_id) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      util::MutexLock lock(mu_);
      while (!stop_ && generation_ == seen) handoff_.wait(lock.native());
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(worker_id);  // the stealing loop catches its own exceptions
    util::MutexLock lock(mu_);
    if (--running_ == 0) finished_.notify_all();
  }
}

QueryResult QueryPipeline::query(graph::NodeId seed) {
  return std::move(query_batch(std::span<const graph::NodeId>(&seed, 1))
                       .front());
}

namespace {

/// Per-result accounting of one query_stream call: the per-query sums go
/// straight into a BatchStats, the arrival-stamped response times beside
/// it. The stream sink serializes add() with its own lock.
struct QueryTally {
  QueryPipeline::BatchStats batch;
  Samples response;
  double queue_sum = 0.0;

  void add(const QueryStats& s) {
    ++batch.queries;
    batch.executed_tasks += s.total_balls();
    batch.stolen_tasks += s.stolen_tasks;
    batch.cache_hits += s.cache_hits();
    batch.cache_misses += s.cache_misses();
    batch.demand_bfs_seconds += s.bfs_seconds();
    batch.peak_bytes = std::max(batch.peak_bytes, s.peak_bytes);
    batch.aggregator_evictions += s.aggregator_evictions;
    batch.peak_aggregator_entries =
        std::max(batch.peak_aggregator_entries, s.aggregator_entries);
    batch.dispatch_retries += s.dispatch_retries();
    batch.deadline_misses += s.deadline_misses();
    batch.failovers += s.failovers();
    batch.failed_balls += s.failed_balls();
    switch (s.outcome()) {
      case QueryOutcome::kOk:
        break;
      case QueryOutcome::kDegraded:
        ++batch.degraded_queries;
        break;
      case QueryOutcome::kFailed:
        ++batch.failed_queries;
        break;
    }
    response.add(s.total_seconds);
    queue_sum += s.queue_seconds;
  }

  /// The per-query sums plus the response-time percentiles.
  [[nodiscard]] QueryPipeline::BatchStats finish() const {
    QueryPipeline::BatchStats bs = batch;
    if (!response.empty()) {
      bs.response_p50_seconds = response.percentile(50.0);
      bs.response_p99_seconds = response.percentile(99.0);
      bs.response_p999_seconds = response.percentile(99.9);
      bs.max_response_seconds = response.max();
      bs.mean_queue_seconds = queue_sum / static_cast<double>(bs.queries);
    }
    return bs;
  }
};

/// Serving-layer counters (cache + shared-backend health) measured as
/// deltas around one stream call: snapshot at construction, fill() writes
/// current-minus-snapshot into BatchStats.
class ServingDeltas {
 public:
  ServingDeltas(ShardedBallCache* cache, DiffusionBackend* backend)
      : cache_(cache), backend_(backend) {
    if (cache_ != nullptr) {
      dedup_ = cache_->dedup_hits();
      rejects_ = cache_->admission_rejects();
    }
    // Shared-backend health (farm breaker/probe counters) is cumulative,
    // so trips/probes are deltas too; device counts are absolute state.
    if (backend_ != nullptr) health_ = backend_->dispatch_health();
  }

  void fill(QueryPipeline::BatchStats& bs) const {
    if (backend_ != nullptr) {
      const DispatchHealth health = backend_->dispatch_health();
      bs.breaker_trips = health.breaker_trips - health_.breaker_trips;
      bs.breaker_probes = health.probes - health_.probes;
      bs.devices = health.devices;
      bs.healthy_devices = health.healthy_devices;
      bs.dead_devices = health.dead_devices;
    }
    if (cache_ != nullptr) {
      bs.dedup_hits = cache_->dedup_hits() - dedup_;
      bs.cache_admission_rejects = cache_->admission_rejects() - rejects_;
    }
  }

 private:
  ShardedBallCache* cache_;
  DiffusionBackend* backend_;
  std::size_t dedup_ = 0;
  std::size_t rejects_ = 0;
  DispatchHealth health_{};
};

}  // namespace

std::vector<QueryResult> QueryPipeline::query_batch(
    std::span<const graph::NodeId> seeds, BatchStats* batch_stats) {
  SeedStream stream;
  stream.push_all(seeds);
  stream.close();
  std::vector<QueryResult> results(seeds.size());
  query_stream(
      stream,
      [&results](std::size_t index, QueryResult&& r) {
        // Stream indices are distinct: concurrent finalizes write disjoint
        // slots, no lock needed.
        results[index] = std::move(r);
      },
      batch_stats);
  return results;
}

void QueryPipeline::query_stream(SeedStream& stream,
                                 const ResultSink& on_result,
                                 BatchStats* batch_stats) {
  // One batch owns the pool: the delta snapshot, the stealing loop and the
  // stats fill all belong to this call alone.
  util::MutexLock batch_lock(batch_mu_);
  Timer wall;
  ServingDeltas deltas(engine_->shared_ball_cache(), shared_backend_);

  util::Mutex tally_mu;
  QueryTally tally;
  if (batch_stats != nullptr) {
    const ResultSink sink = [&](std::size_t index, QueryResult&& r) {
      {
        util::MutexLock lock(tally_mu);
        tally.add(r.stats);
      }
      on_result(index, std::move(r));
    };
    run_stream_batch(stream, sink);
  } else {
    run_stream_batch(stream, on_result);
  }

  if (batch_stats != nullptr) {
    *batch_stats = tally.finish();
    batch_stats->wall_seconds = wall.elapsed_seconds();
    deltas.fill(*batch_stats);
  }
}

namespace {

/// One stage task of one query in the stealing scheduler. The tree is the
/// query's task tree; outcomes stay attached to their node so the reduction
/// can replay the serial depth-first order after out-of-order execution.
struct TreeNode {
  StageTask task;
  StageOutcome out;
  std::vector<std::unique_ptr<TreeNode>> children;
};

struct BatchQuery {
  std::size_t index = 0;
  std::unique_ptr<TreeNode> root;
  /// Tasks of this query not yet executed (root counts as 1 up front).
  /// Whoever decrements it to zero reduces the query.
  std::atomic<std::size_t> remaining{1};
  std::atomic<std::size_t> stolen{0};
  /// Stamps on the stream's clock: push time and first-claim time. The
  /// difference is QueryStats::queue_seconds; arrival→finalize is the
  /// response time the scheduler reports as total_seconds.
  double arrival_seconds = 0.0;
  double claim_seconds = 0.0;
};

struct StealTask {
  BatchQuery* query = nullptr;
  TreeNode* node = nullptr;
};

struct WorkerDeque {
  util::Mutex mu;
  std::deque<StealTask> tasks MELOPPR_GUARDED_BY(mu);
};

/// Applies one query's outcomes in the exact operation order of
/// Engine::query's LIFO stack (depth-first, children in selection order) —
/// this is what makes stolen, out-of-order execution bit-identical.
void reduce_tree(const TreeNode& node, ScoreAggregator& aggregator,
                 QueryStats& stats) {
  if (!(node.task.mass > 0.0)) return;  // serial schedule skips these too
  stats.stages[node.task.stage].merge(node.out.stats);
  // A failed task (StageOutcome::failed) contributes nothing and must also
  // keep its parent's parked mass: skipping the −mass alone would leave
  // scores corrupted. Its stats (failed_balls, retries) still merge above.
  if (!node.out.failed) {
    if (node.task.stage > 0) {
      aggregator.add(node.task.root, -node.task.mass);
    }
    for (const auto& [dest, delta] : node.out.contributions) {
      aggregator.add(dest, delta);
    }
  }
  for (const auto& child : node.children) {
    reduce_tree(*child, aggregator, stats);
  }
}

std::size_t tree_bytes(const TreeNode& node) {
  std::size_t bytes = sizeof(TreeNode) +
                      vector_bytes(node.out.contributions) +
                      vector_bytes(node.out.children) +
                      vector_bytes(node.children);
  for (const auto& child : node.children) bytes += tree_bytes(*child);
  return bytes;
}

}  // namespace

void QueryPipeline::run_stream_batch(SeedStream& stream,
                                     const ResultSink& on_result) {
  std::vector<std::unique_ptr<WorkerDeque>> deques;
  deques.reserve(threads_);
  for (std::size_t w = 0; w < threads_; ++w) {
    deques.push_back(std::make_unique<WorkerDeque>());
  }

  // In-flight queries, keyed by stream index, created at claim time.
  // Ownership leaves the map at finalize, so an unbounded stream never
  // accumulates finished outcome trees; on the failure path whatever is
  // left unwinds with the map.
  util::Mutex inflight_mu;
  std::unordered_map<std::size_t, std::unique_ptr<BatchQuery>> inflight;

  std::vector<MemoryMeter> meters(threads_);
  // Per-worker transient peaks, republished after every task so a
  // finalizing worker can fold ALL workers' ball/device footprints into
  // the query's peak without reading a foreign MemoryMeter mid-flight.
  // Peaks are monotone, and every executor of a query publishes before
  // its release-decrement on `remaining`, so the sum read at finalize is
  // always ≥ the footprint while this query's tasks ran — an honest
  // upper bound, same convention as the closed batch always used.
  auto transient_peaks =
      std::make_unique<std::atomic<std::size_t>[]>(threads_);
  for (std::size_t w = 0; w < threads_; ++w) {
    transient_peaks[w].store(0, std::memory_order_relaxed);
  }

  std::atomic<std::size_t> live{0};  // known-but-unfinished tasks
  std::atomic<bool> failed{false};
  util::Mutex error_mu;
  std::exception_ptr first_error;
  // Idle workers park event-driven on this epoch: every state change a
  // parked worker could act on (task published, seed pushed, stream
  // closed, last task finished, failure) bumps the epoch under idle_mu
  // and notifies. A worker snapshots the epoch BEFORE scanning for work,
  // so a publication racing its scan flips the wait predicate — no lost
  // wakeup, and no timed polling (the 1 ms wait_for this replaces).
  util::Mutex idle_mu;
  std::condition_variable idle_cv;
  std::uint64_t wake_epoch = 0;  // guarded by idle_mu
  const auto wake_all = [&idle_mu, &idle_cv, &wake_epoch] {
    {
      util::MutexLock lock(idle_mu);
      ++wake_epoch;
    }
    idle_cv.notify_all();
  };

  // Arrivals wake parked workers through the stream's hook, which push()
  // and close() invoke under the stream lock; registering and clearing it
  // under that same lock means no invocation can outlive this frame.
  {
    util::MutexLock lock(stream.mu_);
    MELO_CHECK_MSG(stream.on_event_ == nullptr,
                   "SeedStream: already drained by another query_stream");
    stream.on_event_ = wake_all;
  }
  struct HookClear {
    SeedStream* s;
    ~HookClear() {
      util::MutexLock lock(s->mu_);
      s->on_event_ = nullptr;
    }
  } hook_clear{&stream};

  const auto finalize_query = [&](BatchQuery& q, std::size_t w) {
    ScoreAggregator& aggregator = *aggregators_[w];
    aggregator.clear();  // keeps the storage warm for the next query

    QueryResult r;
    r.stats.stages.resize(engine_->config().num_stages());
    r.stats.graph_version = q.root->task.version;
    reduce_tree(*q.root, aggregator, r.stats);
    r.top = aggregator.top(engine_->config().k);
    // Arrival-stamped attribution — the headline fix. The stream clock
    // stamps arrival at push, claim at first execution, and now: so
    // total_seconds is the arrival→finalize RESPONSE time (queueing
    // included, the quantity an SLO bounds) and queue_seconds the
    // arrival→claim wait, instead of the claim-clocked service time the
    // scheduler used to report.
    r.stats.total_seconds = stream.now() - q.arrival_seconds;
    r.stats.queue_seconds = q.claim_seconds - q.arrival_seconds;
    r.stats.stolen_tasks = q.stolen.load(std::memory_order_relaxed);
    r.stats.aggregator_bytes = aggregator.bytes();
    r.stats.aggregator_entries = aggregator.entries();
    r.stats.aggregator_evictions = aggregator.evictions();
    // Retained footprint (the outcome tree coexists with the aggregator
    // at reduction time) plus every worker's published transient peak:
    // tasks of any query may run on any worker, and summed peaks never
    // under-report the true simultaneous footprint.
    std::size_t transient = 0;
    for (std::size_t w = 0; w < threads_; ++w) {
      transient += transient_peaks[w].load(std::memory_order_relaxed);
    }
    MemoryMeter meter;
    meter.set("aggregator", aggregator.bytes());
    meter.set("outcome_tree", tree_bytes(*q.root));
    r.stats.peak_bytes = meter.peak_bytes() + transient;

    // Retire the query BEFORE delivering the result: the tree is freed
    // here, mid-stream, so a long-lived stream holds only in-flight state.
    const std::size_t index = q.index;
    std::unique_ptr<BatchQuery> owned;
    {
      util::MutexLock lock(inflight_mu);
      auto it = inflight.find(index);
      MELO_CHECK(it != inflight.end());
      owned = std::move(it->second);
      inflight.erase(it);
    }
    owned.reset();  // `q` is dangling past this point
    on_result(index, std::move(r));
  };

  const auto execute_task = [&](const StealTask& t, std::size_t w) {
    BatchQuery& q = *t.query;
    TreeNode& node = *t.node;
    if (node.task.mass > 0.0) {
      node.out = engine_->run_task(node.task, backend_for(w), meters[w]);
      meters[w].set("stage_buffers", 0);
      const std::vector<StageTask>& child_tasks = node.out.children;
      if (!child_tasks.empty()) {
        node.children.reserve(child_tasks.size());
        for (const StageTask& c : child_tasks) {
          auto child = std::make_unique<TreeNode>();
          child->task = c;
          node.children.push_back(std::move(child));
        }
        // Account the children before finishing this task so neither the
        // query's remaining count nor the batch's live count can touch
        // zero while work is still pending.
        q.remaining.fetch_add(child_tasks.size(),
                              std::memory_order_acq_rel);
        live.fetch_add(child_tasks.size(), std::memory_order_acq_rel);
        {
          // Publish in reverse selection order: this worker pops LIFO, so
          // it continues depth-first with the first-selected child while
          // thieves take from the other end (the last-selected tail).
          util::MutexLock lock(deques[w]->mu);
          for (auto it = node.children.rbegin();
               it != node.children.rend(); ++it) {
            deques[w]->tasks.push_back({&q, it->get()});
          }
        }
        wake_all();  // parked workers can steal these
      }
    }
    // Republish this worker's transient peak before the release on
    // `remaining`: whoever finalizes a query this worker touched reads a
    // peak at least as large as during this task.
    transient_peaks[w].store(meters[w].peak_bytes(),
                             std::memory_order_relaxed);
    // acq_rel: the winner of the final decrement observes every executor's
    // outcome writes (release sequence on `remaining`), so reduce_tree
    // reads fully-published nodes.
    if (q.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finalize_query(q, w);
    }
    if (live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      wake_all();  // nothing in flight: parked workers re-check exit
    }
  };

  // Every worker runs this loop once, as worker `w`; a failure is caught
  // inside, recorded in first_error and rethrown after the handoff.
  const std::function<void(std::size_t)> steal_loop = [&](std::size_t w) {
    WorkerDeque& own = *deques[w];
    for (;;) {
      if (failed.load(std::memory_order_acquire)) break;
      try {
        // Epoch snapshot BEFORE the scans: a publication/arrival landing
        // after this line bumps the epoch and defeats the wait below, so
        // scanning-then-parking can never sleep through it.
        std::uint64_t epoch;
        {
          util::MutexLock lock(idle_mu);
          epoch = wake_epoch;
        }
        StealTask task;
        bool have = false;
        {  // 1. own deque, LIFO — depth-first, newest (hottest) subtree
          util::MutexLock lock(own.mu);
          if (!own.tasks.empty()) {
            task = own.tasks.back();
            own.tasks.pop_back();
            have = true;
          }
        }
        if (!have) {  // 2. claim a fresh query root from the stream
          graph::NodeId seed = graph::kInvalidNode;
          double arrival = 0.0;
          std::size_t index = 0;
          {
            util::MutexLock lock(stream.mu_);
            if (stream.next_claim_ < stream.slots_.size()) {
              index = stream.next_claim_++;
              seed = stream.slots_[index].seed;
              arrival = stream.slots_[index].arrival_seconds;
              // Raise `live` INSIDE the claim section: an exiting worker
              // re-reads the cursor under this lock, so it can never see
              // "fully claimed" without also seeing this query in flight.
              live.fetch_add(1, std::memory_order_acq_rel);
              have = true;
            }
          }
          if (have) {
            auto fresh = std::make_unique<BatchQuery>();
            fresh->index = index;
            fresh->arrival_seconds = arrival;
            fresh->claim_seconds = stream.now();
            fresh->root = std::make_unique<TreeNode>();
            // Claim time IS admission for a stream query: the version
            // stamp (dynamic graphs) freezes here, before any extraction.
            fresh->root->task = engine_->make_root_task(seed);
            task = {fresh.get(), fresh->root.get()};
            {
              util::MutexLock lock(inflight_mu);
              inflight.emplace(index, std::move(fresh));
            }
          }
        }
        if (!have) {  // 3. steal, FIFO — victim's oldest (biggest) subtree
          for (std::size_t d = 1; d < deques.size() && !have; ++d) {
            WorkerDeque& victim = *deques[(w + d) % deques.size()];
            util::MutexLock lock(victim.mu);
            if (!victim.tasks.empty()) {
              task = victim.tasks.front();
              victim.tasks.pop_front();
              have = true;
            }
          }
          if (have) {
            task.query->stolen.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (!have) {
          // Exit only when the stream can produce no more work (closed
          // AND fully claimed) and nothing is in flight; the claim-section
          // live increment makes this two-step check race-free.
          bool exhausted;
          {
            util::MutexLock lock(stream.mu_);
            exhausted = stream.closed_ &&
                        stream.next_claim_ == stream.slots_.size();
          }
          if (exhausted && live.load(std::memory_order_acquire) == 0) break;
          // Park event-driven: a push, a task publication, close(), the
          // final task's completion, or a failure each bump the epoch.
          util::MutexLock lock(idle_mu);
          while (wake_epoch == epoch) idle_cv.wait(lock.native());
          continue;
        }
        execute_task(task, w);
      } catch (...) {
        {
          util::MutexLock lock(error_mu);
          if (first_error == nullptr) {
            first_error = std::current_exception();
          }
        }
        failed.store(true, std::memory_order_release);
        wake_all();
        break;
      }
    }
  };

  {
    util::MutexLock lock(mu_);
    job_ = &steal_loop;
    running_ = threads_;
    ++generation_;
  }
  handoff_.notify_all();
  {
    util::MutexLock lock(mu_);
    while (running_ != 0) finished_.wait(lock.native());
    job_ = nullptr;
  }

  if (first_error != nullptr) std::rethrow_exception(first_error);
  MELO_CHECK(live.load() == 0);
  {
    // Every claimed query was finalized and delivered (the failure path
    // returns above, where leftovers unwind with the map instead).
    util::MutexLock lock(inflight_mu);
    MELO_CHECK(inflight.empty());
  }
}

}  // namespace meloppr::core
