// SLO-aware serving front end over the continuous-ingest scheduler.
//
// QueryPipeline::query_stream turned the stealing batch into something a
// server can feed while it runs; this layer adds the production-traffic
// policies the paper's real-time deployment story (Sec. I) needs but a
// closed batch cannot express:
//
//   * Bounded admission queue with load shedding — submit() never blocks
//     and never hangs: past queue_capacity it returns a TYPED reject
//     (RejectReason::kQueueFull) immediately, so overload degrades into
//     explicit, counted sheds instead of unbounded queueing collapse.
//   * Deadline-aware dispatch — each dispatcher pass feeds queued queries
//     into the pipeline's one seed stream until the queue is empty or
//     max_in_flight is reached; queries whose deadline has already expired
//     at dispatch are shed (ServeStatus::kShedDeadline) rather than
//     executed into a guaranteed miss.
//   * Per-tenant fair queueing — admission lands in per-tenant sub-queues
//     and dispatch round-robins across them, one query per tenant per
//     turn, so a flooding tenant delays its own tail, not everyone's.
//   * Arrival-stamped accounting — every response time reported here is
//     submit()→completion on the front end's clock (admission wait +
//     scheduler wait + service), the quantity an SLO bounds.
//
// Scores are untouched by all of it: every admitted seed runs through the
// stealing scheduler's serial-order reduction and stays bit-identical to
// Engine::query; the only queries without scores are the typed sheds.
//
// Threads: one dispatcher (feeds the pipeline's seed stream) and one
// pipeline driver (blocks inside query_stream for the front end's
// lifetime). submit() is safe from any number of producer threads;
// completions arrive on pipeline workers and are folded under one lock. If the pipeline dies (a worker threw), the error is captured, all
// waiters are released — never a hang — and drain()/shutdown() rethrow it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace meloppr::core {

struct ServingConfig {
  /// Tenant sub-queues (round-robin fairness domain). Submissions name a
  /// tenant in [0, tenants).
  std::size_t tenants = 1;
  /// Global admission-queue bound across all tenants: submissions beyond
  /// it are shed with RejectReason::kQueueFull. The queue is the ONLY
  /// unbounded-growth risk in the stack, so this is the overload valve.
  std::size_t queue_capacity = 256;
  /// Default relative deadline stamped on submissions that do not carry
  /// their own; 0 means no deadline (never shed for lateness).
  double default_deadline_seconds = 0.0;
  /// Dispatched-but-uncompleted queries the dispatcher keeps in the
  /// pipeline before waiting for completions — a hard bound: a dispatch
  /// pass stops once it is reached. 0 resolves to
  /// max(4 * pipeline threads, 16). Bounds the scheduler-side queue the
  /// same way queue_capacity bounds admission.
  std::size_t max_in_flight = 0;
  /// Seed for the per-query service-time estimate (seconds) the
  /// impossible-deadline check uses before any completion has been
  /// observed.
  double initial_service_estimate_seconds = 0.005;
  /// EWMA weight of each observed service time folded into the estimate,
  /// in [0, 1). 0 FREEZES the estimate at the initial value — what the
  /// deterministic deadline tests use.
  double service_estimate_ewma = 0.2;
  /// Shed queries whose deadline has already expired when the dispatcher
  /// reaches them (they would complete late with certainty). Off means
  /// they execute anyway and are merely counted as deadline misses.
  bool shed_expired = true;

  /// Throws std::invalid_argument on nonsense; returns *this for chaining.
  ServingConfig& validate();
};

/// Why a submission was not admitted. Admission NEVER blocks: every reject
/// is immediate and typed so callers can tell overload from misuse.
enum class RejectReason : std::uint8_t {
  kNone = 0,
  /// queue_capacity reached — the overload shed.
  kQueueFull,
  /// The requested deadline is shorter than one service time: it cannot be
  /// met even by an idle stack, so admitting it would manufacture a miss.
  kDeadlineImpossible,
  /// shutdown() has begun; no new work is accepted.
  kShuttingDown,
};

[[nodiscard]] inline const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kDeadlineImpossible:
      return "deadline_impossible";
    case RejectReason::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

/// submit()'s immediate answer.
struct Admission {
  bool admitted = false;
  RejectReason reason = RejectReason::kNone;
  /// Identifies the query in its ServedQuery when admitted.
  std::uint64_t ticket = 0;
};

enum class ServeStatus : std::uint8_t {
  kOk = 0,
  /// Deadline expired before dispatch; the query was never executed and
  /// carries no result (ServingConfig::shed_expired).
  kShedDeadline,
};

/// One finished (served or shed) query, delivered by drain().
struct ServedQuery {
  std::uint64_t ticket = 0;
  std::size_t tenant = 0;
  graph::NodeId seed = graph::kInvalidNode;
  ServeStatus status = ServeStatus::kOk;
  /// Scores + engine stats; meaningful only when status == kOk. Scores are
  /// bit-identical to Engine::query for the same seed.
  QueryResult result;
  /// submit() time on the front end's clock.
  double arrival_seconds = 0.0;
  /// submit()→completion (or →shed): the SLO-facing response time.
  double response_seconds = 0.0;
  /// Total non-service wait: admission queue + scheduler claim wait.
  double queue_seconds = 0.0;
  /// Absolute deadline on the front end's clock; 0 = none.
  double deadline_seconds = 0.0;
  /// False when a deadline existed and completion (or shed) missed it.
  bool deadline_met = true;
};

/// Counter snapshot; conservation holds at every instant:
///   submitted == admitted + rejects, and
///   admitted == completed + shed_deadline + in_flight + queued.
struct ServingStats {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_deadline = 0;
  std::size_t rejected_shutdown = 0;
  std::size_t completed = 0;      ///< served with scores
  std::size_t shed_deadline = 0;  ///< typed dispatcher-side sheds
  std::size_t deadline_misses = 0;  ///< completed but late (deadline_met false)
  std::size_t queued = 0;         ///< waiting in tenant sub-queues now
  std::size_t in_flight = 0;      ///< dispatched, not yet completed
  /// Dispatcher passes that pushed at least one query into the stream.
  std::size_t batches_formed = 0;
  /// Most queries one dispatch pass pushed.
  std::size_t max_batch_size = 0;
  /// Edge updates applied through submit_update (0 without a dynamic
  /// graph).
  std::size_t updates_applied = 0;
  /// Dynamic-graph version at the snapshot (0 without a dynamic graph).
  /// Every query admitted after this snapshot is served state at least
  /// this fresh.
  std::uint64_t graph_version = 0;
  double service_estimate_seconds = 0.0;  ///< current EWMA
  /// submit()→completion percentiles over every completed query (sheds
  /// excluded — they carry no service). Zero until the first completion.
  double response_p50_seconds = 0.0;
  double response_p99_seconds = 0.0;
  double response_p999_seconds = 0.0;
  double max_response_seconds = 0.0;
  double mean_queue_seconds = 0.0;
  /// Per-tenant admitted/completed/shed (index = tenant id).
  std::vector<std::size_t> tenant_admitted;
  std::vector<std::size_t> tenant_completed;
  std::vector<std::size_t> tenant_shed;
};

class ServingFrontEnd {
 public:
  /// Starts the dispatcher and the pipeline driver. `pipeline` must
  /// outlive this object and must not be used for other queries while the
  /// front end runs (its workers are the serving capacity).
  ServingFrontEnd(QueryPipeline& pipeline, ServingConfig config = {});
  ServingFrontEnd(const ServingFrontEnd&) = delete;
  ServingFrontEnd& operator=(const ServingFrontEnd&) = delete;
  /// Implies shutdown() (pending admitted queries are finished first), but
  /// swallows a pipeline error a prior drain()/shutdown() already threw.
  ~ServingFrontEnd();

  /// Non-blocking admission. `deadline_seconds` is relative to now: < 0
  /// takes the config default, 0 means none. Throws std::invalid_argument
  /// for a tenant out of range or a NaN deadline — that is caller misuse,
  /// not load.
  Admission submit(graph::NodeId seed, std::size_t tenant = 0,
                   double deadline_seconds = -1.0);

  /// Routes submit_update() through `dyn` — the graph the pipeline's
  /// engine/cache stack must also be bound to. Call before traffic starts;
  /// `dyn` must outlive the front end.
  void set_dynamic_graph(graph::DynamicGraph* dyn) { dynamic_ = dyn; }

  /// Applies one edge update to the bound dynamic graph and returns the
  /// new graph version. Safe from any producer thread, interleaved freely
  /// with submit(): queries admitted before the update keep their older
  /// admission stamp (and may be served either state — monotone
  /// freshness), queries admitted after are served state at least this
  /// fresh, and the bound cache invalidates exactly the balls the update
  /// touches before the version publishes. Throws std::invalid_argument
  /// when no dynamic graph is bound or the update itself is invalid
  /// (self-loop, out of range, double insert/delete) — caller misuse, not
  /// load.
  std::uint64_t submit_update(const graph::EdgeUpdate& update);

  /// Blocks until every admitted query has completed or been shed, then
  /// returns everything finished since the last drain (completion order).
  /// Rethrows the pipeline's error if it died — never hangs either way.
  std::vector<ServedQuery> drain();

  /// Stops intake (further submits reject kShuttingDown), finishes every
  /// admitted query, closes the stream, and joins both threads. Idempotent;
  /// rethrows a captured pipeline error on first call.
  void shutdown();

  [[nodiscard]] ServingStats stats() const;
  /// Pipeline-level accounting for the whole serve (valid after
  /// shutdown(): the stream-wide BatchStats, response percentiles
  /// dispatch→finalize on the stream clock).
  [[nodiscard]] const QueryPipeline::BatchStats& pipeline_stats() const {
    return pipeline_stats_;
  }
  /// Seconds since construction — the clock all stamps above use.
  [[nodiscard]] double now() const { return clock_.elapsed_seconds(); }
  [[nodiscard]] const ServingConfig& config() const { return config_; }

 private:
  struct Pending {
    std::uint64_t ticket = 0;
    std::size_t tenant = 0;
    graph::NodeId seed = graph::kInvalidNode;
    double arrival_seconds = 0.0;
    double deadline_seconds = 0.0;  ///< absolute; 0 = none
    double dispatch_seconds = 0.0;  ///< set when pushed into the stream
  };

  void dispatcher_loop();
  void pipeline_loop();
  void on_completion(std::size_t stream_index, QueryResult&& result);
  [[nodiscard]] std::size_t resolved_max_in_flight() const;

  QueryPipeline* pipeline_;
  ServingConfig config_;
  Timer clock_;
  graph::DynamicGraph* dynamic_ = nullptr;
  std::atomic<std::size_t> updates_applied_{0};

  mutable util::Mutex mu_;
  std::condition_variable cv_;  // dispatcher + drain waiters + backpressure
  std::vector<std::deque<Pending>> tenant_queues_ MELOPPR_GUARDED_BY(mu_);
  /// Σ sub-queue sizes
  std::size_t queued_ MELOPPR_GUARDED_BY(mu_) = 0;
  /// next tenant a dispatch pass starts from
  std::size_t rr_cursor_ MELOPPR_GUARDED_BY(mu_) = 0;
  /// 0 never issued
  std::uint64_t next_ticket_ MELOPPR_GUARDED_BY(mu_) = 1;
  /// Dispatched queries awaiting completion, keyed by stream index.
  std::unordered_map<std::size_t, Pending> dispatched_
      MELOPPR_GUARDED_BY(mu_);
  /// completed+shed since last drain
  std::vector<ServedQuery> finished_ MELOPPR_GUARDED_BY(mu_);
  bool shutting_down_ MELOPPR_GUARDED_BY(mu_) = false;
  bool pipeline_dead_ MELOPPR_GUARDED_BY(mu_) = false;
  std::exception_ptr pipeline_error_ MELOPPR_GUARDED_BY(mu_);
  bool pipeline_error_thrown_ MELOPPR_GUARDED_BY(mu_) = false;
  /// EWMA of observed service time
  double service_estimate_ MELOPPR_GUARDED_BY(mu_) = 0.0;

  // Counters.
  ServingStats counters_ MELOPPR_GUARDED_BY(mu_);
  Samples response_samples_ MELOPPR_GUARDED_BY(mu_);
  double queue_sum_ MELOPPR_GUARDED_BY(mu_) = 0.0;

  SeedStream stream_;
  QueryPipeline::BatchStats pipeline_stats_;
  std::thread dispatcher_;
  std::thread driver_;
};

}  // namespace meloppr::core
