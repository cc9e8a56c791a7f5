#include "core/serving.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"

namespace meloppr::core {

ServingConfig& ServingConfig::validate() {
  if (tenants == 0) {
    throw std::invalid_argument("ServingConfig: tenants must be >= 1");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("ServingConfig: queue_capacity must be >= 1");
  }
  if (max_batch == 0) {
    throw std::invalid_argument("ServingConfig: max_batch must be >= 1");
  }
  if (batch_budget_seconds < 0.0) {
    throw std::invalid_argument(
        "ServingConfig: batch_budget_seconds must be >= 0");
  }
  if (default_deadline_seconds < 0.0) {
    throw std::invalid_argument(
        "ServingConfig: default_deadline_seconds must be >= 0");
  }
  if (!(initial_service_estimate_seconds > 0.0)) {
    throw std::invalid_argument(
        "ServingConfig: initial_service_estimate_seconds must be > 0");
  }
  if (service_estimate_ewma < 0.0 || service_estimate_ewma >= 1.0) {
    throw std::invalid_argument(
        "ServingConfig: service_estimate_ewma must be in [0, 1)");
  }
  return *this;
}

ServingFrontEnd::ServingFrontEnd(QueryPipeline& pipeline, ServingConfig config)
    : pipeline_(&pipeline), config_(config) {
  config_.validate();
  tenant_queues_.resize(config_.tenants);
  counters_.tenant_admitted.assign(config_.tenants, 0);
  counters_.tenant_completed.assign(config_.tenants, 0);
  counters_.tenant_shed.assign(config_.tenants, 0);
  service_estimate_ = config_.initial_service_estimate_seconds;
  // Driver first: the stream must have its consumer before the dispatcher
  // can feed it (ordering is not load-bearing — pushes before the drain
  // registers are claimed on registration — but it keeps startup obvious).
  driver_ = std::thread([this] { pipeline_loop(); });
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ServingFrontEnd::~ServingFrontEnd() {
  try {
    shutdown();
  } catch (...) {
    // A pipeline error surfaces through drain()/shutdown(); the destructor
    // must not throw while delivering the same one again.
  }
}

std::size_t ServingFrontEnd::resolved_max_in_flight() const {
  if (config_.max_in_flight != 0) return config_.max_in_flight;
  return std::max<std::size_t>(4 * pipeline_->threads(), 16);
}

Admission ServingFrontEnd::submit(graph::NodeId seed, std::size_t tenant,
                                  double deadline_seconds) {
  if (tenant >= config_.tenants) {
    throw std::invalid_argument("ServingFrontEnd::submit: tenant out of range");
  }
  util::MutexLock lock(mu_);
  ++counters_.submitted;
  if (shutting_down_ || pipeline_dead_) {
    ++counters_.rejected_shutdown;
    return {false, RejectReason::kShuttingDown, 0};
  }
  const double rel = deadline_seconds < 0.0 ? config_.default_deadline_seconds
                                            : deadline_seconds;
  if (rel > 0.0 && rel < service_estimate_) {
    // Shorter than one bare service time: a guaranteed miss. Rejecting it
    // now is cheaper for everyone than executing it into lateness.
    ++counters_.rejected_deadline;
    return {false, RejectReason::kDeadlineImpossible, 0};
  }
  if (queued_ >= config_.queue_capacity) {
    ++counters_.rejected_queue_full;
    return {false, RejectReason::kQueueFull, 0};
  }
  Pending p;
  p.ticket = next_ticket_++;
  p.tenant = tenant;
  p.seed = seed;
  p.arrival_seconds = clock_.elapsed_seconds();
  p.deadline_seconds = rel > 0.0 ? p.arrival_seconds + rel : 0.0;
  const std::uint64_t ticket = p.ticket;
  tenant_queues_[tenant].push_back(std::move(p));
  ++queued_;
  ++counters_.admitted;
  ++counters_.tenant_admitted[tenant];
  cv_.notify_all();  // the dispatcher may be parked on an empty queue
  return {true, RejectReason::kNone, ticket};
}

void ServingFrontEnd::dispatcher_loop() {
  const std::size_t max_in_flight = resolved_max_in_flight();
  util::MutexLock lock(mu_);
  for (;;) {
    // Explicit wait loop (not a predicate lambda): the thread-safety
    // analysis checks this function's guarded accesses, but cannot see
    // into a lambda body.
    while (!(pipeline_dead_ ||
             (queued_ > 0 && dispatched_.size() < max_in_flight) ||
             (shutting_down_ && queued_ == 0))) {
      cv_.wait(lock.native());
    }
    if (pipeline_dead_) break;
    if (shutting_down_ && queued_ == 0) break;

    // Form one batch: round-robin one query per tenant per pass (a
    // flooding tenant delays itself, not the others), cut by the latency
    // budget — Σ service estimates, never count — then by max_batch and
    // by the in-flight room left, so max_in_flight is a hard bound.
    std::vector<Pending> batch;
    while (queued_ > 0 && batch.size() < config_.max_batch &&
           dispatched_.size() + batch.size() < max_in_flight) {
      if (!batch.empty() && config_.batch_budget_seconds > 0.0 &&
          static_cast<double>(batch.size() + 1) * service_estimate_ >
              config_.batch_budget_seconds) {
        break;  // adding one more would overrun the budget
      }
      std::size_t t = rr_cursor_;
      for (std::size_t step = 0; step < tenant_queues_.size(); ++step) {
        const std::size_t cand = (rr_cursor_ + step) % tenant_queues_.size();
        if (!tenant_queues_[cand].empty()) {
          t = cand;
          break;
        }
      }
      Pending p = std::move(tenant_queues_[t].front());
      tenant_queues_[t].pop_front();
      --queued_;
      rr_cursor_ = (t + 1) % tenant_queues_.size();
      const double now_s = clock_.elapsed_seconds();
      if (config_.shed_expired && p.deadline_seconds > 0.0 &&
          now_s > p.deadline_seconds) {
        // Already late before dispatch: executing it cannot help anyone.
        // Typed, counted shed — no result, but a full ServedQuery record.
        ServedQuery shed;
        shed.ticket = p.ticket;
        shed.tenant = p.tenant;
        shed.seed = p.seed;
        shed.status = ServeStatus::kShedDeadline;
        shed.arrival_seconds = p.arrival_seconds;
        shed.response_seconds = now_s - p.arrival_seconds;
        shed.queue_seconds = shed.response_seconds;
        shed.deadline_seconds = p.deadline_seconds;
        shed.deadline_met = false;
        ++counters_.shed_deadline;
        ++counters_.tenant_shed[shed.tenant];
        finished_.push_back(std::move(shed));
        continue;  // consumes neither a batch slot nor budget
      }
      batch.push_back(std::move(p));
    }

    if (!batch.empty()) {
      ++counters_.batches_formed;
      counters_.max_batch_size =
          std::max(counters_.max_batch_size, batch.size());
      const double dispatch_s = clock_.elapsed_seconds();
      // Push + register under mu_: the completion sink also locks mu_, so
      // a worker finishing the seed can never look it up before it exists.
      for (Pending& p : batch) {
        p.dispatch_seconds = dispatch_s;
        const std::size_t index = stream_.push(p.seed);
        dispatched_.emplace(index, std::move(p));
      }
    }
    cv_.notify_all();  // drain waiters may have sheds to collect
  }
  // End of intake: close the stream so query_stream drains and returns.
  stream_.close();
  lock.unlock();
  cv_.notify_all();
}

void ServingFrontEnd::pipeline_loop() {
  try {
    pipeline_->query_stream(
        stream_,
        [this](std::size_t index, QueryResult&& result) {
          on_completion(index, std::move(result));
        },
        &pipeline_stats_);
  } catch (...) {
    util::MutexLock lock(mu_);
    pipeline_dead_ = true;
    pipeline_error_ = std::current_exception();
  }
  cv_.notify_all();  // release drain waiters and the dispatcher — no hangs
}

void ServingFrontEnd::on_completion(std::size_t stream_index,
                                    QueryResult&& result) {
  util::MutexLock lock(mu_);
  const auto it = dispatched_.find(stream_index);
  MELO_CHECK_MSG(it != dispatched_.end(),
                 "ServingFrontEnd: completion for unknown stream index "
                     << stream_index);
  const Pending p = it->second;
  dispatched_.erase(it);
  const double done = clock_.elapsed_seconds();

  ServedQuery sq;
  sq.ticket = p.ticket;
  sq.tenant = p.tenant;
  sq.seed = p.seed;
  sq.status = ServeStatus::kOk;
  sq.arrival_seconds = p.arrival_seconds;
  // submit()→completion on the front end's clock: admission wait +
  // scheduler wait + service — the arrival-stamped response an SLO bounds.
  sq.response_seconds = done - p.arrival_seconds;
  sq.queue_seconds =
      (p.dispatch_seconds - p.arrival_seconds) + result.stats.queue_seconds;
  sq.deadline_seconds = p.deadline_seconds;
  sq.deadline_met = p.deadline_seconds == 0.0 || done <= p.deadline_seconds;
  if (!sq.deadline_met) ++counters_.deadline_misses;

  if (config_.service_estimate_ewma > 0.0) {
    const double service = result.stats.service_seconds();
    if (service > 0.0) {
      service_estimate_ =
          (1.0 - config_.service_estimate_ewma) * service_estimate_ +
          config_.service_estimate_ewma * service;
    }
  }

  sq.result = std::move(result);
  ++counters_.completed;
  ++counters_.tenant_completed[p.tenant];
  response_samples_.add(sq.response_seconds);
  queue_sum_ += sq.queue_seconds;
  finished_.push_back(std::move(sq));
  cv_.notify_all();  // backpressured dispatcher + drain waiters
}

std::vector<ServedQuery> ServingFrontEnd::drain() {
  util::MutexLock lock(mu_);
  while (!(pipeline_dead_ || (queued_ == 0 && dispatched_.empty()))) {
    cv_.wait(lock.native());
  }
  if (pipeline_dead_ && pipeline_error_ != nullptr &&
      !pipeline_error_thrown_) {
    pipeline_error_thrown_ = true;
    std::rethrow_exception(pipeline_error_);
  }
  std::vector<ServedQuery> out = std::move(finished_);
  finished_.clear();
  return out;
}

void ServingFrontEnd::shutdown() {
  {
    util::MutexLock lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (driver_.joinable()) driver_.join();
  util::MutexLock lock(mu_);
  if (pipeline_error_ != nullptr && !pipeline_error_thrown_) {
    pipeline_error_thrown_ = true;
    std::rethrow_exception(pipeline_error_);
  }
}

std::uint64_t ServingFrontEnd::submit_update(const graph::EdgeUpdate& update) {
  if (dynamic_ == nullptr) {
    throw std::invalid_argument(
        "ServingFrontEnd::submit_update: no dynamic graph bound");
  }
  // DynamicGraph::apply carries its own writer lock and runs the cache
  // invalidation listener before publishing the new version, so nothing
  // here needs mu_ — update producers never contend with admission.
  const std::uint64_t version = dynamic_->apply(update);
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

ServingStats ServingFrontEnd::stats() const {
  util::MutexLock lock(mu_);
  ServingStats s = counters_;
  s.queued = queued_;
  s.in_flight = dispatched_.size();
  s.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  s.graph_version = dynamic_ == nullptr ? 0 : dynamic_->version();
  s.service_estimate_seconds = service_estimate_;
  if (!response_samples_.empty()) {
    s.response_p50_seconds = response_samples_.percentile(50.0);
    s.response_p99_seconds = response_samples_.percentile(99.0);
    s.response_p999_seconds = response_samples_.percentile(99.9);
    s.max_response_seconds = response_samples_.max();
    s.mean_queue_seconds =
        queue_sum_ / static_cast<double>(counters_.completed);
  }
  return s;
}

}  // namespace meloppr::core
