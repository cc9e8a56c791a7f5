#include "hw/farm.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/env.hpp"
#include "util/sleep.hpp"

namespace meloppr::hw {

DispatchPolicy DispatchPolicy::from_env() {
  DispatchPolicy policy;
  policy.max_attempts = static_cast<std::size_t>(std::max<std::int64_t>(
      1, env_int("MELOPPR_DISPATCH_ATTEMPTS",
                 static_cast<std::int64_t>(policy.max_attempts))));
  policy.run_deadline_seconds =
      env_double("MELOPPR_DISPATCH_DEADLINE", policy.run_deadline_seconds);
  policy.breaker_failure_threshold =
      static_cast<std::size_t>(std::max<std::int64_t>(
          0, env_int("MELOPPR_BREAKER_THRESHOLD",
                     static_cast<std::int64_t>(
                         policy.breaker_failure_threshold))));
  policy.breaker_probe_seconds =
      env_double("MELOPPR_BREAKER_PROBE_SECONDS", policy.breaker_probe_seconds);
  return policy;
}

FpgaFarm::FpgaFarm(std::size_t devices, const AcceleratorConfig& config,
                   const Quantizer& quantizer)
    : FpgaFarm(devices, config, quantizer, DispatchPolicy::from_env(),
               FaultPlan::from_env()) {}

FpgaFarm::FpgaFarm(std::size_t devices, const AcceleratorConfig& config,
                   const Quantizer& quantizer, const DispatchPolicy& policy,
                   const FaultPlan& plan)
    : config_(config),
      quantizer_(quantizer),
      policy_(policy),
      plan_(plan),
      free_count_(devices),
      jitter_rng_(plan.seed ^ 0xfa43c0ffee1dULL) {
  if (devices == 0) {
    throw std::invalid_argument("FpgaFarm: need at least one device");
  }
  if (policy_.max_attempts == 0) {
    throw std::invalid_argument("FpgaFarm: max_attempts must be >= 1");
  }
  devices_.reserve(devices);
  targets_.reserve(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    devices_.emplace_back(Accelerator(config, quantizer));
  }
  // devices_ never resizes after this point, so references into it (and the
  // FaultyBackend wrappers holding them) stay stable.
  for (std::size_t d = 0; d < devices; ++d) {
    if (plan_.empty()) {
      targets_.push_back(&devices_[d]);
    } else {
      faulty_.push_back(
          std::make_unique<core::FaultyBackend>(devices_[d], plan_, d));
      targets_.push_back(faulty_.back().get());
    }
    breakers_.emplace_back(policy_.breaker_failure_threshold,
                           policy_.breaker_probe_seconds);
  }
  busy_seconds_.assign(devices, 0.0);
  in_use_.assign(devices, 0);
}

int FpgaFarm::checkout_device(bool* is_probe) {
  Timer wait_timer;
  util::MutexLock lock(mu_);
  for (;;) {
    // 1. Least-loaded free device whose breaker is closed.
    int best = -1;
    double least = -1.0;
    bool closed_but_busy = false;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      if (!breakers_[d].closed()) continue;
      if (in_use_[d]) {
        closed_but_busy = true;
        continue;
      }
      if (least < 0.0 || busy_seconds_[d] < least) {
        least = busy_seconds_[d];
        best = static_cast<int>(d);
      }
    }
    // 2. No healthy device free: a matured open breaker may offer its
    // half-open probe slot.
    if (best < 0) {
      const double now = uptime_.elapsed_seconds();
      for (std::size_t d = 0; d < devices_.size(); ++d) {
        if (in_use_[d]) continue;
        if (breakers_[d].probe_ready(now)) {
          breakers_[d].begin_probe();
          *is_probe = true;
          best = static_cast<int>(d);
          break;
        }
      }
    }
    if (best >= 0) {
      in_use_[best] = 1;
      --free_count_;
      peak_in_use_ = std::max(peak_in_use_, devices_.size() - free_count_);
      wait_seconds_ += wait_timer.elapsed_seconds();
      return best;
    }
    // 3. Healthy devices exist but are all busy: wait for one to free.
    // Short timed waits (not a bare wait) because a breaker can trip while
    // we sleep, flipping the answer from "wait" to "fail over".
    if (closed_but_busy) {
      device_free_.wait_for(lock.native(), std::chrono::microseconds(500));
      continue;
    }
    // 4. Nothing dispatchable: every breaker open/dead and no probe ready.
    // Return immediately — the failover layer serves from the host; we
    // must not serialize the whole pipeline on probe timers.
    wait_seconds_ += wait_timer.elapsed_seconds();
    return -1;
  }
}

core::BackendResult FpgaFarm::run(const graph::Subgraph& ball, double mass,
                                  unsigned length) {
  // The active-dispatch gauge counts this thread for the whole call —
  // waiting for a device is as strong an "offload in progress" signal as
  // running one. RAII so a throwing diffusion (MELO_CHECK on bad inputs,
  // allocation failure) cannot leave the gauge inflated.
  struct DispatchGauge {
    std::atomic<std::size_t>& gauge;
    explicit DispatchGauge(std::atomic<std::size_t>& g) : gauge(g) {
      gauge.fetch_add(1, std::memory_order_relaxed);
    }
    ~DispatchGauge() { gauge.fetch_sub(1, std::memory_order_relaxed); }
  } gauge(active_dispatches_);

  core::BackendResult last;
  std::uint32_t misses_this_run = 0;
  double backoff = policy_.backoff_initial_seconds;
  for (std::size_t attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    bool is_probe = false;
    const int device = checkout_device(&is_probe);
    if (device < 0) {
      // Degraded farm: nothing dispatchable right now. Fail fast so the
      // failover layer can serve; backoff/retry here would only add
      // latency on top of a state that probe traffic must change first.
      last = core::BackendResult{};
      last.status = core::RunStatus::kNoHealthyDevice;
      last.error = "farm: no device in rotation (breakers open or dead)";
      last.attempts = static_cast<std::uint32_t>(attempt);
      last.deadline_misses = misses_this_run;
      util::MutexLock lock(mu_);
      ++exhausted_runs_;
      return last;
    }

    Timer run_timer;
    core::BackendResult result;
    try {
      result = targets_[device]->run(ball, mass, length);
    } catch (const InvariantViolation&) {
      // A bug, not weather: release the device and let it propagate.
      {
        util::MutexLock lock(mu_);
        in_use_[device] = 0;
        ++free_count_;
      }
      device_free_.notify_all();
      throw;
    } catch (const std::invalid_argument&) {
      // Caller error (bad ball/seed): same device on the same input would
      // fail again — propagate, don't burn the retry budget.
      {
        util::MutexLock lock(mu_);
        in_use_[device] = 0;
        ++free_count_;
      }
      device_free_.notify_all();
      throw;
    } catch (const std::exception& e) {
      // Environmental: convert the throw into the typed channel so the
      // retry/breaker machinery below handles it like any failed attempt.
      result = core::BackendResult{};
      result.status = core::RunStatus::kTransientFault;
      result.error = e.what();
    }
    const double wall = run_timer.elapsed_seconds();
    const bool late = result.ok() && policy_.run_deadline_seconds > 0.0 &&
                      wall > policy_.run_deadline_seconds;
    const bool success = result.ok() && !late;

    bool retry = false;
    {
      util::MutexLock lock(mu_);
      busy_seconds_[device] +=
          result.compute_seconds + result.transfer_seconds;
      in_use_[device] = 0;
      ++free_count_;
      if (success) {
        breakers_[device].record_success();
        ++runs_;
      } else {
        if (result.status == core::RunStatus::kDeviceDead) {
          breakers_[device].kill();
        } else {
          breakers_[device].record_failure(uptime_.elapsed_seconds());
        }
        if (late) {
          ++deadline_misses_;
          ++misses_this_run;
        }
        if (attempt < policy_.max_attempts) {
          retry = true;
          ++retries_;
        } else {
          ++exhausted_runs_;
        }
      }
      if (retry) {
        // Jittered exponential backoff, computed under the lock (the RNG
        // is shared) but slept outside it.
        backoff *= jitter_rng_.uniform(1.0 - policy_.backoff_jitter,
                                       1.0 + policy_.backoff_jitter);
      }
    }
    device_free_.notify_all();

    if (success) {
      result.attempts = static_cast<std::uint32_t>(attempt);
      result.deadline_misses = misses_this_run;
      return result;
    }
    if (late) {
      // The scores are correct but the attempt blew its latency budget:
      // discard and retry (deadline semantics — a late answer is a wrong
      // answer to the serving layer).
      last = core::BackendResult{};
      last.status = core::RunStatus::kDeadlineMiss;
      std::ostringstream os;
      os << "farm: attempt took " << wall << "s against a "
         << policy_.run_deadline_seconds << "s deadline";
      last.error = os.str();
    } else {
      last = std::move(result);
    }
    if (retry) {
      util::pause_for_seconds(std::min(backoff, policy_.backoff_max_seconds));
      backoff = std::min(backoff * policy_.backoff_multiplier,
                         policy_.backoff_max_seconds);
    }
  }
  last.attempts = static_cast<std::uint32_t>(policy_.max_attempts);
  last.deadline_misses = misses_this_run;
  last.accumulated.clear();
  last.inflight.clear();
  return last;
}

std::size_t FpgaFarm::working_bytes(std::size_t ball_nodes,
                                    std::size_t ball_edges) const {
  // Each device holds its own tables; the farm's footprint scales with D.
  return devices_.size() *
         devices_.front().working_bytes(ball_nodes, ball_edges);
}

std::string FpgaFarm::name() const {
  std::ostringstream os;
  os << "farm(" << devices_.size() << "x "
     << targets_.front()->name() << ")";
  return os.str();
}

std::unique_ptr<core::DiffusionBackend> FpgaFarm::clone() const {
  return std::make_unique<FpgaFarm>(devices_.size(), config_, quantizer_,
                                    policy_, plan_);
}

core::DispatchHealth FpgaFarm::dispatch_health() const {
  util::MutexLock lock(mu_);
  core::DispatchHealth health;
  health.devices = devices_.size();
  for (const CircuitBreaker& breaker : breakers_) {
    if (breaker.closed()) ++health.healthy_devices;
    if (breaker.dead()) ++health.dead_devices;
    health.breaker_trips += breaker.trips();
    health.probes += breaker.probes();
  }
  health.retries = retries_;
  health.deadline_misses = deadline_misses_;
  health.exhausted_runs = exhausted_runs_;
  return health;
}

std::size_t FpgaFarm::healthy_device_count() const {
  util::MutexLock lock(mu_);
  std::size_t healthy = 0;
  for (const CircuitBreaker& breaker : breakers_) {
    if (breaker.closed()) ++healthy;
  }
  return healthy;
}

std::size_t FpgaFarm::dead_device_count() const {
  util::MutexLock lock(mu_);
  std::size_t dead = 0;
  for (const CircuitBreaker& breaker : breakers_) {
    if (breaker.dead()) ++dead;
  }
  return dead;
}

double FpgaFarm::makespan_seconds() const {
  util::MutexLock lock(mu_);
  return *std::max_element(busy_seconds_.begin(), busy_seconds_.end());
}

double FpgaFarm::serial_seconds() const {
  util::MutexLock lock(mu_);
  double total = 0.0;
  for (double b : busy_seconds_) total += b;
  return total;
}

double FpgaFarm::imbalance() const {
  util::MutexLock lock(mu_);
  double makespan = 0.0;
  double total = 0.0;
  for (double b : busy_seconds_) {
    makespan = std::max(makespan, b);
    total += b;
  }
  const double ideal = total / static_cast<double>(devices_.size());
  return ideal > 0.0 ? makespan / ideal : 1.0;
}

std::size_t FpgaFarm::runs() const {
  util::MutexLock lock(mu_);
  return runs_;
}

double FpgaFarm::dispatch_wait_seconds() const {
  util::MutexLock lock(mu_);
  return wait_seconds_;
}

std::size_t FpgaFarm::peak_concurrent_runs() const {
  util::MutexLock lock(mu_);
  return peak_in_use_;
}

void FpgaFarm::reset() {
  util::MutexLock lock(mu_);
  MELO_CHECK_MSG(free_count_ == devices_.size(),
                 "FpgaFarm::reset while dispatches are in flight");
  for (auto& device : devices_) device.reset_counters();
  std::fill(busy_seconds_.begin(), busy_seconds_.end(), 0.0);
  breakers_.clear();
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    breakers_.emplace_back(policy_.breaker_failure_threshold,
                           policy_.breaker_probe_seconds);
  }
  runs_ = 0;
  wait_seconds_ = 0.0;
  peak_in_use_ = 0;
  retries_ = 0;
  deadline_misses_ = 0;
  exhausted_runs_ = 0;
}

}  // namespace meloppr::hw
