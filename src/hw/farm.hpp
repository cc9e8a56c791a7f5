// Multi-accelerator farm — the paper's stated future work (Sec. VI-C):
// "Through linear decomposition, MeLoPPR allows multiple next-stage nodes
// to be computed in parallel, which can further reduce the overall latency.
// We leave this for future experiments."
//
// The linear decomposition makes every stage-2 diffusion independent, so a
// farm of D accelerator instances can process them concurrently. FpgaFarm
// plugs into the engine as a DiffusionBackend: each run is dispatched to
// the least-loaded *free* device (greedy online list scheduling, within 2×
// of the optimal makespan), per-device busy time accumulates, and the
// query's parallel diffusion latency is the farm makespan rather than the
// serial sum.
//
// Dispatch is thread-safe: up to D runs proceed concurrently (one per
// device); callers beyond D block on a condition variable until a device
// frees up. This makes the farm the natural shared backend for the
// QueryPipeline's work-stealing workers — they feed the farm exactly the
// independent same-stage diffusions the paper describes.
// Device checkout and busy-time accounting sit behind one mutex; the
// simulated diffusions themselves run outside it, in parallel.
//
// Resilient dispatch (the fault-tolerance layer): each run carries a
// bounded retry budget with exponential backoff + jitter and an optional
// wall-clock deadline; per-device CircuitBreakers take repeatedly-failing
// devices out of checkout rotation (half-open probes re-admit recovered
// ones, sticky-dead devices never return). When *no* device is
// dispatchable — every breaker open or dead and no probe claimable — run()
// returns RunStatus::kNoHealthyDevice immediately instead of blocking, so
// a FailoverBackend can serve the diffusion from the host's bit-exact
// fixed-point path without stalling on probe timers. Because the failover
// layer always tries the farm first, probe traffic keeps flowing and
// recovered devices rejoin on their own. A FaultPlan (util/
// fault_injection.hpp) wraps each device in a FaultyBackend so every one
// of these paths is deterministically testable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "hw/host.hpp"
#include "util/circuit_breaker.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace meloppr::hw {

/// Retry/deadline/breaker knobs of the farm's resilient dispatch layer.
/// The defaults are sized for the simulated farm (device runs are tens of
/// microseconds): total worst-case backoff per run stays well under the
/// cost of one ball extraction.
struct DispatchPolicy {
  /// Dispatch attempts per run() before giving up (≥ 1). The final
  /// attempt's typed failure is returned to the caller.
  std::size_t max_attempts = 3;
  /// Wall-clock deadline per attempt; an attempt that completes late is
  /// discarded (counted as a deadline miss and a device failure) and
  /// retried. 0 disables deadlines.
  double run_deadline_seconds = 0.0;
  /// Exponential backoff between attempts: initial * multiplier^k, capped.
  double backoff_initial_seconds = 50e-6;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 2e-3;
  /// Uniform jitter fraction: each backoff is scaled by a factor in
  /// [1-jitter, 1+jitter] so retries from concurrent workers decorrelate.
  double backoff_jitter = 0.5;
  /// Consecutive failures that trip a device's breaker (0 disables).
  std::size_t breaker_failure_threshold = 3;
  /// Open→half-open maturation time of a tripped breaker.
  double breaker_probe_seconds = 0.01;

  /// Policy with MELOPPR_DISPATCH_ATTEMPTS / MELOPPR_DISPATCH_DEADLINE /
  /// MELOPPR_BREAKER_THRESHOLD / MELOPPR_BREAKER_PROBE_SECONDS overrides
  /// applied on top of the defaults.
  [[nodiscard]] static DispatchPolicy from_env();
};

class FpgaFarm final : public core::DiffusionBackend {
 public:
  /// `devices` identical accelerator instances, default dispatch policy,
  /// fault plan from MELOPPR_FAULT_PLAN (empty when unset).
  FpgaFarm(std::size_t devices, const AcceleratorConfig& config,
           const Quantizer& quantizer);

  /// Full control over the resilience layer. An empty FaultPlan leaves the
  /// devices unwrapped (zero injection overhead).
  FpgaFarm(std::size_t devices, const AcceleratorConfig& config,
           const Quantizer& quantizer, const DispatchPolicy& policy,
           const FaultPlan& plan);

  /// Dispatches to the least-loaded free healthy device and returns its
  /// result, retrying per the DispatchPolicy on transient failures and
  /// deadline misses. Blocks only while a breaker-closed device is busy;
  /// with nothing dispatchable it returns kNoHealthyDevice immediately.
  /// The BackendResult's compute/transfer seconds are the device's own
  /// time (the engine sums them — that is the *serial* view; use
  /// makespan_seconds() for the parallel completion time). Safe to call
  /// from multiple threads. Throws only for caller errors and invariant
  /// violations; environmental failures come back through result.status.
  core::BackendResult run(const graph::Subgraph& ball, double mass,
                          unsigned length) override;

  [[nodiscard]] std::size_t working_bytes(
      std::size_t ball_nodes, std::size_t ball_edges) const override;
  [[nodiscard]] std::string name() const override;

  /// A fresh farm of the same shape (device count, config, quantizer,
  /// policy, fault plan) with zeroed load and fresh breakers. Rarely
  /// needed — the farm itself is thread-safe and meant to be shared.
  [[nodiscard]] std::unique_ptr<core::DiffusionBackend> clone() const override;
  [[nodiscard]] bool thread_safe() const override { return true; }
  /// At most one run per device executes at a time.
  [[nodiscard]] std::size_t max_concurrent_runs() const override {
    return devices_.size();
  }
  /// Dispatchers block on busy devices while diffusions run off-host.
  [[nodiscard]] bool offloads_compute() const override { return true; }
  /// Live count of threads inside run() (running a device or blocked on
  /// checkout). 0 means the farm is momentarily idle. Lock-free.
  [[nodiscard]] std::size_t active_dispatches() const override {
    return active_dispatches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] core::DispatchHealth dispatch_health() const override;

  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  /// Devices currently in checkout rotation (breaker closed). Can recover
  /// upward when half-open probes succeed.
  [[nodiscard]] std::size_t healthy_device_count() const;
  /// Sticky-dead devices (never re-admitted).
  [[nodiscard]] std::size_t dead_device_count() const;

  [[nodiscard]] const DispatchPolicy& policy() const { return policy_; }
  [[nodiscard]] const FaultPlan& fault_plan() const { return plan_; }

  /// Parallel completion time of all diffusions dispatched since the last
  /// reset: max over devices of accumulated busy seconds.
  [[nodiscard]] double makespan_seconds() const;

  /// Serial equivalent (Σ busy time) — the 1-device latency of this load.
  [[nodiscard]] double serial_seconds() const;

  /// Busy-time imbalance: makespan / (serial / D); 1.0 = perfect balance.
  [[nodiscard]] double imbalance() const;

  [[nodiscard]] std::size_t runs() const;

  /// Cumulative wall seconds dispatching threads spent blocked waiting for
  /// a free device — device-side time that host BFS could in principle
  /// hide behind (compare QueryStats::modeled_overlap_seconds()).
  [[nodiscard]] double dispatch_wait_seconds() const;

  /// Most devices ever busy simultaneously (≤ device_count). Shows whether
  /// the serving layer actually fills the farm.
  [[nodiscard]] std::size_t peak_concurrent_runs() const;

  /// Zeroes load/health counters and re-arms all breakers. Injected sticky
  /// death is *not* cleared (the FaultyBackend keeps the device dead, as
  /// real hardware would) — its breaker just re-learns it.
  void reset();

 private:
  /// Picks a device under mu_: least-loaded free breaker-closed device,
  /// else a free probe-ready open device (claiming its half-open probe),
  /// else waits only while some closed device is merely busy. Returns -1
  /// when nothing is dispatchable (degraded farm) — never blocks on probe
  /// timers. Sets *is_probe when the claim is a half-open probe.
  int checkout_device(bool* is_probe) MELOPPR_EXCLUDES(mu_);

  // Kept for clone(); devices_ holds the live instances.
  AcceleratorConfig config_;
  Quantizer quantizer_;
  DispatchPolicy policy_;
  FaultPlan plan_;

  std::vector<FpgaBackend> devices_;
  /// Per-device FaultPlan decorators (empty when the plan is empty).
  std::vector<std::unique_ptr<core::FaultyBackend>> faulty_;
  /// Dispatch target per device: the FaultyBackend wrapper when a plan is
  /// active, the raw device otherwise.
  std::vector<core::DiffusionBackend*> targets_;

  /// CircuitBreaker is deliberately unsynchronized (clock-free, tested
  /// with synthetic time); the farm is its external synchronization — all
  /// breaker state transitions happen under mu_.
  std::vector<CircuitBreaker> breakers_ MELOPPR_GUARDED_BY(mu_);
  std::vector<double> busy_seconds_ MELOPPR_GUARDED_BY(mu_);
  /// char: vector<bool> has no sane element references
  std::vector<char> in_use_ MELOPPR_GUARDED_BY(mu_);
  std::size_t free_count_ MELOPPR_GUARDED_BY(mu_);
  std::size_t runs_ MELOPPR_GUARDED_BY(mu_) = 0;
  double wait_seconds_ MELOPPR_GUARDED_BY(mu_) = 0.0;
  std::size_t peak_in_use_ MELOPPR_GUARDED_BY(mu_) = 0;
  std::size_t retries_ MELOPPR_GUARDED_BY(mu_) = 0;
  std::size_t deadline_misses_ MELOPPR_GUARDED_BY(mu_) = 0;
  std::size_t exhausted_runs_ MELOPPR_GUARDED_BY(mu_) = 0;
  /// shared across dispatchers — backoff jitter draws serialize on mu_
  Rng jitter_rng_ MELOPPR_GUARDED_BY(mu_);

  /// Monotonic farm-local clock feeding the breakers (clock-free testing
  /// happens directly against CircuitBreaker with a synthetic `now`).
  Timer uptime_;

  /// Threads currently inside run(); see active_dispatches().
  std::atomic<std::size_t> active_dispatches_{0};

  mutable util::Mutex mu_;
  std::condition_variable device_free_;
};

}  // namespace meloppr::hw
