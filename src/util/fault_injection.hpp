// Deterministic fault injection for the resilient dispatch layer.
//
// Production fault tolerance is only trustworthy if every failure mode can
// be replayed byte-for-byte in a test: "device 3 died after 40 runs and
// 7% of dispatches flaked" must be a seed, not an anecdote. A FaultPlan is
// that seed — a small parsed spec of which environmental failures to
// inject — and FaultyBackend is the decorator that acts it out against any
// DiffusionBackend. The farm wraps each simulated device in one (when a
// plan is active), so retries, breaker trips, sticky death, and failover
// all exercise the exact same code paths real hardware faults would.
//
// Plan format (MELOPPR_FAULT_PLAN or FaultPlan::parse), comma-separated
// key=value pairs; unknown keys are ignored so plans stay forward
// compatible:
//
//   transient=P    probability in [0,1] that a run fails transiently
//   spike=P:S      probability P of a latency spike of S seconds (real
//                  sleep, so wall-clock deadlines genuinely trip)
//   death=N@D      device instance D dies stickily after N successful runs
//                  (D is the per-farm wrap index; omit `@D` for instance 0)
//   extractor=P    probability that a faulty ball extractor throws
//   seed=N         base RNG seed (default 1; tests pass test_seed())
//
// Example: MELOPPR_FAULT_PLAN="transient=0.05,spike=0.01:0.002,death=40@1"
//
// Determinism: each FaultyBackend derives its stream from
// plan.seed ^ instance, so a fixed plan and fixed per-device run order
// replays exactly. Under a concurrent farm the interleaving across devices
// varies, but each device's decision sequence is still a pure function of
// its own run count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/backend.hpp"
#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace meloppr {

/// Parsed, seeded fault-injection spec. Value-type; default is the empty
/// plan (inject nothing).
struct FaultPlan {
  /// Probability a run fails with RunStatus::kTransientFault.
  double transient_probability = 0.0;
  /// Probability a run stalls for `spike_seconds` of real wall time.
  double spike_probability = 0.0;
  double spike_seconds = 0.0;
  /// After this many successful runs, instance `death_instance` reports
  /// sticky death forever (0 = no death scheduled).
  std::uint64_t death_after_runs = 0;
  std::uint64_t death_instance = 0;
  bool death_scheduled = false;
  /// Probability make_flaky_extractor throws instead of extracting.
  double extractor_probability = 0.0;
  /// Base seed; each consumer forks its stream from this.
  std::uint64_t seed = 1;

  /// True when the plan injects nothing (all probabilities zero, no death
  /// scheduled) — the farm then skips wrapping devices entirely.
  [[nodiscard]] bool empty() const;

  /// Parses the comma-separated key=value spec above. Unknown keys are
  /// ignored; malformed values throw std::invalid_argument (a bad plan is
  /// a caller error, not weather).
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Plan from MELOPPR_FAULT_PLAN, or the empty plan when unset/empty.
  [[nodiscard]] static FaultPlan from_env();

  /// One-line human-readable summary for bench banners and the server.
  [[nodiscard]] std::string summary() const;
};

namespace core {

/// Decorator that injects the plan's failures into an inner backend.
/// Injection order per run: sticky death (if scheduled and matured) →
/// latency spike (real sleep, charged to compute_seconds) → transient
/// fault. A transiently-failed run never touches the inner backend, so
/// fault-free replays of the surviving runs are bit-identical.
///
/// Thread-safe when the inner backend is: the RNG and counters are guarded
/// by a per-instance mutex (held only for the cheap decision, not the run).
class FaultyBackend final : public DiffusionBackend {
 public:
  /// Non-owning wrap; `inner` must outlive this decorator. `instance` is
  /// the per-farm device index, folded into the RNG seed.
  FaultyBackend(DiffusionBackend& inner, const FaultPlan& plan,
                std::uint64_t instance);
  /// Owning wrap (used by clone() and the farm's device wrapping).
  FaultyBackend(std::unique_ptr<DiffusionBackend> inner, const FaultPlan& plan,
                std::uint64_t instance);

  BackendResult run(const graph::Subgraph& ball, double mass,
                    unsigned length) override;

  [[nodiscard]] std::size_t working_bytes(
      std::size_t ball_nodes, std::size_t ball_edges) const override {
    return inner_->working_bytes(ball_nodes, ball_edges);
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<DiffusionBackend> clone() const override;
  [[nodiscard]] bool thread_safe() const override {
    return inner_->thread_safe();
  }
  [[nodiscard]] std::size_t max_concurrent_runs() const override {
    return inner_->max_concurrent_runs();
  }
  [[nodiscard]] bool offloads_compute() const override {
    return inner_->offloads_compute();
  }
  [[nodiscard]] std::size_t active_dispatches() const override {
    return inner_->active_dispatches();
  }
  [[nodiscard]] DispatchHealth dispatch_health() const override {
    return inner_->dispatch_health();
  }

  /// Injection counters (for tests and bench reporting).
  [[nodiscard]] std::size_t injected_transients() const;
  [[nodiscard]] std::size_t injected_spikes() const;
  [[nodiscard]] bool device_dead() const;
  [[nodiscard]] std::size_t runs() const;

 private:
  DiffusionBackend* inner_;
  std::unique_ptr<DiffusionBackend> owned_inner_;
  FaultPlan plan_;
  std::uint64_t instance_;

  mutable util::Mutex mutex_;
  Rng rng_ MELOPPR_GUARDED_BY(mutex_);
  std::uint64_t successful_runs_ MELOPPR_GUARDED_BY(mutex_) = 0;
  std::size_t injected_transients_ MELOPPR_GUARDED_BY(mutex_) = 0;
  std::size_t injected_spikes_ MELOPPR_GUARDED_BY(mutex_) = 0;
  bool dead_ MELOPPR_GUARDED_BY(mutex_) = false;
};

}  // namespace core

/// Ball extractor that throws std::runtime_error with probability
/// plan.extractor_probability (deterministic in call order for a fixed
/// seed), else delegates to graph::extract_ball. Plugs into
/// ShardedBallCache::set_extractor and the engine's extraction-retry path.
/// The returned closure owns its RNG behind a mutex, so it is safe to call
/// from multiple threads (pipeline workers).
[[nodiscard]] std::function<graph::Subgraph(const graph::Graph&,
                                            graph::NodeId, unsigned)>
make_flaky_extractor(const FaultPlan& plan, std::uint64_t tag = 0);

}  // namespace meloppr
