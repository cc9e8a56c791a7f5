// Self-tuning width for the cross-query root-prefetch window (ROADMAP
// "Adaptive root-prefetch window").
//
// A fixed window has no single right value: on a graph of small balls a
// window of 4 leaves the prefetch threads idle while cold queries still pay
// their own BFS; on a graph of hub-sized balls the same 4 can overrun the
// spare budget the moment traffic shifts. The controller derives the width
// per claim, between the pipeline's QueryPipeline::kRootWindowFloor and
// kRootWindowCeiling, from two live signals:
//
//   * prefetch-thread idle fraction — differentiated from the prefetcher's
//     cumulative busy-seconds counter over wall time, then smoothed by an
//     EWMA. Idle threads mean lookahead capacity is going unused, so the
//     window widens toward max_window; saturated threads mean speculation
//     is already backed up, so it narrows toward min_window. (Pause-gated
//     time — the farm-wait meter — counts as idle on purpose: a paused
//     prefetcher has no business widening its backlog.)
//   * EWMA of recently extracted ball bytes — converts the spare-budget
//     byte cap the caller supplies into "how many balls of the size we are
//     actually seeing", replacing the resident-mean estimate that is
//     undefined on an empty cache and stale on a shifting working set.
//
// The spare-budget throttle always wins: whatever the idle signal wants,
// the returned window never exceeds cap_bytes / ewma_ball_bytes, and a
// saturated cache (cap_bytes ≈ 0) yields a window of 0 — the corrected
// PR 4 contract (min(spare, budget/8), not max) that keeps small caches
// from being churned by speculation. Before the first completed
// extraction (ewma 0) the cap cannot be converted, so the window holds
// at min_window — a small cold-start burst — instead of
// opening to max into a cache of unknown per-ball capacity.
//
// The controller is intentionally dependency-free and fed explicit numbers
// (busy seconds, wall seconds, thread count, EWMA bytes, byte cap) so its
// policy is unit-testable without threads or clocks.
#pragma once

#include <atomic>
#include <cstddef>

#include "util/thread_annotations.hpp"

namespace meloppr::core {

class AdaptiveWindowController {
 public:
  /// Window bounds in seeds. min_window is a *desire* floor — the byte cap
  /// may still force the window below it (to 0 on a saturated cache).
  /// Both are clamped to ≥ 1 / ≥ min internally.
  AdaptiveWindowController(std::size_t min_window, std::size_t max_window);

  /// One controller step; returns the window width to use right now.
  ///   busy_seconds — the prefetcher's cumulative fetch-busy seconds
  ///   wall_seconds — monotonic wall clock shared across calls
  ///   prefetch_threads — how many threads produced busy_seconds
  ///   ewma_ball_bytes — recent-extraction ball size estimate (0 = unknown)
  ///   cap_bytes — the spare-budget throttle, min(spare, budget/8)
  /// Thread-safe; concurrent callers serialize on an internal mutex (the
  /// call rate is one per claimed query root).
  std::size_t window(double busy_seconds, double wall_seconds,
                     std::size_t prefetch_threads,
                     std::size_t ewma_ball_bytes, std::size_t cap_bytes);

  /// The width the last window() call returned (telemetry; lock-free).
  [[nodiscard]] std::size_t last_window() const {
    return last_window_.load(std::memory_order_relaxed);
  }

  /// Smoothed prefetch-thread idle fraction in [0, 1] (telemetry).
  [[nodiscard]] double idle_fraction() const;

 private:
  /// Intervals shorter than this carry too much timer noise to re-estimate
  /// idleness; the previous smoothed value is reused instead.
  static constexpr double kMinIntervalSeconds = 1e-3;
  /// Smoothing factor of the idle-fraction EWMA (higher = more reactive).
  static constexpr double kIdleSmoothing = 0.3;

  const std::size_t min_window_;
  const std::size_t max_window_;

  mutable util::Mutex mu_;
  double last_busy_seconds_ MELOPPR_GUARDED_BY(mu_) = 0.0;
  double last_wall_seconds_ MELOPPR_GUARDED_BY(mu_) = 0.0;
  /// Starts at 1.0: before any measurement the threads have done no work,
  /// which is exactly "fully idle" — the window widens as soon as the
  /// first ball-size estimate lets the byte cap be applied.
  double idle_ MELOPPR_GUARDED_BY(mu_) = 1.0;

  std::atomic<std::size_t> last_window_{0};
};

}  // namespace meloppr::core
