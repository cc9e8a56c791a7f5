// Per-device circuit breaker for the resilient dispatch layer (farm.hpp).
//
// A device that keeps failing should stop receiving traffic: every failed
// dispatch costs a retry-backoff round trip, and a hard-down device would
// otherwise eat one timeout per dispatch forever. The breaker is the
// classic three-state machine:
//
//   kClosed   — healthy; dispatches flow freely. `failure_threshold`
//               consecutive failures trip it open.
//   kOpen     — removed from rotation. After `probe_interval_seconds` one
//               dispatch may be claimed as a half-open probe.
//   kHalfOpen — exactly one probe in flight. Success re-closes the breaker
//               (the device rejoins rotation); failure re-opens it and
//               re-arms the probe timer.
//
// kill() is the terminal state for sticky device death (a device that
// reports RunStatus::kDeviceDead): no probe ever re-admits it.
//
// The breaker is deliberately clock-free: `now` is passed in by the caller
// (the farm feeds its uptime timer), so the state machine unit-tests
// exhaustively with a synthetic clock, no sleeps. Not internally synchronized; the farm
// mutates it under its dispatch mutex.
#pragma once

#include <cstddef>

namespace meloppr {

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen, kDead };

  /// `failure_threshold` consecutive failures trip the breaker; 0 disables
  /// tripping entirely (the breaker stays closed unless kill()ed).
  /// `probe_interval_seconds` is the open→half-open maturation time.
  CircuitBreaker(std::size_t failure_threshold, double probe_interval_seconds)
      : threshold_(failure_threshold),
        probe_interval_(probe_interval_seconds) {}

  /// Healthy: dispatches may flow without claiming a probe.
  [[nodiscard]] bool closed() const { return !dead_ && !open_; }

  [[nodiscard]] bool dead() const { return dead_; }

  /// Open, probe timer matured, and no probe already in flight: the caller
  /// may claim the half-open probe with begin_probe().
  [[nodiscard]] bool probe_ready(double now) const {
    return !dead_ && open_ && !probe_in_flight_ && now >= probe_at_;
  }

  /// Claims the single half-open probe slot (caller must have checked
  /// probe_ready). The next record_success/record_failure settles it.
  void begin_probe() {
    probe_in_flight_ = true;
    ++probes_;
  }

  [[nodiscard]] State state(double now) const {
    if (dead_) return State::kDead;
    if (!open_) return State::kClosed;
    return (probe_in_flight_ || now >= probe_at_) ? State::kHalfOpen
                                                  : State::kOpen;
  }

  /// A dispatch on this device succeeded: re-close (probe or not) and
  /// forget the failure streak.
  void record_success() {
    if (dead_) return;
    probe_in_flight_ = false;
    open_ = false;
    consecutive_failures_ = 0;
  }

  /// A dispatch on this device failed at `now`. A failed probe re-opens
  /// and re-arms the timer; a failed closed-state dispatch counts toward
  /// the consecutive-failure trip.
  void record_failure(double now) {
    if (dead_) return;
    if (probe_in_flight_) {
      probe_in_flight_ = false;
      probe_at_ = now + probe_interval_;
      return;  // already open; the probe just didn't pay off
    }
    ++consecutive_failures_;
    if (open_) {
      // Failure while open without a probe claim (e.g. a dispatch that
      // checked out before the trip): just push the probe horizon.
      probe_at_ = now + probe_interval_;
      return;
    }
    if (threshold_ > 0 && consecutive_failures_ >= threshold_) {
      open_ = true;
      ++trips_;
      probe_at_ = now + probe_interval_;
    }
  }

  /// Terminal: the device reported sticky death; no probe re-admits it.
  void kill() {
    dead_ = true;
    open_ = true;
    probe_in_flight_ = false;
  }

  /// Times the breaker transitioned closed→open (kill() not included).
  [[nodiscard]] std::size_t trips() const { return trips_; }
  /// Half-open probes claimed so far.
  [[nodiscard]] std::size_t probes() const { return probes_; }
  [[nodiscard]] std::size_t consecutive_failures() const {
    return consecutive_failures_;
  }

 private:
  std::size_t threshold_;
  double probe_interval_;
  bool open_ = false;
  bool dead_ = false;
  bool probe_in_flight_ = false;
  double probe_at_ = 0.0;
  std::size_t consecutive_failures_ = 0;
  std::size_t trips_ = 0;
  std::size_t probes_ = 0;
};

}  // namespace meloppr
