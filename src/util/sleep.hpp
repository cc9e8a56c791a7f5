// The one permitted real-sleep site in src/.
//
// The clock-free-test discipline (PRs 5/7) bans sleeps from production
// code: polling loops must be event-driven (condition variables) and
// tests must never depend on wall time. The two legitimate exceptions —
// injected latency spikes (FaultPlan) and the farm's jittered retry
// backoff — both route through this header, and
// tools/check_source_invariants.sh rejects any other `sleep_for` token in
// src/. A new caller showing up here is a review event, not an accident.
#pragma once

#include <chrono>
#include <thread>

namespace meloppr::util {

/// Blocks the calling thread for `seconds` of real wall time. Zero and
/// negative durations return immediately.
inline void pause_for_seconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace meloppr::util
