// Stage-lookahead BFS prefetcher — the PS/PL overlap of Fig. 4 the paper
// leaves serial.
//
// The moment a stage task finishes, select_next_stage has named the roots of
// its stage-s+1 children — but their diffusions cannot start until the rest
// of stage s drains. That window is exactly when the host's cores are idle
// (or blocked on the device farm). The prefetcher spends it extracting the
// next stage's balls into the ShardedBallCache on dedicated host threads,
// so by the time a child task is dispatched, its BFS is a cache hit and the
// CPU-side ball preparation (Fig. 7's dominant light-blue bars) has been
// hidden behind device diffusion instead of serialized in front of it.
//
// The prefetcher is deliberately decoupled from scheduling policy: it is a
// fire-and-forget queue of (cache, root, radius) requests. Correctness never
// depends on it — a dropped or late prefetch only means the demand fetch
// pays the BFS itself, and the cache's in-flight dedup guarantees a demand
// fetch racing a prefetch of the same ball never extracts twice. Requests
// drain in FIFO order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/sharded_ball_cache.hpp"
#include "graph/graph.hpp"
#include "util/thread_annotations.hpp"

namespace meloppr::core {

class BallPrefetcher {
 public:
  /// Spawns `threads` dedicated BFS threads (≥ 1 enforced).
  ///
  /// `pause` (optional) is the farm-wait meter's gate: while it returns
  /// true, workers leave queued requests untouched and re-check every few
  /// hundred microseconds (pause-state changes carry no notification).
  /// The pipeline passes "shared offloading backend reports zero active
  /// dispatches" here, so lookahead BFS yields the host's cores to the
  /// demand path whenever nobody is blocked on the device side. The
  /// predicate must be callable from any prefetch thread without locks
  /// held (it is invoked under the queue mutex) and must outlive the
  /// prefetcher. Pausing never drops requests — enqueue/quiesce semantics
  /// are unchanged.
  explicit BallPrefetcher(std::size_t threads,
                          std::function<bool()> pause = {});
  BallPrefetcher(const BallPrefetcher&) = delete;
  BallPrefetcher& operator=(const BallPrefetcher&) = delete;
  ~BallPrefetcher();

  /// Requests the ball (root, radius) be pulled into `cache`. Returns
  /// immediately; the extraction happens on a prefetch thread. `cache`
  /// must stay alive until quiesce() returns — the pipeline quiesces at
  /// the end of every query()/query_batch(), so callers only need the
  /// cache to outlive the query call, not the pipeline.
  void enqueue(ShardedBallCache& cache, graph::NodeId root, unsigned radius);

  /// Discards queued (not yet started) requests and waits for in-flight
  /// ones to finish: after this returns, no prefetch thread touches any
  /// cache passed earlier.
  /// Bounded by one ball extraction per prefetch thread.
  void quiesce();

  // --- statistics ---
  [[nodiscard]] std::size_t issued() const { return issued_.load(); }
  [[nodiscard]] std::size_t completed() const { return completed_.load(); }
  /// Requests whose ball was not already cached, i.e. BFS work actually
  /// moved off the demand path.
  [[nodiscard]] std::size_t balls_fetched() const {
    return balls_fetched_.load();
  }
  /// Requests whose extraction threw (flaky extractor, storage fault). The
  /// worker thread survives and keeps draining — a prefetch is advisory,
  /// so the failure is counted, not propagated; the demand fetch
  /// re-attempts the ball with the engine's own retry budget.
  [[nodiscard]] std::size_t failures() const { return failures_.load(); }
  /// BFS seconds executed on prefetch threads — extraction time hidden from
  /// (run concurrently with) the demand path.
  [[nodiscard]] double hidden_seconds() const;

 private:
  struct Request {
    ShardedBallCache* cache;
    graph::NodeId root;
    unsigned radius;
  };

  void worker_loop() MELOPPR_EXCLUDES(mu_);

  std::function<bool()> pause_;  ///< farm-wait meter gate (may be empty)
  mutable util::Mutex mu_;
  std::deque<Request> queue_ MELOPPR_GUARDED_BY(mu_);
  std::condition_variable work_available_;
  std::condition_variable idle_;      ///< signaled when in-flight drains
  bool stop_ MELOPPR_GUARDED_BY(mu_) = false;
  std::size_t in_flight_ MELOPPR_GUARDED_BY(mu_) = 0;
  double hidden_seconds_ MELOPPR_GUARDED_BY(mu_) = 0.0;

  std::atomic<std::size_t> issued_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> balls_fetched_{0};
  std::atomic<std::size_t> failures_{0};

  std::vector<std::thread> workers_;
};

}  // namespace meloppr::core
