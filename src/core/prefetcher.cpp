#include "core/prefetcher.hpp"

#include <algorithm>

#include "util/sleep.hpp"

namespace meloppr::core {

BallPrefetcher::BallPrefetcher(std::size_t threads,
                               std::function<bool()> pause)
    : pause_(std::move(pause)) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  workers_.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

BallPrefetcher::~BallPrefetcher() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
    queue_.clear();
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void BallPrefetcher::enqueue(ShardedBallCache& cache, graph::NodeId root,
                             unsigned radius) {
  {
    util::MutexLock lock(mu_);
    if (stop_) return;
    queue_.push_back({&cache, root, radius});
  }
  issued_.fetch_add(1, std::memory_order_relaxed);
  work_available_.notify_one();
}

void BallPrefetcher::quiesce() {
  util::MutexLock lock(mu_);
  queue_.clear();
  while (in_flight_ != 0) idle_.wait(lock.native());
}

double BallPrefetcher::hidden_seconds() const {
  util::MutexLock lock(mu_);
  return hidden_seconds_;
}

void BallPrefetcher::worker_loop() {
  for (;;) {
    Request req{};
    {
      util::MutexLock lock(mu_);
      // Explicit wait loop: the thread-safety analysis cannot see guarded
      // accesses inside a predicate lambda.
      while (!(stop_ || !queue_.empty())) {
        work_available_.wait(lock.native());
      }
      if (stop_) return;  // pending requests are best-effort; drop on stop
      if (pause_ && pause_()) {
        // Farm-wait meter: the device side is idle, so host cores belong
        // to the demand path. Leave the request queued and re-check soon
        // (a dispatch entering the farm flips the gate without notifying).
        // This poll loop is bounded to mid-batch idle windows: every
        // query()/query_batch() quiesces before returning, which empties
        // the queue and parks workers back on the condition variable.
        lock.unlock();
        util::pause_for_seconds(200e-6);
        continue;
      }
      req = queue_.front();
      queue_.pop_front();
      ++in_flight_;
    }
    double extract_seconds = 0.0;
    bool fetched = false;
    try {
      const ShardedBallCache::Fetch f = req.cache->fetch(
          req.root, req.radius, ShardedBallCache::FetchKind::kPrefetch);
      fetched = !f.hit;
      extract_seconds = f.extract_seconds;
    } catch (...) {
      // A prefetch is advisory: swallow the failure so this worker thread
      // survives for the rest of the batch, and count it — the demand
      // fetch will surface the error with proper attribution (and its own
      // retry budget) if the ball is truly unreachable.
      failures_.fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (fetched) balls_fetched_.fetch_add(1, std::memory_order_relaxed);
    {
      util::MutexLock lock(mu_);
      hidden_seconds_ += extract_seconds;
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace meloppr::core
