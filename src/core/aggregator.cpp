#include "core/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/assert.hpp"

namespace meloppr::core {

void ExactAggregator::add(graph::NodeId node, double delta) {
  scores_[node] += delta;
}

std::vector<ScoredNode> ExactAggregator::top(std::size_t k) const {
  return ppr::top_k(scores_, k);
}

std::size_t ExactAggregator::bytes() const {
  // unordered_map footprint: bucket array + one heap node per entry
  // (key+value+next pointer, rounded to malloc granularity).
  const std::size_t per_entry =
      sizeof(graph::NodeId) + sizeof(double) + 2 * sizeof(void*);
  return scores_.bucket_count() * sizeof(void*) +
         scores_.size() * per_entry;
}

TopCKAggregator::TopCKAggregator(std::size_t capacity, double admit_epsilon)
    : capacity_(capacity), epsilon_(admit_epsilon) {
  if (capacity == 0) {
    throw std::invalid_argument("TopCKAggregator: capacity must be positive");
  }
  if (!(admit_epsilon >= 0.0)) {  // rejects negatives and NaN
    throw std::invalid_argument(
        "TopCKAggregator: admit_epsilon must be non-negative");
  }
  index_.reserve(capacity);
  slots_.reserve(capacity);
  heap_.reserve(2 * capacity);
}

void TopCKAggregator::rebuild_heap() {
  heap_.clear();
  heap_.reserve(2 * capacity_);
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    heap_.push_back({slots_[s].score, s});
  }
  std::make_heap(heap_.begin(), heap_.end(), heap_after);
}

void TopCKAggregator::push_snapshot(double key, std::uint32_t slot) {
  // Every snapshot producer funnels through here so the growth guard
  // catches all churn — in particular long negative-update streams that
  // never reach settle_min() (the table not full, or drops keeping the
  // cached minimum valid) must not outgrow the c·k memory envelope.
  if (heap_.size() > 4 * capacity_ + 8) {
    rebuild_heap();
    return;  // the rebuild snapshots every live slot, `slot` included
  }
  heap_.push_back({key, slot});
  std::push_heap(heap_.begin(), heap_.end(), heap_after);
}

std::uint32_t TopCKAggregator::settle_min() {
  // Lazy-heap invariant: every live slot always has at least one heap
  // entry with key ≤ its live score (inserts and negative updates push a
  // fresh snapshot; positive in-place updates only make old snapshots
  // stale *low*). Settling in key order therefore meets only stale or
  // re-tenanted snapshots before the first accurate one, and the first
  // accurate snapshot is the true minimum.
  for (;;) {
    if (heap_.empty()) rebuild_heap();
    const HeapEntry e = heap_.front();
    if (slots_[e.slot].score == e.key) return e.slot;
    // Stale (score moved since the snapshot) or re-tenanted slot: refresh.
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.back() = {slots_[e.slot].score, e.slot};
    std::push_heap(heap_.begin(), heap_.end(), heap_after);
  }
}

void TopCKAggregator::refresh_min() {
  if (min_valid_) return;
  min_slot_ = settle_min();
  min_score_ = slots_[min_slot_].score;
  min_valid_ = true;
}

void TopCKAggregator::add(graph::NodeId node, double delta) {
  const auto it = index_.find(node);
  if (it != index_.end()) {
    // In-place BRAM update: always allowed, no eviction. Only decreases
    // need a fresh snapshot (see settle_min); the common positive update
    // is one addition, no heap traffic.
    const auto slot = it->second;
    Slot& entry = slots_[slot];
    entry.score += delta;
    if (delta < 0.0) {
      push_snapshot(entry.score, slot);
      if (min_valid_ && entry.score < min_score_) {
        // Sank below the cached minimum — it is the minimum now.
        min_slot_ = slot;
        min_score_ = entry.score;
      } else if (min_valid_ && slot == min_slot_) {
        min_score_ = entry.score;
      }
    } else if (min_valid_ && slot == min_slot_) {
      // The cached minimum rose; some other slot may be smaller now.
      min_valid_ = false;
    }
    return;
  }
  if (slots_.size() < capacity_) {
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back({node, delta});
    push_snapshot(delta, slot);
    index_.emplace(node, slot);
    if (min_valid_ && delta < min_score_) {
      min_slot_ = slot;
      min_score_ = delta;
    }
    return;
  }
  // Full: the new score competes with the current minimum. Contributions
  // smaller than the table minimum — or inside the ε·|min| hysteresis
  // margin above it — are dropped: this is where precision loss for small
  // c comes from, and where the margin suppresses evict/readmit churn on
  // boundary noise. A drop leaves the minimum unchanged, so the cached
  // minimum makes it heap-free. Either way the losing score feeds the
  // eviction bound, the table's own fidelity certificate.
  refresh_min();
  if (delta <= min_score_ + epsilon_ * std::abs(min_score_)) {
    bound_ = std::max(bound_, delta);
    if (delta > min_score_) ++margin_drops_;
    return;
  }
  bound_ = std::max(bound_, min_score_);
  ++evictions_;
  index_.erase(slots_[min_slot_].node);
  slots_[min_slot_] = {node, delta};
  index_.emplace(node, min_slot_);
  push_snapshot(delta, min_slot_);
  min_valid_ = false;  // the old minimum's slot now holds a larger score
}

std::vector<ScoredNode> TopCKAggregator::top(std::size_t k) const {
  std::vector<ScoredNode> all;
  all.reserve(slots_.size());
  for (const Slot& slot : slots_) all.push_back({slot.node, slot.score});
  return ppr::top_k(std::move(all), k);
}

std::size_t TopCKAggregator::bytes() const {
  // The hardware table is `capacity` slots of (node id, 32-bit score) plus a
  // comparator tree; model as capacity × 8 bytes, matching the BRAM budget
  // the paper reserves for the global score table.
  return capacity_ * (sizeof(graph::NodeId) + sizeof(std::uint32_t));
}

void TopCKAggregator::clear() {
  // The vectors keep their capacity and the map its buckets, so a reused
  // table (one per pipeline worker) aggregates into warm storage.
  index_.clear();
  slots_.clear();
  heap_.clear();
  evictions_ = 0;
  margin_drops_ = 0;
  min_valid_ = false;
  bound_ = -std::numeric_limits<double>::infinity();
}

std::unique_ptr<ScoreAggregator> make_serial_aggregator(AggregationMode mode,
                                                        std::size_t k,
                                                        std::size_t c,
                                                        double epsilon) {
  if (mode == AggregationMode::kBounded) {
    return std::make_unique<TopCKAggregator>(std::max<std::size_t>(1, c * k),
                                             epsilon);
  }
  return std::make_unique<ExactAggregator>();
}

}  // namespace meloppr::core
