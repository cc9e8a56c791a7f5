// Global score aggregation (Sec. V-B "Data Transfer Reduction").
//
// Every per-ball diffusion contributes scores that must be summed into the
// global PPR vector S_L (Eq. 8). Two strategies:
//
//   ExactAggregator  — a hash map holding every touched node. Exact, but its
//                      footprint grows toward O(G_L(s)); this is what the
//                      CPU implementation uses.
//   TopCKAggregator  — the paper's FPGA strategy: a fixed-capacity table of
//                      the c·k best scores kept in BRAM. Insertions beyond
//                      capacity evict the current minimum, so late small
//                      contributions to evicted nodes are lost — the source
//                      of the <0.2% (c>8) / >3% (c<4) precision loss the
//                      paper measures. We default to c=10 as the paper does.
//
// Every reduction is serial: one thread applies one query's contributions
// in the engine's depth-first order, so results are bit-identical however
// the query's tasks were scheduled. make_serial_aggregator maps an
// AggregationMode (config.hpp) onto the two; clear() empties a table but
// keeps its storage, so one instance serves query after query.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "ppr/topk.hpp"

namespace meloppr::core {

using ppr::ScoredNode;

/// Interface for summing per-ball score contributions into a global view.
class ScoreAggregator {
 public:
  virtual ~ScoreAggregator() = default;

  /// Adds `delta` (possibly negative — the −α^l·S^r correction of Eq. 8)
  /// to `node`'s global score.
  virtual void add(graph::NodeId node, double delta) = 0;

  /// Current top-k by aggregated score.
  [[nodiscard]] virtual std::vector<ScoredNode> top(std::size_t k) const = 0;

  /// Number of nodes currently tracked.
  [[nodiscard]] virtual std::size_t entries() const = 0;

  /// Footprint charged by the memory model.
  [[nodiscard]] virtual std::size_t bytes() const = 0;

  virtual void clear() = 0;

  /// Entry capacity of a bounded table; 0 means unbounded (exact modes).
  [[nodiscard]] virtual std::size_t capacity() const { return 0; }

  /// Min-evictions performed by a bounded table (a fidelity diagnostic:
  /// zero evictions means bounded behaved exactly like exact). Always 0
  /// for unbounded aggregators.
  [[nodiscard]] virtual std::size_t evictions() const { return 0; }
};

/// Exact hash-map aggregation (CPU mode).
class ExactAggregator final : public ScoreAggregator {
 public:
  void add(graph::NodeId node, double delta) override;
  [[nodiscard]] std::vector<ScoredNode> top(std::size_t k) const override;
  [[nodiscard]] std::size_t entries() const override { return scores_.size(); }
  [[nodiscard]] std::size_t bytes() const override;
  void clear() override { scores_.clear(); }

  [[nodiscard]] const ppr::ScoreMap& scores() const { return scores_; }

 private:
  ppr::ScoreMap scores_;
};

/// Fixed-capacity top-(c·k) table (FPGA mode). Keeps the `capacity` largest
/// scores; an insertion into a full table evicts the minimum entry. Updates
/// to a node already present always succeed (matching the BRAM table, which
/// updates in place).
///
/// Storage is a fixed slot arena plus a lazy min-heap of (score snapshot,
/// slot) pairs, so the hot path is allocation-free and heap-free: a
/// positive in-place update is one hash lookup and one addition (its old
/// snapshots go stale *low*, which lazy eviction tolerates), a negative
/// update additionally pushes a fresh snapshot (so no live score can ever
/// sit below every one of its snapshots). Eviction pops snapshots,
/// refreshing stale ones, until one matches its live score — provably the
/// true minimum under the invariant above — which keeps min-eviction
/// exact at amortized O(log cap) while bounded mode keeps pace with the
/// exact hash map.
class TopCKAggregator final : public ScoreAggregator {
 public:
  /// capacity = c·k. `admit_epsilon` is the eviction hysteresis margin
  /// (MelopprConfig::topck_epsilon): a full table evicts its minimum only
  /// when the challenger beats it by more than ε·|min|; challengers inside
  /// the margin are dropped (counted by margin_drops(), fed into
  /// eviction_bound()), which cuts evict/readmit churn on scores within
  /// noise of each other. ε = 0 (default) is strict min-eviction,
  /// bit-identical to the pre-hysteresis table. Throws
  /// std::invalid_argument when capacity is zero or ε is negative/NaN.
  explicit TopCKAggregator(std::size_t capacity, double admit_epsilon = 0.0);

  void add(graph::NodeId node, double delta) override;
  [[nodiscard]] std::vector<ScoredNode> top(std::size_t k) const override;
  [[nodiscard]] std::size_t entries() const override { return slots_.size(); }
  [[nodiscard]] std::size_t bytes() const override;
  void clear() override;

  [[nodiscard]] std::size_t capacity() const override { return capacity_; }
  /// Number of evictions performed (a fidelity diagnostic: zero evictions
  /// means the table behaved exactly like the exact aggregator).
  [[nodiscard]] std::size_t evictions() const override { return evictions_; }

  /// Largest score ever displaced (evicted entry or dropped delta): any
  /// node whose every individual contribution exceeds this bound is
  /// guaranteed resident. -inf while nothing has been displaced. The
  /// certificate holds at any ε — a challenger dropped inside the
  /// hysteresis margin is recorded here at its own (possibly above-min)
  /// value, so the bound still dominates everything ever displaced.
  [[nodiscard]] double eviction_bound() const { return bound_; }

  /// Challengers that beat the minimum but fell inside the ε margin and
  /// were dropped instead of evicting (always 0 when ε = 0) — the churn
  /// the hysteresis removed.
  [[nodiscard]] std::size_t margin_drops() const { return margin_drops_; }
  [[nodiscard]] double admit_epsilon() const { return epsilon_; }

 private:
  struct Slot {
    graph::NodeId node;
    double score;
  };
  /// (score snapshot, slot) — refreshed lazily at eviction time.
  struct HeapEntry {
    double key;
    std::uint32_t slot;
  };
  static bool heap_after(const HeapEntry& a, const HeapEntry& b) {
    return a.key > b.key;
  }
  /// Settles the lazy heap until its front is an accurate snapshot and
  /// returns that slot — the true minimum (the entry stays in the heap).
  std::uint32_t settle_min();
  /// Discards every stale snapshot by rebuilding from the live slots,
  /// O(cap) — the growth guard that keeps the heap (and with it the
  /// advertised c·k memory envelope) bounded under snapshot churn.
  void rebuild_heap();
  /// Pushes a snapshot, rebuilding first when the heap has outgrown a
  /// small multiple of the capacity.
  void push_snapshot(double key, std::uint32_t slot);
  /// Re-validates min_slot_/min_score_ if needed. A cached minimum makes
  /// the drop path (most full-table adds) entirely heap-free: a drop
  /// cannot change the minimum, so the cache survives it.
  void refresh_min();

  std::size_t capacity_;
  double epsilon_;
  std::size_t evictions_ = 0;
  std::size_t margin_drops_ = 0;
  double bound_ = -std::numeric_limits<double>::infinity();
  bool min_valid_ = false;
  std::uint32_t min_slot_ = 0;
  double min_score_ = 0.0;
  std::unordered_map<graph::NodeId, std::uint32_t> index_;  ///< node → slot
  std::vector<Slot> slots_;      ///< live entries, dense
  std::vector<HeapEntry> heap_;  ///< lazy min-heap over live scores
};

/// Builds the aggregator for a serial reduction (Engine::query's DFS drain
/// and the pipeline's per-query replay of it): an exact map, or the
/// bounded c·k table whose results are bit-identical to the serial engine
/// for the same operation order. `epsilon` is the bounded table's eviction
/// hysteresis (MelopprConfig::topck_epsilon; ignored in exact mode).
[[nodiscard]] std::unique_ptr<ScoreAggregator> make_serial_aggregator(
    AggregationMode mode, std::size_t k, std::size_t c,
    double epsilon = 0.0);

}  // namespace meloppr::core
