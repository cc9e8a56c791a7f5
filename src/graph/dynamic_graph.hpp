// Streaming edge updates over the immutable CSR graph.
//
// Everything below the serving layer was built against a frozen Graph, but
// the workloads the paper's ball decomposition targets — recommender churn,
// citation growth — mutate continuously. DynamicGraph keeps the CSR base
// untouched and layers a per-vertex delta overlay (sorted added/removed
// adjacency) on top, so:
//
//   * apply(EdgeUpdate) is O(degree) under a writer lock, not an O(|E|)
//     CSR rebuild;
//   * extract_ball() is graph::build_ball — the builder behind
//     graph::extract_ball — fed the merged adjacency (base − removed +
//     added, kept sorted) as its row source, so a ball extracted
//     incrementally is byte-identical to one extracted from a
//     from-scratch rebuild at the same version — the property the
//     equivalence suite asserts across every generator family;
//   * a monotonically increasing version() stamps every state: queries
//     record it at admission, cached balls record it at extraction, and
//     the cache compares the two to decide staleness.
//
// Concurrency contract: apply() takes the unique lock; extraction,
// materialize(), and the touched-since probe take the shared lock for
// their whole traversal. An in-flight extraction therefore serializes
// against updates and owns an exact version stamp — there is no state in
// which a ball is "half a version". Update listeners (the cache's
// invalidation hook) run inside apply() under the unique lock BEFORE the
// version counter is bumped, which yields the serving invariant:
//
//   any thread that observes version() >= V also observes a cache already
//   purged of every ball invalidated by updates <= V.
//
// Listeners must not call back into this DynamicGraph (self-deadlock) and
// must order any locks they take strictly AFTER this graph's lock.
//
// Compaction folds the overlay back into the CSR base once it exceeds
// compaction_fraction of the base arcs. It happens in place, under the
// writer lock, and does NOT change the version: the logical graph is
// unchanged, only its representation. The Graph object's address is stable
// for the DynamicGraph's lifetime.
//
// The node universe is fixed at construction (CSR cannot grow rows);
// updates may only rewire edges among existing nodes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "util/thread_annotations.hpp"

namespace meloppr::graph {

/// One streaming mutation: insert or delete the undirected edge {u, v}.
struct EdgeUpdate {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  /// true = insert (edge must be absent), false = delete (must be present).
  bool insert = true;
};

struct DynamicGraphConfig {
  /// Fold the overlay into the CSR base once delta half-edges exceed this
  /// fraction of the base arc count (checked after each apply). 0 disables
  /// automatic compaction.
  double compaction_fraction = 0.25;
  /// Applied updates kept for touched_since() staleness probes. Probes
  /// reaching past the window answer conservatively ("touched").
  std::size_t history_capacity = 4096;
};

/// CSR base + delta overlay with a version counter and update listeners.
class DynamicGraph {
 public:
  explicit DynamicGraph(Graph base, DynamicGraphConfig config = {});

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  /// Applies one update and returns the new version. Throws
  /// std::invalid_argument on self-loops, out-of-range endpoints,
  /// inserting a present edge, or deleting an absent one — updates are
  /// all-or-nothing, an invalid one changes neither state nor version.
  std::uint64_t apply(const EdgeUpdate& update);

  /// Number of updates applied so far; monotone, never reused. Reading it
  /// is a single acquire load — safe from any thread.
  [[nodiscard]] std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t num_nodes() const;
  /// Current logical undirected edge count (base ± overlay).
  [[nodiscard]] std::size_t num_edges() const;
  [[nodiscard]] std::size_t degree(NodeId v) const;
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Delta half-edges currently in the overlay (0 right after compaction).
  [[nodiscard]] std::size_t delta_edges() const;
  [[nodiscard]] std::size_t compactions() const;

  /// BFS ball over the merged adjacency. Bit-identical to
  /// graph::extract_ball(materialize(), root, radius) — same discovery
  /// order, same induced CSR, same throws (out-of-range / isolated seed).
  /// If `version_out` is non-null it receives the version the extraction
  /// observed, captured under the same shared lock as the traversal.
  [[nodiscard]] Subgraph extract_ball(NodeId root, unsigned radius,
                                      std::uint64_t* version_out = nullptr) const;

  /// Full CSR rebuild of the current logical graph (the reference the
  /// equivalence tests compare against).
  [[nodiscard]] Graph materialize() const;

  /// True if any update with version in (since_version, version()] touched
  /// a vertex of `ball` — i.e. whether a ball extracted at since_version
  /// may now be stale. Conservative: answers true when the history window
  /// no longer reaches back to since_version. `checked_version_out`, if
  /// non-null, receives the version the answer is valid for (captured
  /// under the same shared lock).
  [[nodiscard]] bool touched_since(const Subgraph& ball,
                                   std::uint64_t since_version,
                                   std::uint64_t* checked_version_out =
                                       nullptr) const;

  /// Listener invoked inside apply() under the writer lock, before the
  /// version bump becomes visible. Receives the update and the version it
  /// will be published as. Returns an id for remove_listener(). Register
  /// before concurrent use; removal must not race apply().
  using UpdateListener =
      std::function<void(const EdgeUpdate&, std::uint64_t version)>;
  std::size_t add_update_listener(UpdateListener listener);
  void remove_listener(std::size_t id);

 private:
  struct VertexDelta {
    std::vector<NodeId> added;    ///< sorted, disjoint from base adjacency
    std::vector<NodeId> removed;  ///< sorted, subset of base adjacency
  };
  /// The merged-adjacency RowSource extract_ball() hands to build_ball().
  class MergedRows;

  // The _locked helpers require mu_ held (shared suffices unless noted).
  [[nodiscard]] bool has_edge_locked(NodeId u, NodeId v) const
      MELOPPR_REQUIRES_SHARED(mu_);
  [[nodiscard]] std::size_t degree_locked(NodeId v) const
      MELOPPR_REQUIRES_SHARED(mu_);
  void compact_locked() MELOPPR_REQUIRES(mu_);
  [[nodiscard]] Graph materialize_locked() const
      MELOPPR_REQUIRES_SHARED(mu_);

  mutable util::SharedMutex mu_;
  /// by value: address stable across compactions. Guarded — compaction
  /// swaps in a folded CSR under the writer lock; the fixed quantities
  /// (node count) are cached unguarded below.
  Graph base_ MELOPPR_GUARDED_BY(mu_);
  DynamicGraphConfig config_;
  /// Node universe size, fixed at construction — the one base_ property
  /// compaction can never change, so it is readable without the lock.
  std::size_t num_nodes_ = 0;
  std::unordered_map<NodeId, VertexDelta> deltas_ MELOPPR_GUARDED_BY(mu_);
  /// Σ (added.size() + removed.size())
  std::size_t delta_half_edges_ MELOPPR_GUARDED_BY(mu_) = 0;
  /// current logical undirected edges
  std::size_t num_edges_ MELOPPR_GUARDED_BY(mu_) = 0;
  std::size_t compactions_ MELOPPR_GUARDED_BY(mu_) = 0;

  struct HistoryEntry {
    EdgeUpdate update;
    std::uint64_t version = 0;
  };
  /// versions ascending, bounded window
  std::deque<HistoryEntry> history_ MELOPPR_GUARDED_BY(mu_);

  struct ListenerSlot {
    std::size_t id = 0;
    UpdateListener fn;
  };
  std::vector<ListenerSlot> listeners_ MELOPPR_GUARDED_BY(mu_);
  std::size_t next_listener_id_ MELOPPR_GUARDED_BY(mu_) = 1;

  std::atomic<std::uint64_t> version_{0};
};

}  // namespace meloppr::graph
