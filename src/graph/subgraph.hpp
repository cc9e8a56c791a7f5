// BFS-ball sub-graph with local↔global relabeling.
//
// MeLoPPR never materializes state over the whole graph: every diffusion runs
// on the induced sub-graph of a depth-l BFS ball, with node ids relabeled to
// a dense local range [0, n). Two properties make the in-ball diffusion
// *exact* (DESIGN.md invariant 2):
//
//   1. Every node at depth < l keeps its complete adjacency list inside the
//      ball (all its neighbors are at depth ≤ l).
//   2. The random-walk matrix W = A·D⁻¹ divides by each node's **global**
//      degree, which the sub-graph stores per member node. Frontier nodes
//      (depth == l) have truncated adjacency, but a walk of length ≤ l never
//      steps out of them, so the truncation is unobservable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace meloppr::graph {

/// Immutable relabeled BFS ball. Local node 0 is always the BFS root.
class Subgraph {
 public:
  Subgraph() = default;

  /// Assembled by extract_ball(); all arrays are indexed by local id.
  Subgraph(std::vector<std::uint64_t> offsets, std::vector<NodeId> targets,
           std::vector<NodeId> local_to_global,
           std::vector<std::uint32_t> global_degree,
           std::vector<std::uint16_t> depth, unsigned radius);

  [[nodiscard]] std::size_t num_nodes() const {
    return local_to_global_.size();
  }

  /// Undirected edges inside the ball (arcs / 2).
  [[nodiscard]] std::size_t num_edges() const { return targets_.size() / 2; }
  [[nodiscard]] std::size_t num_arcs() const { return targets_.size(); }

  /// In-ball adjacency (local ids), sorted.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId local) const {
    return {targets_.data() + offsets_[local],
            targets_.data() + offsets_[local + 1]};
  }

  /// In-ball degree (may be smaller than global_degree for frontier nodes).
  [[nodiscard]] std::size_t local_degree(NodeId local) const {
    return static_cast<std::size_t>(offsets_[local + 1] - offsets_[local]);
  }

  /// Degree of the node in the *full* graph — the denominator of W.
  [[nodiscard]] std::uint32_t global_degree(NodeId local) const {
    return global_degree_[local];
  }

  /// Contiguous global-degree array (one entry per local id) — the SIMD
  /// diffusion kernels stream it lane-wise instead of calling
  /// global_degree() per element.
  [[nodiscard]] const std::uint32_t* global_degrees() const {
    return global_degree_.data();
  }

  [[nodiscard]] NodeId to_global(NodeId local) const {
    return local_to_global_[local];
  }

  /// Local id of a global node, or kInvalidNode if outside the ball.
  /// O(n): a linear scan of the relabeling table. A ball keeps no
  /// global→local index because no hot path looks members up by global id
  /// (diffusion, caching and aggregation all walk local ids); only tests
  /// call this, and DynamicGraph::touched_since scans local_to_global().
  [[nodiscard]] NodeId to_local(NodeId global) const;

  [[nodiscard]] bool contains(NodeId global) const {
    return to_local(global) != kInvalidNode;
  }

  /// BFS depth of a member node (root has depth 0).
  [[nodiscard]] std::uint16_t depth(NodeId local) const {
    return depth_[local];
  }

  /// depth_prefix()[d] = number of nodes with depth ≤ d, for d ∈ [0, radius].
  /// Valid because local ids follow BFS discovery order (checked at
  /// construction), so each depth class is a contiguous prefix of the id
  /// range — the property every bounded diffusion pass relies on.
  [[nodiscard]] std::span<const std::uint32_t> depth_prefix() const {
    return depth_prefix_;
  }

  /// The radius the ball was extracted with (≥ max depth present).
  [[nodiscard]] unsigned radius() const { return radius_; }

  /// Global id of the BFS root.
  [[nodiscard]] NodeId root_global() const { return local_to_global_[0]; }

  /// Nodes at depth == radius (candidates whose adjacency is truncated).
  [[nodiscard]] std::size_t frontier_count() const;

  /// Payload bytes of the sub-graph representation: CSR arrays, relabeling
  /// table, global-degree table, depth table and depth-prefix table (no
  /// membership index — see to_local()). This is the quantity MeLoPPR-CPU's
  /// memory meter charges per ball.
  [[nodiscard]] std::size_t bytes() const;

  /// Structural validation (sorted adjacency, symmetric arcs, depth
  /// consistency, no duplicate global id). Throws InvariantViolation.
  void validate() const;

  [[nodiscard]] std::string summary() const;

  [[nodiscard]] const std::vector<NodeId>& local_to_global() const {
    return local_to_global_;
  }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<NodeId> targets_;
  std::vector<NodeId> local_to_global_;
  std::vector<std::uint32_t> global_degree_;
  std::vector<std::uint16_t> depth_;
  /// depth_prefix_[d] = count of nodes with depth ≤ d (see depth_prefix()).
  std::vector<std::uint32_t> depth_prefix_;
  unsigned radius_ = 0;
};

}  // namespace meloppr::graph
