// Depth-limited BFS and ball extraction — the CPU-side "sub-graph
// preparation" step of the paper's co-design (Fig. 4: "BFS from seed",
// "BFS from v_i1", ...). Its wall-clock share of a query is the light-blue
// "BFS time percentage" bar in Fig. 7.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/subgraph.hpp"

namespace meloppr::graph {

/// Statistics of one extraction, fed to latency/memory accounting.
struct BfsStats {
  std::size_t nodes_visited = 0;
  std::size_t arcs_scanned = 0;  ///< adjacency entries touched by the BFS
};

/// Where build_ball() reads adjacency from. row(v) is v's sorted,
/// duplicate-free, self-loop-free neighbor list (global ids); the span only
/// has to stay valid until the next row() call, so a source may assemble
/// rows in one scratch buffer.
class RowSource {
 public:
  virtual ~RowSource() = default;
  [[nodiscard]] virtual std::span<const NodeId> row(NodeId v) = 0;
};

/// The one ball builder: BFS from `seed` to depth `radius` over `rows`, then
/// the induced, relabeled CSR of the ball. Local ids follow BFS discovery
/// order (neighbors visited in row order); each member's row is read
/// exactly once. Global→local lookups go through a flat open-addressing
/// index sized from the ball and doubled as it fills, so allocation is
/// proportional to the ball, never to the full graph — the whole point of
/// MeLoPPR is that queries must not touch O(|V|) state.
///
/// The index and the working arrays are per-thread scratch reused from
/// ball to ball (the returned Subgraph owns exact-size copies), so
/// concurrent callers are safe, but a RowSource must not itself call
/// build_ball() from row().
///
/// `seed` must be a valid node of the source. Callers validate it (and
/// reject isolated seeds), since only they know their node range.
Subgraph build_ball(RowSource& rows, NodeId seed, unsigned radius,
                    BfsStats* stats = nullptr);

/// Extracts the induced sub-graph of the depth-`radius` BFS ball around
/// `seed` (build_ball() over the CSR rows of `g`).
///
/// Throws std::invalid_argument for an out-of-range or isolated seed.
Subgraph extract_ball(const Graph& g, NodeId seed, unsigned radius,
                      BfsStats* stats = nullptr);

/// Plain depth-limited BFS returning the global ids reachable within
/// `radius` (including the seed), in BFS order. Used by tests as an oracle
/// and by callers that only need reachability.
std::vector<NodeId> bfs_nodes(const Graph& g, NodeId seed, unsigned radius);

/// Eccentricity-bounded distance: hops from `from` to `to`, or -1 if `to`
/// is farther than `max_radius`. Reference implementation for tests.
int bounded_distance(const Graph& g, NodeId from, NodeId to,
                     unsigned max_radius);

}  // namespace meloppr::graph
