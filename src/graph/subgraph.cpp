#include "graph/subgraph.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace meloppr::graph {

Subgraph::Subgraph(std::vector<std::uint64_t> offsets,
                   std::vector<NodeId> targets,
                   std::vector<NodeId> local_to_global,
                   std::vector<std::uint32_t> global_degree,
                   std::vector<std::uint16_t> depth, unsigned radius)
    : offsets_(std::move(offsets)),
      targets_(std::move(targets)),
      local_to_global_(std::move(local_to_global)),
      global_degree_(std::move(global_degree)),
      depth_(std::move(depth)),
      radius_(radius) {
  const std::size_t n = local_to_global_.size();
  MELO_CHECK(offsets_.size() == n + 1);
  MELO_CHECK(global_degree_.size() == n);
  MELO_CHECK(depth_.size() == n);
  MELO_CHECK(offsets_.front() == 0);
  MELO_CHECK(offsets_.back() == targets_.size());
  MELO_CHECK(n > 0);
  MELO_CHECK(depth_[0] == 0);

  // Depth-prefix table: local ids are assigned in BFS discovery order, so
  // depth is nondecreasing in local id and each depth class is a contiguous
  // id range. The diffusion kernels bound every per-iteration pass with
  // these prefixes; precomputing them here (once per extraction) removes an
  // O(n) pass from every diffuse call.
  depth_prefix_.assign(radius_ + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    MELO_CHECK_MSG(v == 0 || depth_[v] >= depth_[v - 1],
                   "local ids not in BFS depth order");
    MELO_CHECK(depth_[v] <= radius_);
    ++depth_prefix_[depth_[v]];
  }
  std::uint32_t running = 0;
  for (std::uint32_t& p : depth_prefix_) {
    running += p;
    p = running;
  }
}

NodeId Subgraph::to_local(NodeId global) const {
  const auto it =
      std::find(local_to_global_.begin(), local_to_global_.end(), global);
  if (it == local_to_global_.end()) return kInvalidNode;
  return static_cast<NodeId>(it - local_to_global_.begin());
}

std::size_t Subgraph::frontier_count() const {
  std::size_t count = 0;
  for (auto d : depth_) {
    if (d == radius_) ++count;
  }
  return count;
}

std::size_t Subgraph::bytes() const {
  return offsets_.capacity() * sizeof(std::uint64_t) +
         targets_.capacity() * sizeof(NodeId) +
         local_to_global_.capacity() * sizeof(NodeId) +
         global_degree_.capacity() * sizeof(std::uint32_t) +
         depth_.capacity() * sizeof(std::uint16_t) +
         depth_prefix_.capacity() * sizeof(std::uint32_t);
}

void Subgraph::validate() const {
  const std::size_t n = num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    const auto adj = neighbors(v);
    for (std::size_t i = 0; i < adj.size(); ++i) {
      MELO_CHECK(adj[i] < n);
      MELO_CHECK(adj[i] != v);
      if (i > 0) MELO_CHECK(adj[i - 1] < adj[i]);
    }
    MELO_CHECK_MSG(local_degree(v) <= global_degree(v),
                   "in-ball degree exceeds global degree at local " << v);
    // Interior nodes must keep their complete adjacency (exactness).
    if (depth_[v] < radius_) {
      MELO_CHECK_MSG(local_degree(v) == global_degree(v),
                     "interior node " << v << " (depth " << depth_[v]
                                      << ") lost neighbors");
    }
    // Depth consistency: neighbors differ by at most one BFS level.
    for (NodeId w : adj) {
      const int dv = depth_[v];
      const int dw = depth_[w];
      MELO_CHECK_MSG(std::abs(dv - dw) <= 1,
                     "BFS depth jump between locals " << v << " and " << w);
    }
  }
  // Symmetry of arcs.
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : neighbors(v)) {
      const auto adj = neighbors(w);
      MELO_CHECK(std::binary_search(adj.begin(), adj.end(), v));
    }
  }
  // Relabeling is injective: no global id appears twice.
  std::vector<NodeId> globals = local_to_global_;
  std::sort(globals.begin(), globals.end());
  MELO_CHECK_MSG(
      std::adjacent_find(globals.begin(), globals.end()) == globals.end(),
      "duplicate global id in sub-graph");
}

std::string Subgraph::summary() const {
  std::ostringstream os;
  os << "ball(root=" << root_global() << ", r=" << radius_
     << "): |V|=" << num_nodes() << " |E|=" << num_edges()
     << " frontier=" << frontier_count();
  return os.str();
}

}  // namespace meloppr::graph
