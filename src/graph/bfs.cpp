#include "graph/bfs.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "util/assert.hpp"

namespace meloppr::graph {
namespace {

/// Global→local map of one ball: a power-of-two slot array with linear
/// probing, kInvalidNode marking an empty slot. The capacity doubles
/// whenever an insert would push the load past 1/2, so the table stays
/// proportional to the ball.
class BallIndex {
 public:
  explicit BallIndex(std::size_t expected) {
    std::size_t capacity = kMinCapacity;
    while (capacity < 2 * expected) capacity *= 2;
    reset(capacity);
  }

  /// Local id of `global`, inserting it as `next_local` if absent (the
  /// caller detects an insert by the return value equalling next_local).
  NodeId find_or_insert(NodeId global, NodeId next_local) {
    std::size_t i = home(global);
    for (; slots_[i].global != kInvalidNode; i = (i + 1) & mask_) {
      if (slots_[i].global == global) return slots_[i].local;
    }
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      i = empty_slot(global);
    }
    slots_[i] = {global, next_local};
    ++size_;
    return next_local;
  }

  /// Local id of `global`, or kInvalidNode if it is not a member.
  [[nodiscard]] NodeId find(NodeId global) const {
    for (std::size_t i = home(global);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.global == global) return slot.local;
      if (slot.global == kInvalidNode) return kInvalidNode;
    }
  }

 private:
  struct Slot {
    NodeId global;
    NodeId local;
  };
  static constexpr std::size_t kMinCapacity = 64;

  /// Fibonacci hashing: the top log2(capacity) bits of id·2^64/φ, which
  /// spreads the runs of consecutive ids generators and loaders produce.
  [[nodiscard]] std::size_t home(NodeId global) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(global) * 0x9E3779B97F4A7C15ULL) >>
        shift_);
  }

  void reset(std::size_t capacity) {
    slots_.assign(capacity, Slot{kInvalidNode, kInvalidNode});
    mask_ = capacity - 1;
    shift_ = 64U - static_cast<unsigned>(std::countr_zero(capacity));
  }

  /// First empty slot on `global`'s probe sequence (`global` is absent).
  [[nodiscard]] std::size_t empty_slot(NodeId global) const {
    std::size_t i = home(global);
    while (slots_[i].global != kInvalidNode) i = (i + 1) & mask_;
    return i;
  }

  void grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    reset(old.size() * 2);
    for (const Slot& slot : old) {
      if (slot.global != kInvalidNode) slots_[empty_slot(slot.global)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

class CsrRows final : public RowSource {
 public:
  explicit CsrRows(const Graph& g) : g_(g) {}
  std::span<const NodeId> row(NodeId v) override { return g_.neighbors(v); }

 private:
  const Graph& g_;
};

}  // namespace

Subgraph build_ball(RowSource& rows, NodeId seed, unsigned radius,
                    BfsStats* stats) {
  std::span<const NodeId> row = rows.row(seed);
  BallIndex index(row.size() + 1);
  index.find_or_insert(seed, 0);

  // `locals` doubles as the BFS queue: members are appended in discovery
  // order and scanned with a cursor.
  std::vector<NodeId> locals;           // local -> global
  std::vector<std::uint16_t> depth;     // local -> BFS depth
  std::vector<std::uint64_t> offsets;   // induced CSR, built row by row
  std::vector<NodeId> targets;
  std::vector<std::uint32_t> global_degree;
  locals.push_back(seed);
  depth.push_back(0);
  offsets.push_back(0);

  // Closes member `lu`'s induced row. Local ids are assigned in BFS order,
  // not global order, so the row is re-sorted to satisfy the Subgraph
  // invariant.
  const auto close_row = [&](std::size_t lu, std::size_t row_size) {
    global_degree.push_back(static_cast<std::uint32_t>(row_size));
    std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[lu]),
              targets.end());
    offsets.push_back(targets.size());
  };

  // Interior members (depth < radius) are a prefix of the BFS order. Every
  // neighbor of one becomes a member while it is expanded, so its induced
  // row is its whole row, appended as the probes return the local ids.
  std::size_t arcs_scanned = 0;
  std::size_t lu = 0;
  for (; lu < locals.size() && depth[lu] < radius; ++lu) {
    if (lu != 0) row = rows.row(locals[lu]);
    const auto next_depth = static_cast<std::uint16_t>(depth[lu] + 1);
    for (const NodeId w : row) {
      const auto next_local = static_cast<NodeId>(locals.size());
      const NodeId lw = index.find_or_insert(w, next_local);
      if (lw == next_local) {
        locals.push_back(w);
        depth.push_back(next_depth);
      }
      targets.push_back(lw);
    }
    arcs_scanned += row.size();
    close_row(lu, row.size());
  }
  // Frontier members (depth == radius) are never expanded: membership is
  // final, and their rows are truncated to the members — which diffusion
  // never observes.
  for (; lu < locals.size(); ++lu) {
    if (lu != 0) row = rows.row(locals[lu]);
    for (const NodeId w : row) {
      const NodeId lw = index.find(w);
      if (lw != kInvalidNode) targets.push_back(lw);
    }
    close_row(lu, row.size());
  }

  // Subgraph::bytes() charges capacity, so the arrays whose final size is
  // only known now are trimmed to it.
  offsets.shrink_to_fit();
  targets.shrink_to_fit();
  global_degree.shrink_to_fit();
  if (stats != nullptr) {
    stats->nodes_visited = locals.size();
    stats->arcs_scanned = arcs_scanned;
  }
  return Subgraph(std::move(offsets), std::move(targets), std::move(locals),
                  std::move(global_degree), std::move(depth), radius);
}

Subgraph extract_ball(const Graph& g, NodeId seed, unsigned radius,
                      BfsStats* stats) {
  if (seed >= g.num_nodes()) {
    throw std::invalid_argument("extract_ball: seed " + std::to_string(seed) +
                                " out of range");
  }
  if (g.degree(seed) == 0) {
    throw std::invalid_argument("extract_ball: seed " + std::to_string(seed) +
                                " is isolated");
  }
  CsrRows rows(g);
  return build_ball(rows, seed, radius, stats);
}

std::vector<NodeId> bfs_nodes(const Graph& g, NodeId seed, unsigned radius) {
  MELO_CHECK(seed < g.num_nodes());
  std::unordered_map<NodeId, std::uint16_t> dist;
  std::vector<NodeId> order;
  dist.emplace(seed, 0);
  order.push_back(seed);
  for (std::size_t cursor = 0; cursor < order.size(); ++cursor) {
    const NodeId u = order[cursor];
    const std::uint16_t d = dist.at(u);
    if (d >= radius) continue;
    for (NodeId w : g.neighbors(u)) {
      if (dist.emplace(w, static_cast<std::uint16_t>(d + 1)).second) {
        order.push_back(w);
      }
    }
  }
  return order;
}

int bounded_distance(const Graph& g, NodeId from, NodeId to,
                     unsigned max_radius) {
  MELO_CHECK(from < g.num_nodes() && to < g.num_nodes());
  if (from == to) return 0;
  std::unordered_map<NodeId, std::uint16_t> dist;
  std::vector<NodeId> queue;
  dist.emplace(from, 0);
  queue.push_back(from);
  for (std::size_t cursor = 0; cursor < queue.size(); ++cursor) {
    const NodeId u = queue[cursor];
    const std::uint16_t d = dist.at(u);
    if (d >= max_radius) continue;
    for (NodeId w : g.neighbors(u)) {
      if (dist.emplace(w, static_cast<std::uint16_t>(d + 1)).second) {
        if (w == to) return d + 1;
        queue.push_back(w);
      }
    }
  }
  return -1;
}

}  // namespace meloppr::graph
