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
/// proportional to the ball. One table serves every ball its thread
/// builds: prepare() blanks only the slots the previous ball used.
class BallIndex {
 public:
  /// Empties the table for a ball of at least `expected` members. The slot
  /// array is kept unless it is too small for `expected` or more than
  /// kMaxSlack times what both this and the previous ball need (a hub ball
  /// must not leave every later small ball probing a huge, cold table).
  void prepare(std::size_t expected) {
    const std::size_t target =
        std::max(capacity_for(expected), capacity_for(size_));
    if (slots_.size() < target || slots_.size() > kMaxSlack * target) {
      slots_ = std::vector<Slot>(target, Slot{kInvalidNode, kInvalidNode});
      set_geometry(target);
    } else {
      for (const std::size_t slot : used_) slots_[slot].global = kInvalidNode;
    }
    used_.clear();
    size_ = 0;
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
    used_.push_back(i);
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
  static constexpr std::size_t kMaxSlack = 8;

  /// Smallest power-of-two capacity (≥ kMinCapacity) holding `members` at
  /// load ≤ 1/2.
  [[nodiscard]] static std::size_t capacity_for(std::size_t members) {
    std::size_t capacity = kMinCapacity;
    while (capacity < 2 * members) capacity *= 2;
    return capacity;
  }

  /// Fibonacci hashing: the top log2(capacity) bits of id·2^64/φ, which
  /// spreads the runs of consecutive ids generators and loaders produce.
  [[nodiscard]] std::size_t home(NodeId global) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(global) * 0x9E3779B97F4A7C15ULL) >>
        shift_);
  }

  void set_geometry(std::size_t capacity) {
    mask_ = capacity - 1;
    shift_ = 64U - static_cast<unsigned>(std::countr_zero(capacity));
  }

  /// First empty slot on `global`'s probe sequence (`global` is absent).
  [[nodiscard]] std::size_t empty_slot(NodeId global) const {
    std::size_t i = home(global);
    while (slots_[i].global != kInvalidNode) i = (i + 1) & mask_;
    return i;
  }

  /// Doubles the table, re-placing the members in insertion order so
  /// `used_` stays the list of occupied slots.
  void grow() {
    std::vector<Slot> old(slots_.size() * 2, Slot{kInvalidNode, kInvalidNode});
    old.swap(slots_);
    set_geometry(slots_.size());
    for (std::size_t& slot : used_) {
      const Slot member = old[slot];
      slot = empty_slot(member.global);
      slots_[slot] = member;
    }
  }

  std::vector<Slot> slots_;
  /// Occupied slots, one per member: what the next prepare() blanks.
  std::vector<std::size_t> used_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

/// Per-thread working arrays of build_ball(). Their capacity survives from
/// ball to ball, so a warm thread assembles a ball without growing a
/// vector; the Subgraph gets exact-size copies.
struct BallScratch {
  BallIndex index;
  std::vector<NodeId> locals;           // local -> global; the BFS queue
  std::vector<std::uint16_t> depth;     // local -> BFS depth
  std::vector<std::uint64_t> offsets;   // induced CSR, built row by row
  std::vector<NodeId> targets;
  std::vector<std::uint32_t> global_degree;
};

template <typename T>
std::vector<T> exact_copy(const std::vector<T>& v) {
  return std::vector<T>(v.begin(), v.end());
}

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
  thread_local BallScratch scratch;
  BallIndex& index = scratch.index;
  std::vector<NodeId>& locals = scratch.locals;
  std::vector<std::uint16_t>& depth = scratch.depth;
  std::vector<std::uint64_t>& offsets = scratch.offsets;
  std::vector<NodeId>& targets = scratch.targets;
  std::vector<std::uint32_t>& global_degree = scratch.global_degree;

  std::span<const NodeId> row = rows.row(seed);
  index.prepare(row.size() + 1);
  index.find_or_insert(seed, 0);
  locals.assign(1, seed);
  depth.assign(1, 0);
  offsets.assign(1, 0);
  targets.clear();
  global_degree.clear();

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
  // `locals` doubles as the BFS queue: members are appended in discovery
  // order and scanned with a cursor.
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

  if (stats != nullptr) {
    stats->nodes_visited = locals.size();
    stats->arcs_scanned = arcs_scanned;
  }
  // Subgraph::bytes() charges capacity, so the ball gets exact-size arrays
  // and the scratch keeps its capacity for the next ball.
  return Subgraph(exact_copy(offsets), exact_copy(targets), exact_copy(locals),
                  exact_copy(global_degree), exact_copy(depth), radius);
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
