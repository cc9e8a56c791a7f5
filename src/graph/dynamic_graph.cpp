#include "graph/dynamic_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"

namespace meloppr::graph {
namespace {

/// Inserts `v` into a sorted vector if absent; returns true when inserted.
bool sorted_insert(std::vector<NodeId>& vec, NodeId v) {
  const auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it != vec.end() && *it == v) return false;
  vec.insert(it, v);
  return true;
}

/// Removes `v` from a sorted vector if present; returns true when removed.
bool sorted_erase(std::vector<NodeId>& vec, NodeId v) {
  const auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it == vec.end() || *it != v) return false;
  vec.erase(it);
  return true;
}

bool sorted_contains(const std::vector<NodeId>& vec, NodeId v) {
  return std::binary_search(vec.begin(), vec.end(), v);
}

}  // namespace

DynamicGraph::DynamicGraph(Graph base, DynamicGraphConfig config)
    : base_(std::move(base)),
      config_(config),
      num_nodes_(base_.num_nodes()),
      num_edges_(base_.num_edges()) {
  if (config_.compaction_fraction < 0.0) {
    throw std::invalid_argument(
        "DynamicGraph: compaction_fraction must be >= 0");
  }
}

std::uint64_t DynamicGraph::apply(const EdgeUpdate& update) {
  util::WriterLock lock(mu_);
  const std::size_t n = num_nodes_;
  if (update.u >= n || update.v >= n) {
    throw std::invalid_argument("DynamicGraph::apply: endpoint out of range");
  }
  if (update.u == update.v) {
    throw std::invalid_argument("DynamicGraph::apply: self-loop");
  }
  const bool present = has_edge_locked(update.u, update.v);
  if (update.insert && present) {
    throw std::invalid_argument(
        "DynamicGraph::apply: insert of edge already present {" +
        std::to_string(update.u) + ", " + std::to_string(update.v) + "}");
  }
  if (!update.insert && !present) {
    throw std::invalid_argument(
        "DynamicGraph::apply: delete of absent edge {" +
        std::to_string(update.u) + ", " + std::to_string(update.v) + "}");
  }

  // Mutate both half-edges. An insert that undoes a prior delete shrinks
  // the overlay instead of growing it, and vice versa.
  const auto apply_half = [&](NodeId from, NodeId to) {
    VertexDelta& delta = deltas_[from];
    if (update.insert) {
      if (sorted_erase(delta.removed, to)) {
        --delta_half_edges_;
      } else {
        sorted_insert(delta.added, to);
        ++delta_half_edges_;
      }
    } else {
      if (sorted_erase(delta.added, to)) {
        --delta_half_edges_;
      } else {
        sorted_insert(delta.removed, to);
        ++delta_half_edges_;
      }
    }
    if (delta.added.empty() && delta.removed.empty()) deltas_.erase(from);
  };
  apply_half(update.u, update.v);
  apply_half(update.v, update.u);
  num_edges_ += update.insert ? 1 : static_cast<std::size_t>(-1);

  const std::uint64_t next = version_.load(std::memory_order_relaxed) + 1;
  history_.push_back({update, next});
  while (history_.size() > config_.history_capacity) history_.pop_front();

  // Listeners (cache invalidation) run BEFORE the version bump publishes:
  // a thread observing version >= next also observes the purged cache.
  for (const ListenerSlot& slot : listeners_) slot.fn(update, next);
  version_.store(next, std::memory_order_release);

  if (config_.compaction_fraction > 0.0) {
    const std::size_t threshold = std::max<std::size_t>(
        64, static_cast<std::size_t>(config_.compaction_fraction *
                                     static_cast<double>(base_.num_arcs())));
    if (delta_half_edges_ >= threshold) compact_locked();
  }
  return next;
}

std::size_t DynamicGraph::num_nodes() const {
  // The node universe is fixed at construction; no lock needed.
  return num_nodes_;
}

std::size_t DynamicGraph::num_edges() const {
  util::ReaderLock lock(mu_);
  return num_edges_;
}

std::size_t DynamicGraph::degree(NodeId v) const {
  util::ReaderLock lock(mu_);
  if (v >= num_nodes_) {
    throw std::invalid_argument("DynamicGraph::degree: node out of range");
  }
  return degree_locked(v);
}

bool DynamicGraph::has_edge(NodeId u, NodeId v) const {
  util::ReaderLock lock(mu_);
  if (u >= num_nodes_ || v >= num_nodes_) return false;
  return has_edge_locked(u, v);
}

std::size_t DynamicGraph::delta_edges() const {
  util::ReaderLock lock(mu_);
  return delta_half_edges_;
}

std::size_t DynamicGraph::compactions() const {
  util::ReaderLock lock(mu_);
  return compactions_;
}

bool DynamicGraph::has_edge_locked(NodeId u, NodeId v) const {
  const auto it = deltas_.find(u);
  if (it != deltas_.end()) {
    if (sorted_contains(it->second.added, v)) return true;
    if (sorted_contains(it->second.removed, v)) return false;
  }
  return base_.has_edge(u, v);
}

std::size_t DynamicGraph::degree_locked(NodeId v) const {
  std::size_t d = base_.degree(v);
  const auto it = deltas_.find(v);
  if (it != deltas_.end()) {
    d += it->second.added.size();
    d -= it->second.removed.size();
  }
  return d;
}

/// Merged adjacency rows for build_ball(): base − removed + added. Rows
/// without a delta are served straight from the CSR base; the rest are
/// merged into one scratch buffer, which build_ball() allows because it
/// reads each row before asking for the next. Built under the caller's
/// shared lock and used only while it is held.
class DynamicGraph::MergedRows final : public RowSource {
 public:
  MergedRows(const Graph& base,
             const std::unordered_map<NodeId, VertexDelta>& deltas)
      : base_(base), deltas_(deltas) {}

  std::span<const NodeId> row(NodeId v) override {
    const std::span<const NodeId> base = base_.neighbors(v);
    const auto it = deltas_.find(v);
    if (it == deltas_.end()) return base;
    const std::vector<NodeId>& added = it->second.added;
    const std::vector<NodeId>& removed = it->second.removed;
    scratch_.clear();
    scratch_.reserve(base.size() + added.size());
    // One sorted pass: base minus removed, merged with added. `removed` is
    // a subset of base and `added` is disjoint from it, so plain merge
    // keeps the row sorted and duplicate-free — the GraphBuilder invariant
    // a from-scratch rebuild would produce, which is what makes the BFS
    // discovery order identical to the rebuilt graph's.
    std::size_t bi = 0;
    std::size_t ai = 0;
    std::size_t ri = 0;
    while (bi < base.size() || ai < added.size()) {
      if (bi < base.size() && ri < removed.size() &&
          base[bi] == removed[ri]) {
        ++bi;
        ++ri;
        continue;
      }
      if (ai >= added.size() || (bi < base.size() && base[bi] < added[ai])) {
        scratch_.push_back(base[bi++]);
      } else {
        scratch_.push_back(added[ai++]);
      }
    }
    return scratch_;
  }

 private:
  const Graph& base_;
  const std::unordered_map<NodeId, VertexDelta>& deltas_;
  std::vector<NodeId> scratch_;
};

Subgraph DynamicGraph::extract_ball(NodeId root, unsigned radius,
                                    std::uint64_t* version_out) const {
  util::ReaderLock lock(mu_);
  if (version_out != nullptr) {
    *version_out = version_.load(std::memory_order_relaxed);
  }
  if (root >= num_nodes_) {
    throw std::invalid_argument("DynamicGraph::extract_ball: seed " +
                                std::to_string(root) + " out of range");
  }
  if (degree_locked(root) == 0) {
    throw std::invalid_argument("DynamicGraph::extract_ball: seed " +
                                std::to_string(root) + " is isolated");
  }
  MergedRows rows(base_, deltas_);
  return build_ball(rows, root, radius);
}

Graph DynamicGraph::materialize() const {
  util::ReaderLock lock(mu_);
  return materialize_locked();
}

Graph DynamicGraph::materialize_locked() const {
  GraphBuilder builder(num_nodes_);
  builder.reserve(num_edges_);
  const std::size_t n = num_nodes_;
  for (NodeId u = 0; u < n; ++u) {
    const auto it = deltas_.find(u);
    const std::vector<NodeId>* removed =
        it != deltas_.end() ? &it->second.removed : nullptr;
    for (NodeId w : base_.neighbors(u)) {
      if (w <= u) continue;  // each undirected edge once
      if (removed != nullptr && sorted_contains(*removed, w)) continue;
      builder.add_edge(u, w);
    }
  }
  for (const auto& [u, delta] : deltas_) {
    for (NodeId w : delta.added) {
      if (w > u) builder.add_edge(u, w);
    }
  }
  return builder.build();
}

bool DynamicGraph::touched_since(const Subgraph& ball,
                                 std::uint64_t since_version,
                                 std::uint64_t* checked_version_out) const {
  util::ReaderLock lock(mu_);
  const std::uint64_t now = version_.load(std::memory_order_relaxed);
  if (checked_version_out != nullptr) *checked_version_out = now;
  if (since_version >= now) return false;
  // The window must reach back to since_version + 1, else be conservative.
  if (history_.empty() || history_.front().version > since_version + 1) {
    return true;
  }
  // One pass over the ball (Subgraph keeps no membership index): the
  // window's endpoints, sorted, against each member.
  std::vector<NodeId> endpoints;
  for (auto it = history_.rbegin();
       it != history_.rend() && it->version > since_version; ++it) {
    endpoints.push_back(it->update.u);
    endpoints.push_back(it->update.v);
  }
  std::sort(endpoints.begin(), endpoints.end());
  return std::any_of(
      ball.local_to_global().begin(), ball.local_to_global().end(),
      [&](NodeId global) {
        return std::binary_search(endpoints.begin(), endpoints.end(), global);
      });
}

std::size_t DynamicGraph::add_update_listener(UpdateListener listener) {
  util::WriterLock lock(mu_);
  const std::size_t id = next_listener_id_++;
  listeners_.push_back({id, std::move(listener)});
  return id;
}

void DynamicGraph::remove_listener(std::size_t id) {
  util::WriterLock lock(mu_);
  std::erase_if(listeners_,
                [id](const ListenerSlot& slot) { return slot.id == id; });
}

void DynamicGraph::compact_locked() {
  base_ = materialize_locked();
  deltas_.clear();
  delta_half_edges_ = 0;
  ++compactions_;
}

}  // namespace meloppr::graph
