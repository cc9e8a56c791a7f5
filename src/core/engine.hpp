// The MeLoPPR engine — multi-stage PPR per Sec. IV, driven by an explicit
// stage scheduler instead of hidden recursion.
//
// One query is a tree of stage tasks. Each task is a frame
// StageTask{root, mass, stage} implementing Eq. 8 (and its multi-stage
// generalization by re-applying Eq. 6 inside each child):
//
//   stage s, root v, in-flight mass m (pre-scaled: by linearity
//   GD_l(c·S0) = c·GD_l(S0), so all of Eq. 8's α^l factors ride along
//   inside the mass — exactly as on the FPGA, whose integer residual table
//   is α-scaled by construction):
//     1. BFS:      ball ← extract_ball(G, v, l_s)                (CPU)
//     2. Diffuse:  (π_a, α^l·π_r) ← GD_{l_s}(m·e_v) on ball      (backend)
//     3. Aggregate: S_L[g] += π_a[g]  for every ball node g
//     4. If not the last stage:
//          select next-stage nodes from α^l·π_r (Sec. IV-D sparsity)
//          each selected node u with in-flight mass r becomes a child task
//          StageTask{u, r, s+1}; before the child's ball is aggregated,
//          S_L[u] −= r removes the mass the child will re-diffuse (Eq. 8's
//          −α^l·S^r term).
//
// Steps 1–4 are packaged as `run_task`: a pure work unit that maps one
// StageTask to its score contributions and child tasks without touching any
// shared state. Two schedules drain the task tree:
//
//   * Engine::query — a serial LIFO work stack. Children are pushed in
//     selection order and popped depth-first, so the aggregator sees the
//     exact floating-point operation order of the original recursive
//     implementation (scores are bit-identical); the stack replaces the call
//     stack, nothing more.
//   * core::QueryPipeline (pipeline.hpp) — the linear decomposition makes
//     every same-stage task independent (the paper's Sec. VI-C future work),
//     so the pipeline's work-stealing workers run the tasks of many queries
//     out of order, then reduce each query by replaying the serial
//     depth-first order (scores stay bit-identical).
//
// The ball and its score vectors are freed when run_task returns, so the
// peak footprint is one ball at a time (per worker) plus the aggregator —
// that is MeLoPPR's O(G_l) ≪ O(G_L) memory story, and the engine's memory
// meter verifies it rather than assuming it.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/aggregator.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/query_stats.hpp"
#include "core/sharded_ball_cache.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "ppr/topk.hpp"
#include "util/memory_meter.hpp"

namespace meloppr::core {

struct QueryResult {
  std::vector<ppr::ScoredNode> top;  ///< ranked top-k (global ids)
  QueryStats stats;
};

/// One schedulable unit of multi-stage work: diffuse `mass` from `root` at
/// recursion depth `stage`. The root query is {seed, 1.0, 0}; every selected
/// next-stage node becomes a task one stage deeper.
struct StageTask {
  graph::NodeId root = graph::kInvalidNode;
  double mass = 0.0;
  std::size_t stage = 0;
  /// Graph version the query was admitted at (dynamic graphs; 0 static).
  /// Stamped on the root task by Engine::make_root_task and inherited by
  /// every child, it is the floor the cache's fetch enforces: no ball
  /// served to this task reflects state older than the admission version,
  /// so one query never mixes pre- and post-update balls older than its
  /// stamp.
  std::uint64_t version = 0;
};

/// Everything one executed stage task hands back to its scheduler.
struct StageOutcome {
  /// π_a score contributions (global ids, ascending local-id order). The
  /// scheduler applies them to the aggregator; run_task itself never touches
  /// shared state.
  std::vector<std::pair<graph::NodeId, double>> contributions;
  /// Next-stage tasks in selection order (descending residual). Empty for
  /// the last stage.
  std::vector<StageTask> children;
  /// This task's increments for QueryStats.stages[stage].
  StageStats stats;
  std::size_t stage = 0;
  /// True when this task produced no usable scores (extraction faulted past
  /// the retry budget, or the diffusion exhausted retry + failover). A
  /// failed task contributes nothing and spawns no children; the scheduler
  /// must also skip its Eq. 8 −mass subtraction (the mass was never
  /// re-diffused) and count it in QueryStats (failed_balls → the query's
  /// outcome() becomes kFailed). Stats are still valid and must be merged.
  bool failed = false;
};

class Engine {
 public:
  /// The graph must outlive the engine. Throws std::invalid_argument on an
  /// invalid config.
  Engine(const graph::Graph& g, MelopprConfig config);

  /// Convenience query: CPU backend + exact aggregation.
  [[nodiscard]] QueryResult query(graph::NodeId seed) const;

  /// Full-control query: caller supplies the diffusion backend (CPU or
  /// simulated FPGA) and the aggregation strategy (exact map or top-c·k
  /// table). The aggregator is cleared first. Thread-safe for concurrent
  /// calls when the backend is thread-safe (or distinct per call) and each
  /// call uses its own aggregator.
  QueryResult query(graph::NodeId seed, DiffusionBackend& backend,
                    ScoreAggregator& aggregator) const;

  /// Executes one stage task: BFS ball extraction, diffusion on `backend`,
  /// and next-stage selection. Transient footprints (ball, device working
  /// set) are charged to `meter`. Does not read or write any engine mutable
  /// state, so concurrent calls are safe whenever the backend tolerates them
  /// (the ball cache is thread-safe).
  StageOutcome run_task(const StageTask& task, DiffusionBackend& backend,
                        MemoryMeter& meter) const;

  [[nodiscard]] const MelopprConfig& config() const { return config_; }
  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }

  /// Serves all ball extractions through the thread-safe sharded cache
  /// (nullptr restores direct extraction) — safe under any number of
  /// workers, and the storage side of the pipeline's stage-lookahead
  /// prefetcher. The cache must be built over the same graph and outlive
  /// the engine's queries; its footprint is charged to the query's memory
  /// peak under the "ball_cache" category instead of per-stage "ball".
  void set_shared_ball_cache(ShardedBallCache* cache) {
    shared_cache_ = cache;
  }
  [[nodiscard]] ShardedBallCache* shared_ball_cache() const {
    return shared_cache_;
  }

  /// Serves cacheless ball extractions through `dyn`'s delta overlay and
  /// stamps every root task with the graph version at admission (nullptr
  /// restores the static graph). Pair with a sharded cache bound to the
  /// SAME DynamicGraph (bind_dynamic_graph) for the full dynamic stack;
  /// either alone is also coherent. `dyn` must outlive the engine's
  /// queries, and must wrap the same base graph this engine was built on
  /// (the quantized numerics path derives its scale from that graph).
  void set_dynamic_graph(const graph::DynamicGraph* dyn) { dynamic_ = dyn; }
  [[nodiscard]] const graph::DynamicGraph* dynamic_graph() const {
    return dynamic_;
  }

  /// The stage-0 task for `seed`, stamped with the current graph version —
  /// both schedulers (the serial stack and the stealing stream) create
  /// their root tasks here so admission stamping
  /// cannot diverge between them.
  [[nodiscard]] StageTask make_root_task(graph::NodeId seed) const {
    return {seed, 1.0, 0, dynamic_ == nullptr ? 0 : dynamic_->version()};
  }

 private:
  const graph::Graph* graph_;
  MelopprConfig config_;
  ShardedBallCache* shared_cache_ = nullptr;
  const graph::DynamicGraph* dynamic_ = nullptr;
};

}  // namespace meloppr::core
