#include "core/engine.hpp"

#include <cmath>
#include <optional>

#include "graph/bfs.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace meloppr::core {

Engine::Engine(const graph::Graph& g, MelopprConfig config)
    : graph_(&g), config_(std::move(config)) {
  config_.validate();
}

QueryResult Engine::query(graph::NodeId seed) const {
  // Honors MelopprConfig::numerics: float64 by default, or the fixed-point
  // host path with a graph-derived quantizer.
  const std::unique_ptr<DiffusionBackend> backend =
      make_cpu_backend(*graph_, config_);
  const std::unique_ptr<ScoreAggregator> aggregator = make_serial_aggregator(
      config_.aggregation, config_.k, config_.topck_c,
      config_.topck_epsilon);
  return query(seed, *backend, *aggregator);
}

QueryResult Engine::query(graph::NodeId seed, DiffusionBackend& backend,
                          ScoreAggregator& aggregator) const {
  aggregator.clear();
  QueryResult result;
  result.stats.stages.resize(config_.num_stages());
  MemoryMeter meter;

  Timer total;
  // Serial schedule: a LIFO work stack drained depth-first. Children are
  // pushed in reverse selection order so they pop in selection order; the
  // resulting aggregator operation sequence is exactly the one the original
  // recursive engine produced, so scores are bit-identical.
  std::vector<StageTask> stack;
  stack.push_back(make_root_task(seed));
  result.stats.graph_version = stack.back().version;
  meter.set("pending", vector_bytes(stack));
  while (!stack.empty()) {
    const StageTask task = stack.back();
    stack.pop_back();
    // A non-positive mass cannot move anything; skip the task rather than
    // abort the query (select_next_stage filters these, but a backend could
    // in principle emit one — degrade gracefully).
    if (!(task.mass > 0.0)) continue;

    StageOutcome out = run_task(task, backend, meter);
    result.stats.stages[task.stage].merge(out.stats);
    // A failed task re-diffused nothing: leave the parent's parked mass in
    // place (skipping the −mass with nothing added would corrupt scores)
    // and spawn no children. run_task never touches the aggregator, so
    // deferring the subtraction to here preserves the exact op order.
    if (out.failed) continue;

    // Eq. 8's −α^l·S^r term: remove the mass this task will re-diffuse
    // (the parent's GD_l left it parked at the root).
    if (task.stage > 0) aggregator.add(task.root, -task.mass);

    for (const auto& [node, delta] : out.contributions) {
      aggregator.add(node, delta);
    }
    meter.set("aggregator", aggregator.bytes());

    for (auto it = out.children.rbegin(); it != out.children.rend(); ++it) {
      stack.push_back(*it);
    }
    meter.set("pending", vector_bytes(stack));
    meter.set("stage_buffers", 0);
  }

  result.top = aggregator.top(config_.k);
  result.stats.total_seconds = total.elapsed_seconds();

  result.stats.aggregator_bytes = aggregator.bytes();
  result.stats.aggregator_entries = aggregator.entries();
  result.stats.aggregator_evictions = aggregator.evictions();
  result.stats.peak_bytes = meter.peak_bytes();
  return result;
}

StageOutcome Engine::run_task(const StageTask& task, DiffusionBackend& backend,
                              MemoryMeter& meter) const {
  MELO_CHECK(task.stage < config_.num_stages());
  MELO_CHECK(task.mass > 0.0);
  const unsigned length = config_.stage_lengths[task.stage];
  StageOutcome out;
  out.stage = task.stage;
  StageStats& st = out.stats;

  // --- 1. CPU-side sub-graph preparation (the PS role in Fig. 4). ---
  // With a ball cache installed, extraction is served (and charged) by the
  // cache; otherwise the ball is owned by this task and freed on return.
  // The cache's shared_ptr pins the ball against concurrent eviction for
  // the scope of this task. bfs_seconds is the wall time this task
  // *waited* for its ball — near zero on a cache hit, which is exactly how
  // prefetching shows up in the Fig. 7 split.
  // Extraction is retried against *environmental* failures (a flaky
  // extractor or storage layer) up to config_.extraction_attempts; caller
  // errors (std::invalid_argument — a bad seed is bad on every attempt)
  // and invariant violations (bugs) propagate immediately. A task whose
  // extraction fails past the budget returns failed instead of aborting
  // the whole query.
  Timer bfs_timer;
  std::optional<graph::Subgraph> owned;
  ShardedBallCache::BallPtr pinned;
  const graph::Subgraph* ball_ptr = nullptr;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      if (shared_cache_ != nullptr) {
        // task.version (the query's admission stamp) is the freshness
        // floor: the cache never serves this task a ball older than it.
        ShardedBallCache::Fetch fetch = shared_cache_->fetch(
            task.root, length, ShardedBallCache::FetchKind::kDemand,
            task.version);
        fetch.hit ? ++st.cache_hits : ++st.cache_misses;
        pinned = std::move(fetch.ball);
        ball_ptr = pinned.get();
        meter.set("ball_cache", shared_cache_->bytes());
      } else if (dynamic_ != nullptr) {
        // Cacheless dynamic extraction: the delta overlay serves the
        // current state directly (the serial reference path the
        // equivalence suite compares against a full rebuild).
        owned.emplace(dynamic_->extract_ball(task.root, length));
        ball_ptr = &*owned;
      } else {
        owned.emplace(graph::extract_ball(*graph_, task.root, length));
        ball_ptr = &*owned;
      }
      break;
    } catch (const InvariantViolation&) {
      throw;
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      ++st.extraction_faults;
      if (attempt >= config_.extraction_attempts) {
        st.bfs_seconds += bfs_timer.elapsed_seconds();
        ++st.failed_balls;
        out.failed = true;
        return out;
      }
    }
  }
  const graph::Subgraph& ball = *ball_ptr;
  st.bfs_seconds += bfs_timer.elapsed_seconds();

  // Ball + device working set live only until this function returns; the
  // peak stays at "one ball at a time" (per worker) — the memory claim of
  // the paper, verified by the meter rather than assumed.
  ScopedAllocation ball_mem(meter, "ball",
                            owned.has_value() ? ball.bytes() : 0);
  ScopedAllocation work_mem(
      meter, "device",
      backend.working_bytes(ball.num_nodes(), ball.num_edges()));

  // --- 2. Diffusion on the device (the PL role in Fig. 4). ---
  BackendResult diff = backend.run(ball, task.mass, length);

  st.balls += 1;
  st.max_ball_nodes = std::max(st.max_ball_nodes, ball.num_nodes());
  st.max_ball_edges = std::max(st.max_ball_edges, ball.num_edges());
  st.total_ball_nodes += ball.num_nodes();
  st.total_ball_edges += ball.num_edges();
  st.compute_seconds += diff.compute_seconds;
  st.transfer_seconds += diff.transfer_seconds;
  st.edge_ops += diff.edge_ops;
  // Resilient-dispatch accounting: extra attempts, discarded late attempts,
  // and fallback-served runs this diffusion consumed.
  st.dispatch_retries += diff.attempts > 0 ? diff.attempts - 1 : 0;
  st.deadline_misses += diff.deadline_misses;
  if (diff.failed_over) ++st.failovers;

  if (!diff.ok()) {
    // Retry budget and failover both exhausted: this ball's contribution
    // is missing. The scheduler leaves the parent's parked mass in place
    // (see StageOutcome::failed), so scores stay a well-defined lower
    // bound instead of going negative at the root.
    ++st.failed_balls;
    out.failed = true;
    return out;
  }
  MELO_CHECK(diff.accumulated.size() == ball.num_nodes());
  MELO_CHECK(diff.inflight.size() == ball.num_nodes());

  // --- 3. Collect π_a contributions (Eq. 8, +GD_l term; the input mass was
  //        pre-scaled so no factor is needed). The scheduler owns their
  //        application so it can pick the reduction order. ---
  out.contributions.reserve(ball.num_nodes());
  for (graph::NodeId local = 0; local < ball.num_nodes(); ++local) {
    if (diff.accumulated[local] != 0.0) {
      out.contributions.emplace_back(ball.to_global(local),
                                     diff.accumulated[local]);
    }
  }

  // --- 4. Select next-stage nodes from the in-flight mass (Sec. IV-D). ---
  if (task.stage + 1 < config_.num_stages()) {
    const std::vector<SelectedNode> selected =
        select_next_stage(diff.inflight, config_.selection);
    st.selected += selected.size();
    for (double r : diff.inflight) {
      if (r > 0.0) ++st.candidates;
    }
    out.children.reserve(selected.size());
    for (const SelectedNode& sn : selected) {
      // Children inherit the admission stamp: every ball of one query
      // shares the same freshness floor.
      out.children.push_back({ball.to_global(sn.local), sn.residual,
                              task.stage + 1, task.version});
    }
  }
  // Charge the outcome buffers while the ball and device working set are
  // still live — they genuinely coexist here, so the peak must see the
  // overlap. The scheduler zeroes the category once it has consumed them.
  meter.set("stage_buffers",
            vector_bytes(out.contributions) + vector_bytes(out.children));
  return out;
}

}  // namespace meloppr::core
