// MeLoPPR configuration (Sec. IV + VI).
//
// The paper's evaluation fixes k=200, L=6, l1=l2=3 ("so that MeLoPPR
// contains two stages"); stage_lengths generalizes to any decomposition
// L = l1 + l2 + … + lS, which Eq. 6 supports by repeated application.
#pragma once

#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/selector.hpp"
#include "hw/quantizer.hpp"
#include "ppr/diffusion.hpp"

namespace meloppr::core {

/// How per-ball score contributions are summed into the global score view
/// (Sec. V-B "Data Transfer Reduction").
enum class AggregationMode {
  /// Full hash map of every touched node — exact, O(G_L(s)) footprint
  /// (the CPU implementation's strategy).
  kExact,
  /// Fixed c·k-entry table with min-eviction — the FPGA's BRAM strategy:
  /// bounded memory, small precision loss for small c (TopCKAggregator).
  kBounded,
};

/// Admission policy of the sharded ball cache (sharded_ball_cache.hpp):
/// whether a freshly extracted ball may displace resident ones.
enum class CacheAdmission {
  /// Plain LRU: every ball that fits its shard's budget is retained,
  /// evicting least-recently-used entries to make room. Simple, but a
  /// burst of unpopular seeds (a scan) flushes the hot hub balls the
  /// whole serving pipeline depends on.
  kAlways,
  /// TinyLFU-style frequency gate: each shard keeps a 4-bit count-min
  /// sketch (periodically halved, so estimates age) of ball access
  /// frequency. When inserting would require eviction, the candidate is
  /// admitted only if its estimated frequency strictly beats that of
  /// every LRU victim it would displace — one-shot scan traffic can
  /// never evict a frequently-hit ball. Rejected balls are still served,
  /// just not retained (ShardedBallCache::admission_rejects counts them).
  kTinyLFU,
};

/// Concurrency surface of the QueryPipeline (core/pipeline.hpp): how many
/// workers, and how the stage-lookahead prefetcher feeds them.
struct PipelineConfig {
  /// Worker threads; 0 → std::thread::hardware_concurrency() (min 1).
  std::size_t threads = 0;

  /// Stage-lookahead BFS prefetch. When the engine has a shared
  /// (ShardedBallCache) ball cache installed, each finished stage task's
  /// next-stage children are handed to dedicated prefetch threads, which
  /// extract their balls into the cache while the current stage's
  /// diffusions still occupy the backend — the PS/PL overlap of Fig. 4.
  /// No-op without a shared cache; never affects scores.
  bool prefetch = true;

  /// Dedicated prefetch (host BFS) threads; 0 → max(1, threads/2). These
  /// are in addition to the worker pool: workers blocked on a busy device
  /// farm leave exactly this many cores for lookahead BFS.
  std::size_t prefetch_threads = 0;

  /// Backend-aware prefetch throttle (ROADMAP "Prefetch throttling"). When
  /// true (default), lookahead BFS threads only run for backends that
  /// offload diffusion off the host (a device or device farm) — that is,
  /// exactly when dispatchers block on the farm and leave cores idle. On a
  /// CPU-only backend the workers themselves occupy every core, so
  /// prefetch threads would only oversubscribe; the throttle keeps them
  /// unspawned. Set false to force lookahead regardless of backend (e.g.
  /// to measure the layer in isolation, or when the host has known-idle
  /// cores).
  bool prefetch_throttle = true;

  /// Cross-query root lookahead (ROADMAP "Cross-query root prefetch"): in a
  /// work-stealing batch the scheduler knows every upcoming seed, so the
  /// stage-0 balls of upcoming unclaimed queries are handed to the prefetch
  /// threads while earlier queries still run — the cold-start BFS of a
  /// fresh query becomes a cache hit. The window is always throttled by the
  /// shared cache's spare byte budget (speculative roots may consume spare
  /// capacity, up to at most ~1/8 of the budget — a full cache stops
  /// speculating entirely), so a small cache is never churned to warm
  /// queries that are far away. 0 disables root lookahead in both modes;
  /// with `adaptive_root_prefetch` (the default) any positive value merely
  /// enables it and the width is chosen by the controller; with the
  /// adaptive controller off this is the fixed window width (the PR 4
  /// knob). Requires prefetch + a shared cache, like stage lookahead;
  /// never affects scores.
  std::size_t root_prefetch_window = 4;

  /// Adaptive root-prefetch window (ROADMAP "Adaptive root-prefetch
  /// window"). When true (default) the window width self-tunes per claim
  /// from two live signals instead of staying at the fixed knob above:
  /// the EWMA of recently extracted ball bytes (how much speculation the
  /// spare budget can absorb) and the prefetch threads' idle fraction
  /// (how much lookahead capacity is going unused — idle threads widen
  /// the window toward root_prefetch_max_window, saturated threads let it
  /// fall back to the configured floor). The width never drops below
  /// `root_prefetch_window` — narrowing issuance protects nothing; cache
  /// churn protection is the spare-budget byte throttle, which always
  /// wins and closes the window entirely on a full cache. Set false to
  /// reproduce the fixed `root_prefetch_window` exactly.
  bool adaptive_root_prefetch = true;

  /// Upper bound of the adaptive controller's window, in seeds. The
  /// controller reaches it only when the prefetch threads are idle and the
  /// cache has spare budget for that many EWMA-sized balls.
  std::size_t root_prefetch_max_window = 32;

  /// Pinned prefetch handoff (ROADMAP "Pinned prefetch handoff"). When
  /// true (default), every root-prefetched ball is additionally held in
  /// the cache's bounded pinned side-table (keyed by seed) until its seed
  /// is claimed or the batch ends — so a TinyLFU retention rejection can
  /// no longer waste the prefetch BFS: the claiming worker is served from
  /// the pin even when the ball was never retained (and can no longer be
  /// hurt by an eviction racing the claim). Scan resistance is unchanged;
  /// pins live outside the LRU and expire with the batch. Set false for
  /// the PR 4 behavior (served-but-rejected prefetches are re-extracted).
  bool root_prefetch_pinning = true;

  /// Farm-wait prefetch meter (ROADMAP "Per-moment farm-wait throttling").
  /// The backend-aware throttle above is binary per backend; this meters
  /// lookahead at run time: prefetch threads pause (requests queue up)
  /// whenever a shared offloading backend reports zero active dispatches —
  /// an idle farm means no worker is blocked on a device, so host cores
  /// belong to the demand path and lookahead BFS would oversubscribe them.
  /// The moment a dispatch enters the farm, lookahead resumes. Only
  /// applies to shared thread-safe offloading backends (FpgaFarm); ignored
  /// elsewhere. Never affects scores — paused lookahead just means the
  /// demand fetch pays its own BFS.
  bool prefetch_wait_meter = true;

  [[nodiscard]] std::size_t resolved_threads() const {
    if (threads != 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  [[nodiscard]] std::size_t resolved_prefetch_threads() const {
    if (prefetch_threads != 0) return prefetch_threads;
    const std::size_t half = resolved_threads() / 2;
    return half == 0 ? 1 : half;
  }

  void validate() const {
    if (adaptive_root_prefetch && root_prefetch_window > 0 &&
        root_prefetch_max_window == 0) {
      throw std::invalid_argument(
          "PipelineConfig: root_prefetch_max_window must be positive when "
          "the adaptive controller is on and root lookahead is enabled");
    }
  }
};

struct MelopprConfig {
  double alpha = 0.85;                       ///< α-RW continuation prob.
  std::vector<unsigned> stage_lengths{3, 3}; ///< l1, l2, …; Σ = L
  std::size_t k = 200;                       ///< top-k query size
  Selection selection = Selection::top_ratio(0.05);  ///< next-stage policy

  /// Global score aggregation strategy (exact map vs bounded c·k table).
  AggregationMode aggregation = AggregationMode::kExact;
  /// Bounded-table multiplier: the table holds c·k entries (paper default
  /// c=10, the <0.2% precision-loss point). Ignored in exact mode.
  std::size_t topck_c = 10;

  /// Bounded-table admission hysteresis ε (ROADMAP "Bounded-table admission
  /// hysteresis"). Near the c·k boundary, challengers within floating-point
  /// noise of the table minimum churn evict/readmit cycles; with ε > 0 a
  /// full table evicts only when the challenger beats the minimum by more
  /// than ε·|min| — closer scores are dropped instead (they still feed
  /// eviction_bound(), so the fidelity certificate stays honest, and
  /// margin_drops() counts them). 0 (default) reproduces strict
  /// min-eviction bit-for-bit. Ignored in exact mode.
  double topck_epsilon = 0.0;

  /// Numeric domain of host (CpuBackend) diffusions. kFloat64 is the
  /// default double-precision kernel; kFixedPoint runs the accelerator's
  /// integer datapath on host SIMD lanes (hw::Quantizer built per graph by
  /// make_cpu_backend), reproducing simulated-FPGA scores node-for-node —
  /// a whole serving batch can run either numerics from config alone.
  /// Ignored by device backends, which carry their own quantizer.
  ppr::Numerics numerics = ppr::Numerics::kFloat64;
  /// Fixed-point shift amount q (α ≈ α_p/2^q; paper ships q=10). Only used
  /// when numerics == kFixedPoint.
  unsigned fixed_point_q = 10;
  /// Policy for the quantizer's Max = d·|reference| (paper ships
  /// d = max_degree/2). Only used when numerics == kFixedPoint.
  hw::DChoice fixed_point_d = hw::DChoice::kHalfMaxDegree;

  /// Ball-extraction attempts per task before the ball is declared failed
  /// (the engine's retry budget against an environmentally-flaky extractor
  /// or storage layer). Caller errors (std::invalid_argument for a bad
  /// seed) and invariant violations are never retried — they propagate.
  /// 1 = no retries.
  std::size_t extraction_attempts = 3;

  /// Bounded-table capacity, c·k entries.
  [[nodiscard]] std::size_t table_capacity() const { return topck_c * k; }

  /// Total diffusion length L = Σ stage lengths.
  [[nodiscard]] unsigned total_length() const {
    unsigned sum = 0;
    for (unsigned l : stage_lengths) sum += l;
    return sum;
  }

  [[nodiscard]] std::size_t num_stages() const {
    return stage_lengths.size();
  }

  /// Throws std::invalid_argument on nonsense parameters.
  void validate() const {
    if (alpha <= 0.0 || alpha >= 1.0) {
      throw std::invalid_argument("MelopprConfig: alpha must be in (0,1)");
    }
    if (stage_lengths.empty()) {
      throw std::invalid_argument("MelopprConfig: need at least one stage");
    }
    for (unsigned l : stage_lengths) {
      if (l == 0) {
        throw std::invalid_argument(
            "MelopprConfig: stage lengths must be positive");
      }
    }
    if (k == 0) {
      throw std::invalid_argument("MelopprConfig: k must be positive");
    }
    if (topck_c == 0) {
      throw std::invalid_argument("MelopprConfig: topck_c must be positive");
    }
    if (!(topck_epsilon >= 0.0)) {  // rejects negatives and NaN
      throw std::invalid_argument(
          "MelopprConfig: topck_epsilon must be non-negative");
    }
    if (extraction_attempts == 0) {
      throw std::invalid_argument(
          "MelopprConfig: extraction_attempts must be >= 1");
    }
    if (fixed_point_q == 0 || fixed_point_q > 16) {
      // α_p = round(α·2^q) must fit the 16-bit hardware multiplier.
      throw std::invalid_argument(
          "MelopprConfig: fixed_point_q must be in [1, 16]");
    }
    selection.validate();
  }
};

}  // namespace meloppr::core
