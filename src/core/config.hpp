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
  /// The same threads also run cross-query root lookahead (adaptive
  /// window, pinned handoff) and pause while a shared offloading backend
  /// is idle — see QueryPipeline. No-op without a shared cache; never
  /// affects scores.
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
