// Cycle-approximate simulator of the MeLoPPR FPGA accelerator (Sec. V,
// Fig. 4).
//
// Architecture being modeled, per the paper:
//   * P processing elements (PEs). Each PE owns a sub-graph table (node →
//     neighbor-list address range, plus the lists), a local accumulated
//     score table (π_a) and a local residual score table (π_r), one
//     diffuser (one edge per cycle: fetch neighbor, α-scale, divide by
//     degree, emit contribution) and one accumulator.
//   * Ball nodes are interleaved across PEs (node → PE/bank = id mod P);
//     each diffuser reads its own sub-graph table but writes to *any* score
//     table, so a scheduler arbitrates bank write conflicts.
//   * Localized score aggregation (the paper's hardware-aware optimization):
//     contributions produced inside one PE for the same destination node are
//     combined locally before being written out, so a destination bank sees
//     at most P writes per node per iteration instead of in-degree writes.
//   * The sub-graph streams in from the host over an AXI-stream interface;
//     the global top-(c·k) table lives on chip, so per-ball results are NOT
//     shipped back (Sec. V-B).
//
// The simulator executes the *numerics* with the exact integer datapath of
// quantizer.hpp (so precision results are real) and derives cycle counts
// from the actual per-iteration work distribution (so Fig. 5's scheduling
// overhead is an emergent output, not a tuned constant):
//
//   The sub-graph table interleaves *edges* across the P PEs (edge i lives
//   in table i mod P), so the read/compute stream is balanced by
//   construction: ⌈edges/P⌉ cycles. Score tables are banked by destination
//   node id (bank = id mod P), and every diffuser writes to every bank, so
//   writes are where conflicts arise — exactly the read/write conflicts the
//   paper's scheduler resolves (Sec. V-A).
//
//   per iteration:
//     read/compute pass = ⌈active edges / P⌉ cycles (balanced by interleave)
//     write-back        = FIFO write queues (one per PE; with localized
//                         aggregation one op per (destination, PE) pair,
//                         without it one op per raw contribution) drained
//                         through a P×P crossbar, one grant per bank per
//                         cycle with rotating priority. Head-of-line
//                         blocking under skewed bank traffic is what makes
//                         this slower than ideal — the physical origin of
//                         the paper's scheduling overhead.
//   iteration cycles = max(read pass, write drain) + pipeline sync;
//   scheduling overhead = iteration cycles − (read pass + sync).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/subgraph.hpp"
#include "hw/quantizer.hpp"

namespace meloppr::hw {

struct AcceleratorConfig {
  unsigned parallelism = 16;        ///< P, number of PEs (paper sweeps 1–16)
  double clock_hz = 100e6;          ///< Kintex-7 KC705 at 100 MHz
  /// Sub-graph streaming bandwidth: 512-bit AXI DMA bursts from the DDR3
  /// SODIMM (6.4 GB/s at 100 MHz — the KC705 memory interface peak).
  std::size_t stream_bytes_per_cycle = 64;
  unsigned sync_cycles_per_iteration = 8;  ///< pipeline fill/drain per pass
  bool localized_aggregation = true;       ///< the paper's optimization
};

/// Cycle breakdown of one diffusion, matching Fig. 5's stacked bars.
struct CycleBreakdown {
  std::uint64_t data_movement = 0;  ///< streaming the ball into the PEs
  std::uint64_t diffusion = 0;      ///< ideal compute (⌈work/P⌉ + sync)
  std::uint64_t scheduling = 0;     ///< conflict/imbalance stalls
  [[nodiscard]] std::uint64_t total() const {
    return data_movement + diffusion + scheduling;
  }
};

/// Result of simulating GD_l on one ball.
struct AcceleratorRun {
  std::vector<std::uint32_t> accumulated;  ///< π_a, integer domain
  std::vector<std::uint32_t> residual;     ///< π_r (α-scaled), integer domain
  CycleBreakdown cycles;
  std::uint64_t edge_ops = 0;
  bool saturated = false;  ///< any score clipped at the 32-bit ceiling
};

class Accelerator {
 public:
  Accelerator(AcceleratorConfig config, Quantizer quantizer);

  /// Simulates an l-step diffusion of `seed_mass` (integer domain) placed at
  /// local node 0. Numerics follow the integer datapath exactly:
  ///   u_0 = seed_mass at the root;
  ///   u_{k+1}[w] = Σ_v (α·u_k[v]) / deg(v)   (α via shift, ÷ truncating)
  ///   π_a += (1−α)·u_k each iteration, finally π_a += u_l; π_r = u_l.
  /// Note u_k ≡ α^k·W^k·S0, so the returned residual is already α^l-scaled
  /// (see host.cpp for how the backend folds this into Eq. 8).
  ///
  /// The simulator's working set (score vectors, active list, write
  /// queues) is per-thread scratch reused from call to call, so concurrent
  /// callers — on one Accelerator or several — stay safe, and a warm thread
  /// allocates only the returned score vectors.
  [[nodiscard]] AcceleratorRun diffuse(const graph::Subgraph& ball,
                                       std::uint32_t seed_mass,
                                       unsigned length) const;

  [[nodiscard]] const AcceleratorConfig& config() const { return config_; }
  [[nodiscard]] const Quantizer& quantizer() const { return quantizer_; }

  /// Seconds for a cycle count at the configured clock.
  [[nodiscard]] double seconds(std::uint64_t cycles) const {
    return static_cast<double>(cycles) / config_.clock_hz;
  }

 private:
  AcceleratorConfig config_;
  Quantizer quantizer_;
};

}  // namespace meloppr::hw
