// Hybrid CPU+FPGA execution (Fig. 4).
//
// FpgaBackend plugs the simulated accelerator into the MeLoPPR engine as a
// core::DiffusionBackend: the engine keeps playing the PS role (BFS
// sub-graph preparation, orchestration, measured in wall-clock), while every
// diffusion is executed by the cycle-approximate PL model, whose simulated
// cycles are converted to seconds at the configured clock. Cumulative cycle
// counters expose the Fig. 5 breakdown (scheduling / diffusion / data
// movement) across a whole query or bench run.
#pragma once

#include <cstdint>

#include "core/backend.hpp"
#include "hw/accelerator.hpp"

namespace meloppr::hw {

class FpgaBackend final : public core::DiffusionBackend {
 public:
  explicit FpgaBackend(Accelerator accelerator);

  core::BackendResult run(const graph::Subgraph& ball, double mass,
                          unsigned length) override;

  [[nodiscard]] std::size_t working_bytes(
      std::size_t ball_nodes, std::size_t ball_edges) const override;

  [[nodiscard]] std::string name() const override;

  /// Fresh backend over an identical accelerator (same config + quantizer),
  /// with zeroed counters and an empty double-buffer budget. Cycle counters
  /// and the overlap budget make this class stateful, so it is NOT
  /// thread-safe; the pipeline clones one per worker.
  [[nodiscard]] std::unique_ptr<core::DiffusionBackend> clone() const override;

  /// Diffusion runs on the (simulated) PL, not host cores: the host only
  /// waits.
  [[nodiscard]] bool offloads_compute() const override { return true; }

  /// Cumulative cycle breakdown since construction / reset_counters().
  /// Data-movement cycles are the *visible* (non-overlapped) residue: the
  /// streaming interface double-buffers, so a ball's transfer hides behind
  /// the previous ball's compute and only the overhang is charged.
  [[nodiscard]] const CycleBreakdown& total_cycles() const { return total_; }

  /// Simulated busy time of this device since construction / reset: total
  /// cycles at the configured clock. The per-device term of a farm's
  /// serial_seconds(), exposed here so single-device deployments can put
  /// host-side BFS seconds and device seconds on one axis (the Fig. 4
  /// overlap QueryStats::modeled_overlap_seconds() models).
  [[nodiscard]] double busy_seconds() const {
    return accel_.seconds(total_.total());
  }
  [[nodiscard]] std::size_t runs() const { return runs_; }
  /// Diffusions whose scores clipped at the 32-bit ceiling (should be zero;
  /// non-zero means the quantizer's Max is too large for the ball).
  [[nodiscard]] std::size_t saturated_runs() const { return saturated_; }
  void reset_counters();

  [[nodiscard]] const Accelerator& accelerator() const { return accel_; }

 private:
  Accelerator accel_;
  CycleBreakdown total_;
  std::size_t runs_ = 0;
  std::size_t saturated_ = 0;
  /// Compute cycles of the previous run still available to hide the next
  /// ball's DMA behind (double buffering).
  std::uint64_t overlap_budget_ = 0;
};

}  // namespace meloppr::hw
