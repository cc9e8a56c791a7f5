// Diffusion execution backends.
//
// The MeLoPPR engine is backend-agnostic: the same multi-stage control flow
// (BFS → diffuse → select → recurse, Sec. IV) runs its per-ball diffusions
// either on the host CPU (CpuBackend) or on the simulated FPGA accelerator
// (hw::FpgaBackend in src/hw/host.hpp). This mirrors the paper's co-design
// split: the PS (CPU) prepares sub-graphs, the PL (FPGA) diffuses them.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "hw/quantizer.hpp"
#include "ppr/diffusion.hpp"

namespace meloppr::core {

struct MelopprConfig;

/// Typed failure channel of a diffusion run (ROADMAP "fault-tolerant
/// dispatch"). run() reports environmental failures — a flaky device, an
/// exhausted retry budget, a missed deadline — through this status instead
/// of letting raw exceptions escape, so schedulers can contain them per
/// task (retry, fail over, mark the query degraded) rather than aborting a
/// whole batch. Caller errors (std::invalid_argument) and invariant
/// violations still throw: those are bugs, not weather.
enum class RunStatus : std::uint8_t {
  kOk = 0,
  /// The run failed in a way a retry may fix (injected fault, a device
  /// run that threw, transport hiccup).
  kTransientFault,
  /// The device reported sticky death; it will never serve again.
  kDeviceDead,
  /// The run (or its final retry) exceeded the dispatch deadline.
  kDeadlineMiss,
  /// Every device in the farm is out of rotation (breaker-open or dead)
  /// and no half-open probe was claimable — the caller should fail over.
  kNoHealthyDevice,
};

[[nodiscard]] const char* to_string(RunStatus status);

/// Farm-level health counters, exposed uniformly through
/// DiffusionBackend::dispatch_health() so the pipeline can report
/// degradation without knowing the backend's concrete type. Plain backends
/// return the all-zero default.
struct DispatchHealth {
  std::size_t devices = 0;          ///< execution slots behind this backend
  std::size_t healthy_devices = 0;  ///< breaker-closed (in rotation)
  std::size_t dead_devices = 0;     ///< sticky-dead (never re-admitted)
  std::size_t retries = 0;          ///< failed attempts that were retried
  std::size_t deadline_misses = 0;  ///< attempts discarded for lateness
  std::size_t breaker_trips = 0;    ///< closed→open transitions
  std::size_t probes = 0;           ///< half-open probe dispatches
  std::size_t exhausted_runs = 0;   ///< runs returning non-ok to the caller
  std::size_t failovers = 0;        ///< runs served by a fallback backend
};

/// Outcome of one per-ball diffusion, plus device-accounting metadata.
///
/// `accumulated` is the absolute PPR contribution of the ball (the input
/// mass is already fully scaled by the engine, so no further scaling is
/// applied at aggregation). `inflight` is α^l·W^l·S0 — the α-scaled
/// residual mass, which is *directly* both the Eq. 8 subtraction term and
/// the next stage's input mass. Keeping the α^l inside the backend mirrors
/// the hardware, whose integer residual table is α-scaled by construction
/// (each propagation step multiplies by α).
struct BackendResult {
  std::vector<double> accumulated;  ///< π_a over local ids (absolute)
  std::vector<double> inflight;     ///< α^l·π_r over local ids (absolute)
  /// Time attributed to the diffusion itself: measured wall-clock for the
  /// CPU backend, simulated cycles/frequency for the FPGA backend.
  double compute_seconds = 0.0;
  /// Extra time for moving the ball to the device (0 for CPU).
  double transfer_seconds = 0.0;
  std::uint64_t edge_ops = 0;

  /// Typed failure channel: kOk means `accumulated`/`inflight` are valid;
  /// anything else means the run produced no usable scores and `error`
  /// names the cause. Schedulers must check ok() before aggregating.
  RunStatus status = RunStatus::kOk;
  std::string error;
  /// Dispatch attempts this run consumed (1 = first try succeeded; a farm
  /// with retry reports the attempt that finally returned).
  std::uint32_t attempts = 1;
  /// Attempts of this run discarded for missing the dispatch deadline.
  std::uint32_t deadline_misses = 0;
  /// True when the result came from a fallback backend after the primary
  /// failed (FailoverBackend) — the query is degraded, not wrong.
  bool failed_over = false;

  [[nodiscard]] bool ok() const { return status == RunStatus::kOk; }
};

class DiffusionBackend {
 public:
  virtual ~DiffusionBackend() = default;

  /// Diffuses `mass` placed at the ball root (local 0) for `length` steps.
  virtual BackendResult run(const graph::Subgraph& ball, double mass,
                            unsigned length) = 0;

  /// Device memory required to process a ball of the given size, charged to
  /// the engine's memory model. The CPU backend charges the score vectors;
  /// the FPGA backend charges its BRAM tables.
  [[nodiscard]] virtual std::size_t working_bytes(
      std::size_t ball_nodes, std::size_t ball_edges) const = 0;

  /// Short name for reports, e.g. "cpu" or "fpga(P=16)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Fresh instance sharing no mutable state with this one (counters start
  /// at zero). The QueryPipeline clones one backend per worker thread when
  /// the backend is not thread_safe().
  [[nodiscard]] virtual std::unique_ptr<DiffusionBackend> clone() const = 0;

  /// True when run() may be called concurrently from multiple threads on
  /// this same instance (e.g. a farm that dispatches internally). Defaults
  /// to false: the pipeline then clones per worker instead of sharing.
  [[nodiscard]] virtual bool thread_safe() const { return false; }

  /// Upper bound on run() calls this backend can genuinely execute at the
  /// same time (its internal execution slots). Unbounded by default; an
  /// internally-scheduled farm reports its device count so schedulers can
  /// report physically possible makespans when workers outnumber devices.
  [[nodiscard]] virtual std::size_t max_concurrent_runs() const {
    return std::numeric_limits<std::size_t>::max();
  }

  /// True when run() executes the diffusion off the host CPU (an
  /// accelerator or accelerator farm), so dispatching threads block while
  /// the device computes and host cores sit idle. The pipeline does not
  /// read it; it stays for decorators and tracing backends that forward it.
  [[nodiscard]] virtual bool offloads_compute() const { return false; }

  /// Callers currently inside run() — executing on a device or blocked on
  /// device checkout: a live farm-occupancy gauge. Backends without a live
  /// signal keep this default ("unknown — assume busy").
  [[nodiscard]] virtual std::size_t active_dispatches() const {
    return std::numeric_limits<std::size_t>::max();
  }

  /// Cumulative dispatch-health counters (retry/breaker/failover layer).
  /// Backends without a resilience layer report the all-zero default; the
  /// pipeline folds deltas of this into BatchStats so operators see farm
  /// degradation per batch.
  [[nodiscard]] virtual DispatchHealth dispatch_health() const { return {}; }
};

/// Host-CPU backend: wall-clock-measured ppr::diffuse, dispatched to the
/// SIMD kernel family (ppr/diffusion_kernels.hpp). Two numeric modes:
/// double precision (default), or — when constructed with a Quantizer —
/// the accelerator's fixed-point datapath on host lanes, whose scores
/// match the simulated FPGA node-for-node.
class CpuBackend final : public DiffusionBackend {
 public:
  explicit CpuBackend(double alpha) : alpha_(alpha) {}
  /// Fixed-point host numerics with the given quantizer (normally built by
  /// make_cpu_backend from graph stats, mirroring the FPGA construction).
  CpuBackend(double alpha, hw::Quantizer quantizer)
      : alpha_(alpha), quantizer_(quantizer) {}

  BackendResult run(const graph::Subgraph& ball, double mass,
                    unsigned length) override;
  [[nodiscard]] std::size_t working_bytes(
      std::size_t ball_nodes, std::size_t ball_edges) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<DiffusionBackend> clone() const override {
    return std::make_unique<CpuBackend>(*this);
  }
  /// run() holds no mutable state — concurrent calls are safe (the kernel
  /// scratch is per-thread).
  [[nodiscard]] bool thread_safe() const override { return true; }

  [[nodiscard]] const std::optional<hw::Quantizer>& quantizer() const {
    return quantizer_;
  }

 private:
  double alpha_;
  std::optional<hw::Quantizer> quantizer_;
};

/// Graceful-degradation decorator: try `primary`, and when it returns a
/// non-ok status (retry budget exhausted, deadline missed, no healthy
/// device), re-run the diffusion on `fallback` and mark the result
/// failed_over. With a farm as primary and a fixed-point CpuBackend as
/// fallback (make_cpu_backend with numerics = kFixedPoint), the fallback
/// scores are node-for-node identical to the accelerator's — degradation
/// costs throughput, never correctness (the bit-exact failover invariant,
/// gated by bench_fault_tolerance).
///
/// Exceptions from either backend still propagate: the typed channel is
/// for environmental failures, throws are caller errors or bugs.
class FailoverBackend final : public DiffusionBackend {
 public:
  /// Non-owning: both backends must outlive this decorator.
  FailoverBackend(DiffusionBackend& primary, DiffusionBackend& fallback)
      : primary_(&primary), fallback_(&fallback) {}
  /// Owning variant (used by clone()).
  FailoverBackend(std::unique_ptr<DiffusionBackend> primary,
                  std::unique_ptr<DiffusionBackend> fallback)
      : primary_(primary.get()),
        fallback_(fallback.get()),
        owned_primary_(std::move(primary)),
        owned_fallback_(std::move(fallback)) {}

  BackendResult run(const graph::Subgraph& ball, double mass,
                    unsigned length) override;

  [[nodiscard]] std::size_t working_bytes(
      std::size_t ball_nodes, std::size_t ball_edges) const override {
    return std::max(primary_->working_bytes(ball_nodes, ball_edges),
                    fallback_->working_bytes(ball_nodes, ball_edges));
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<DiffusionBackend> clone() const override {
    return std::make_unique<FailoverBackend>(primary_->clone(),
                                             fallback_->clone());
  }
  [[nodiscard]] bool thread_safe() const override {
    return primary_->thread_safe() && fallback_->thread_safe();
  }
  [[nodiscard]] std::size_t max_concurrent_runs() const override {
    return primary_->max_concurrent_runs();
  }
  /// Offload and occupancy are the primary's: while the farm serves,
  /// dispatchers block device-side exactly as without the decorator.
  [[nodiscard]] bool offloads_compute() const override {
    return primary_->offloads_compute();
  }
  [[nodiscard]] std::size_t active_dispatches() const override {
    return primary_->active_dispatches();
  }
  /// The primary's health plus this decorator's failover count.
  [[nodiscard]] DispatchHealth dispatch_health() const override {
    DispatchHealth h = primary_->dispatch_health();
    h.failovers += failovers_.load(std::memory_order_relaxed);
    return h;
  }

  /// Runs served by the fallback so far.
  [[nodiscard]] std::size_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const DiffusionBackend& primary() const { return *primary_; }
  [[nodiscard]] const DiffusionBackend& fallback() const {
    return *fallback_;
  }

 private:
  DiffusionBackend* primary_;
  DiffusionBackend* fallback_;
  std::unique_ptr<DiffusionBackend> owned_primary_;
  std::unique_ptr<DiffusionBackend> owned_fallback_;
  std::atomic<std::size_t> failovers_{0};
};

/// Builds the CpuBackend MelopprConfig asks for: float64, or fixed-point
/// with a Quantizer derived from the graph's degree stats exactly the way
/// the FPGA backends derive theirs (Max = d·|V|, α_p = round(α·2^q)) — so
/// host and simulated-device scores are comparable at zero tolerance.
std::unique_ptr<DiffusionBackend> make_cpu_backend(const graph::Graph& graph,
                                                   const MelopprConfig& config);

}  // namespace meloppr::core
