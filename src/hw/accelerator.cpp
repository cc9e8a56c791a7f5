#include "hw/accelerator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/assert.hpp"

namespace meloppr::hw {

namespace {

/// Per-thread working set of Accelerator::diffuse(), reused across calls so
/// a warm thread simulates a ball without allocating anything but the two
/// returned score vectors. Every array is re-initialized for the ball at
/// hand before it is read.
struct DiffuseScratch {
  std::vector<std::uint64_t> u;
  std::vector<std::uint64_t> next;
  std::vector<std::uint64_t> acc;
  std::vector<char> in_active;
  std::vector<graph::NodeId> active;
  std::vector<std::uint64_t> touch_mask;  // P ≤ 64 → one word per node
  std::vector<graph::NodeId> touched;
  std::vector<std::vector<std::uint8_t>> write_queues;  // one per PE
  std::vector<std::size_t> head;                        // drain cursors
};

/// Drains the first P FIFO write queues through a P-bank crossbar, one
/// grant per bank per cycle and one issue per PE per cycle, with rotating
/// grant priority — the classic input-queued switch. Head-of-line blocking
/// (a PE's head op waiting on a busy bank stalls the ops behind it) is what
/// limits real arbiter throughput to well below 100% under skewed traffic;
/// this is the physical source of the paper's "scheduling overhead" in
/// Fig. 5. Returns the number of cycles needed to drain everything.
std::uint64_t drain_write_queues(DiffuseScratch& scratch, unsigned P) {
  auto& queues = scratch.write_queues;
  auto& head = scratch.head;
  head.assign(P, 0);
  std::size_t remaining = 0;
  for (unsigned pe = 0; pe < P; ++pe) remaining += queues[pe].size();

  std::uint64_t cycles = 0;
  unsigned rr = 0;  // rotating priority: the PE asked first this cycle
  while (remaining > 0) {
    ++cycles;
    // Each PE requests the bank of its head-of-line op; each bank grants
    // the first requester in rotating-priority order. Every PE is asked
    // once per cycle, so a granted head can advance at once.
    std::uint64_t granted = 0;  // bank mask (P ≤ 64)
    unsigned pe = rr;
    for (unsigned i = 0; i < P; ++i) {
      const std::vector<std::uint8_t>& queue = queues[pe];
      if (head[pe] < queue.size()) {
        const std::uint64_t bank = std::uint64_t{1} << queue[head[pe]];
        if ((granted & bank) == 0) {
          granted |= bank;
          ++head[pe];
          --remaining;
        }
      }
      if (++pe == P) pe = 0;
    }
    if (++rr == P) rr = 0;
  }
  for (unsigned q = 0; q < P; ++q) queues[q].clear();
  return cycles;
}

}  // namespace

Accelerator::Accelerator(AcceleratorConfig config, Quantizer quantizer)
    : config_(config), quantizer_(quantizer) {
  if (config_.parallelism == 0 || config_.parallelism > 64) {
    throw std::invalid_argument("Accelerator: parallelism must be in [1,64]");
  }
  if (config_.clock_hz <= 0.0) {
    throw std::invalid_argument("Accelerator: clock must be positive");
  }
  if (config_.stream_bytes_per_cycle == 0) {
    throw std::invalid_argument("Accelerator: stream width must be positive");
  }
}

AcceleratorRun Accelerator::diffuse(const graph::Subgraph& ball,
                                    std::uint32_t seed_mass,
                                    unsigned length) const {
  const std::size_t n = ball.num_nodes();
  MELO_CHECK(n > 0);
  MELO_CHECK_MSG(length <= ball.radius(),
                 "diffusion length exceeds ball radius");
  const unsigned P = config_.parallelism;

  AcceleratorRun run;

  // --- Data movement: stream the sub-graph table over AXI (Sec. V-B). ---
  // Bg = 4·(2·|V| + 2·|E|) bytes: two address words per node plus one word
  // per directed arc (Sec. VI-B formula).
  const std::uint64_t bg_bytes = 4ull * (2ull * n + ball.num_arcs());
  run.cycles.data_movement =
      (bg_bytes + config_.stream_bytes_per_cycle - 1) /
      config_.stream_bytes_per_cycle;

  // --- Integer diffusion with cycle accounting. ---
  thread_local DiffuseScratch scratch;
  std::vector<std::uint64_t>& u = scratch.u;
  std::vector<std::uint64_t>& next = scratch.next;
  std::vector<std::uint64_t>& acc = scratch.acc;
  std::vector<char>& in_active = scratch.in_active;
  std::vector<graph::NodeId>& active = scratch.active;
  std::vector<std::uint64_t>& touch_mask = scratch.touch_mask;
  std::vector<graph::NodeId>& touched = scratch.touched;
  std::vector<std::vector<std::uint8_t>>& write_queues = scratch.write_queues;

  // u ≡ α^k·W^k·S0 in the integer domain (α applied per step).
  u.assign(n, 0);
  next.assign(n, 0);
  acc.assign(n, 0);
  u[0] = seed_mass;

  in_active.assign(n, 0);
  active.assign(1, 0);
  in_active[0] = 1;

  // Per-iteration scratch for the scheduler model. Edges are interleaved
  // across PEs (edge index mod P) so compute is balanced; score tables are
  // banked by destination id (bank = id mod P), and the write back goes
  // through the crossbar simulated by drain_write_queues().
  if (write_queues.size() < P) write_queues.resize(P);
  for (unsigned q = 0; q < P; ++q) write_queues[q].clear();
  touch_mask.assign(n, 0);

  for (unsigned k = 0; k < length; ++k) {
    // Accumulate (1−α)·u_k — pipelined into the accumulator, no extra
    // cycles beyond the read pass.
    for (graph::NodeId v : active) {
      acc[v] += quantizer_.mul_one_minus_alpha(u[v]);
    }

    touched.clear();
    std::uint64_t iteration_edges = 0;
    unsigned pe = 0;  // = iteration_edges mod P, kept as a wrapping counter

    const std::size_t active_before = active.size();
    for (std::size_t i = 0; i < active_before; ++i) {
      const graph::NodeId v = active[i];
      if (u[v] == 0) continue;
      const auto adj = ball.neighbors(v);
      iteration_edges += adj.size();

      // Datapath: contribution = (α·u[v]) / deg_global(v), truncating.
      const std::uint64_t contrib = Quantizer::div_degree(
          quantizer_.mul_alpha(u[v]), ball.global_degree(v));
      for (graph::NodeId w : adj) {
        // Edge-interleaved dispatch: this contribution is computed by the
        // PE owning the current edge slot.
        if (contrib != 0) {
          if (touch_mask[w] == 0) touched.push_back(w);
          next[w] += contrib;
          touch_mask[w] |= (std::uint64_t{1} << pe);
          if (!config_.localized_aggregation) {
            // Every raw contribution is a separate crossbar write, in the
            // order the PE produced it.
            write_queues[pe].push_back(static_cast<std::uint8_t>(w % P));
          }
        }
        if (!in_active[w]) {
          in_active[w] = 1;
          active.push_back(w);
        }
        if (++pe == P) pe = 0;
      }
    }
    run.edge_ops += iteration_edges;

    // With localized aggregation (the paper's optimization), each PE merges
    // its contributions per destination node locally and writes once per
    // (destination, PE) pair.
    if (config_.localized_aggregation) {
      for (graph::NodeId w : touched) {
        std::uint64_t mask = touch_mask[w];
        const auto bank = static_cast<std::uint8_t>(w % P);
        while (mask != 0) {
          const int owner = std::countr_zero(mask);
          mask &= mask - 1;
          write_queues[static_cast<std::size_t>(owner)].push_back(bank);
        }
      }
    }
    for (graph::NodeId w : touched) touch_mask[w] = 0;

    // Cycle accounting: the read/compute pass streams ⌈edges/P⌉ cycles; the
    // write-back drains through the arbitrated crossbar concurrently, so
    // the iteration finishes at the later of the two. Everything above the
    // balanced-compute ideal is scheduling overhead.
    const std::uint64_t ideal = (iteration_edges + P - 1) / P;
    const std::uint64_t write_cycles = drain_write_queues(scratch, P);
    const std::uint64_t span = std::max(ideal, write_cycles);
    run.cycles.diffusion += ideal + config_.sync_cycles_per_iteration;
    run.cycles.scheduling += span - ideal;

    for (graph::NodeId v : active) {
      u[v] = next[v];
      next[v] = 0;
    }
  }

  // Final α^l·W^l·S0 term folds into the accumulated score (Eq. 1).
  for (graph::NodeId v : active) acc[v] += u[v];

  // Clamp to the 32-bit BRAM word, flagging saturation.
  run.accumulated.resize(n);
  run.residual.resize(n);
  constexpr std::uint64_t kCeiling = 0xffffffffULL;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (acc[v] > kCeiling) {
      run.saturated = true;
      acc[v] = kCeiling;
    }
    if (u[v] > kCeiling) {
      run.saturated = true;
      u[v] = kCeiling;
    }
    run.accumulated[v] = static_cast<std::uint32_t>(acc[v]);
    run.residual[v] = static_cast<std::uint32_t>(u[v]);
  }
  return run;
}

}  // namespace meloppr::hw
