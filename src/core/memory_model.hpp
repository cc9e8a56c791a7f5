// Analytical memory models for Table II.
//
// The paper compares three memory footprints per query:
//   LocalPPR-CPU  — the depth-L ball plus its score vectors (measured by
//                   our MemoryMeter inside ppr::local_ppr).
//   MeLoPPR-CPU   — the largest single ball plus aggregation state
//                   (measured by the engine's meter).
//   MeLoPPR-FPGA  — BRAM bytes for the largest ball, by the paper's formula
//                   (Sec. VI-B):
//                     BRAM|Bytes = Bg + Ba + Br
//                                = 4·(2·|V(Gl)| + 2·|E(Gl)| + 2·|V(Gl)| + |V(Gl)|)
//                   i.e. 4 bytes/word × (sub-graph table: node address pairs
//                   2V + neighbor lists 2E, accumulated score table 2V,
//                   residual score table V).
#pragma once

#include <cstddef>

namespace meloppr::core {

/// The paper's FPGA BRAM byte formula for one sub-graph (Sec. VI-B).
/// `ball_edges` counts undirected edges; the neighbor list stores each
/// twice, hence the 2·|E| term.
[[nodiscard]] constexpr std::size_t fpga_bram_bytes(std::size_t ball_nodes,
                                                    std::size_t ball_edges) {
  return 4 * (2 * ball_nodes + 2 * ball_edges + 2 * ball_nodes + ball_nodes);
}

/// CPU-side footprint of holding one ball and diffusing on it: the ball's
/// CSR + relabeling tables plus three dense double vectors. Used by tests to
/// cross-check the engine's measured peaks.
[[nodiscard]] constexpr std::size_t cpu_ball_bytes(std::size_t ball_nodes,
                                                   std::size_t ball_arcs) {
  // offsets (8B/node) + targets (4B/arc) + local_to_global (4B) +
  // global_degree (4B) + depth (2B) per node, as Subgraph::bytes() counts.
  const std::size_t csr =
      8 * (ball_nodes + 1) + 4 * ball_arcs + (4 + 4 + 2) * ball_nodes;
  const std::size_t vectors = 3 * 8 * ball_nodes;
  return csr + vectors;
}

}  // namespace meloppr::core
