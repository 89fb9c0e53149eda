// Algorithm Prune (paper Figure 1).
//
//   Prune(ε):
//     G_0 ← G_f; i ← 0
//     while ∃ S_i ⊆ G_i with |Γ(S_i)| <= α·ε·|S_i| and |S_i| <= |G_i|/2:
//       G_{i+1} ← G_i \ S_i;  i ← i+1
//     H ← G_i
//
// Theorem 2.1: with ε = 1 - 1/k, f adversarial faults and k·f/α <= n/4,
// the result H has |H| >= n - k·f/α and node expansion >= (1 - 1/k)·α.
//
// The paper's Prune is existential; line 2 is realized here by the
// cut-finder portfolio (expansion/cut_finder.hpp).  Every culled set is
// recorded so the run can be *re-verified*: each S_i provably satisfied
// its culling condition, which is all Theorem 2.1's proof needs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/vertex_set.hpp"
#include "expansion/cut_finder.hpp"

namespace fne {

/// One culled region, with the quantities at cull time.
struct CulledRecord {
  VertexSet set;           ///< S_i (original vertex ids)
  vid size = 0;            ///< |S_i|
  std::size_t boundary = 0;  ///< |Γ(S_i)| (Prune) or |(S_i, G_i\S_i)| (Prune2)
  double ratio = 0.0;      ///< boundary / size
};

struct PruneResult {
  VertexSet survivors;     ///< H
  std::vector<CulledRecord> culled;
  vid total_culled = 0;
  int iterations = 0;
};

struct PruneOptions {
  CutFinderOptions finder{};
  int max_iterations = 100000;
};

/// Run Prune(epsilon) on the faulty graph (g restricted to `alive`) with
/// expansion parameter `alpha` (the fault-free expansion, or any target).
/// The culling threshold is alpha * epsilon.
///
/// This entry point is a thin wrapper over PruneEngine (prune/engine.hpp)
/// in its deterministic configuration, which is bit-identical to the
/// stateless reference loop below; fast mode in options.finder
/// (finder.fast) is honored.
[[nodiscard]] PruneResult prune(const Graph& g, const VertexSet& alive, double alpha,
                                double epsilon, const PruneOptions& options = {});

/// The original stateless cull loop: every iteration recomputes components,
/// degrees and a cold-started Fiedler solve via find_violating_set.  Kept
/// as the reference implementation for regression tests and benchmarks of
/// the engine (see DESIGN.md §5).
[[nodiscard]] PruneResult prune_reference(const Graph& g, const VertexSet& alive, double alpha,
                                          double epsilon, const PruneOptions& options = {});

}  // namespace fne
