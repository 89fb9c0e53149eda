// The span of a graph (paper Eq. 1):
//   σ = max over compact U of |P(U)| / |Γ(U)|,
// where P(U) is the smallest tree connecting every node of Γ(U).
//
// Exact for small graphs (exhaustive compact sets + Dreyfus–Wagner);
// sampled for large graphs.  Both scans take the metric-closure tree of
// every candidate first and run Dreyfus–Wagner only where it can change
// the maximum, with the same result as exact Steiner trees everywhere the
// DW budget allows.  When `exact` is set, every candidate's tree was
// within the DW budget, so `span` is the exact-tree maximum over the
// examined sets -- for a sampled estimate, a LOWER bound on σ.  Otherwise
// some ratios rest on approximate trees, each of which only overshoots, by
// at most 2×: with σ_sampled the exact-tree maximum over the same sets,
// σ_sampled <= σ_est <= 2σ, and σ_est may exceed σ (it is then no lower
// bound).
#pragma once

#include <cstdint>

#include "core/graph.hpp"
#include "core/vertex_set.hpp"

namespace fne {

struct SpanResult {
  double span = 0.0;
  VertexSet worst_set;        ///< compact set achieving the maximum
  vid worst_boundary = 0;
  vid worst_tree_nodes = 0;
  std::uint64_t sets_examined = 0;
  /// Every candidate's tree was within the DW budget, so `span` is the
  /// exact-tree maximum over the sampled (or, for exact_span, all) sets.
  bool exact = false;
  /// Dreyfus–Wagner runs made: only candidates whose approximate ratio
  /// could raise the maximum and whose approximate tree is not already
  /// optimal.  Not part of any payload.
  std::uint64_t exact_trees = 0;
};

/// Exact span by exhaustive compact-set enumeration.  Requires the graph
/// to be connected and small (kCompactEnumLimit).
[[nodiscard]] SpanResult exact_span(const Graph& g);

struct SpanEstimateOptions {
  int samples_per_size = 32;
  std::uint64_t seed = 7;
  /// Target sizes as fractions of n; 0 entries are skipped.
  std::vector<double> size_fractions{0.02, 0.05, 0.1, 0.2, 0.35, 0.5};
};

/// Sampled span estimate over random compact sets.
[[nodiscard]] SpanResult estimate_span(const Graph& g, const SpanEstimateOptions& options = {});

}  // namespace fne
