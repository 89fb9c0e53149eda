#include "span/span.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <utility>

#include "core/traversal.hpp"
#include "span/compact_sets.hpp"
#include "span/steiner.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fne {

namespace {

/// One compact set's boundary with its cheap (approximate) tree.
struct Candidate {
  VertexSet u;
  std::vector<vid> terminals;  ///< Γ(U); b = terminals.size() >= 1
  vid approx = 0;              ///< metric-closure tree size, never below the exact one
  bool feasible = false;       ///< Dreyfus–Wagner is within its budget
};

Candidate make_candidate(const Graph& g, const VertexSet& u, const VertexSet& boundary) {
  std::vector<vid> terminals = boundary.to_vector();
  const vid approx = steiner_approx(g, terminals).tree_nodes;
  const bool feasible =
      dreyfus_wagner_feasible(g.num_vertices(), static_cast<vid>(terminals.size()));
  return {u, std::move(terminals), approx, feasible};
}

double ratio(vid tree_nodes, const Candidate& c) {
  return static_cast<double>(tree_nodes) / static_cast<double>(c.terminals.size());
}

/// The evaluation rule both span scans share: approx first; exact only
/// when it can win; approx == b is already optimal (a tree holds every
/// terminal).  A candidate wins with a strictly greater ratio, or an equal
/// one when it comes `earlier` in sample order than the incumbent -- so
/// any visiting order yields the sequential first strict maximum over
/// exact-where-feasible trees.  Returns whether `c` became the incumbent.
bool offer(const Graph& g, const Candidate& c, bool earlier, SpanResult& result) {
  const auto wins = [&](double r) { return r > result.span || (earlier && r == result.span); };
  if (!wins(ratio(c.approx, c))) return false;
  vid tree_nodes = c.approx;
  if (c.feasible && c.approx > c.terminals.size()) {
    ++result.exact_trees;
    tree_nodes = steiner_exact(g, c.terminals).tree_nodes;
    if (!wins(ratio(tree_nodes, c))) return false;
  }
  result.span = ratio(tree_nodes, c);
  result.worst_set = c.u;
  result.worst_boundary = static_cast<vid>(c.terminals.size());
  result.worst_tree_nodes = tree_nodes;
  return true;
}

}  // namespace

SpanResult exact_span(const Graph& g) {
  SpanResult result;
  result.exact = true;
  const VertexSet all = VertexSet::full(g.num_vertices());
  enumerate_compact_sets(g, [&](const VertexSet& u) {
    ++result.sets_examined;
    const VertexSet boundary = node_boundary(g, all, u);
    if (boundary.empty()) return;  // cannot happen for connected g, proper compact u
    // result.exact reflects whether every tree was within the DW budget.
    const Candidate c = make_candidate(g, u, boundary);
    result.exact = result.exact && c.feasible;
    offer(g, c, /*earlier=*/false, result);
  });
  return result;
}

SpanResult estimate_span(const Graph& g, const SpanEstimateOptions& options) {
  FNE_REQUIRE(options.samples_per_size >= 1, "need at least one sample per size");
  const vid n = g.num_vertices();
  const VertexSet all = VertexSet::full(n);
  Rng rng(options.seed);

  // Sample: every candidate with its approximate tree.
  SpanResult result;
  result.exact = true;  // cleared as soon as one tree exceeds the DW budget
  std::vector<Candidate> candidates;
  for (double frac : options.size_fractions) {
    const auto target = static_cast<vid>(frac * static_cast<double>(n));
    if (target < 1 || 2 * target > n) continue;
    for (int s = 0; s < options.samples_per_size; ++s) {
      const VertexSet u = sample_compact_set(g, target, rng.next());
      if (u.empty()) continue;
      ++result.sets_examined;
      const VertexSet boundary = node_boundary(g, all, u);
      if (boundary.empty()) continue;
      candidates.push_back(make_candidate(g, u, boundary));
      result.exact = result.exact && candidates.back().feasible;
    }
  }

  // Resolve: best approximate ratio first.  Once an approximate ratio
  // falls below the incumbent's, no later candidate can reach it.
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ratio(candidates[a].approx, candidates[a]) > ratio(candidates[b].approx, candidates[b]);
  });
  std::size_t incumbent = std::numeric_limits<std::size_t>::max();
  for (std::size_t i : order) {
    const Candidate& c = candidates[i];
    if (ratio(c.approx, c) < result.span) break;
    if (offer(g, c, i < incumbent, result)) incumbent = i;
  }
  return result;
}

}  // namespace fne
