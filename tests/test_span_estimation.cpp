#include "span/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/traversal.hpp"
#include "span/compact_sets.hpp"
#include "span/steiner.hpp"
#include "topology/butterfly.hpp"
#include "topology/classic.hpp"
#include "topology/debruijn.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"
#include "topology/shuffle_exchange.hpp"
#include "util/rng.hpp"

namespace fne {
namespace {

/// The reference evaluation: steiner_tree (exact where DW is affordable)
/// on every candidate, first strict maximum in visiting order.  `ratios`
/// and `feasible` keep each candidate's ratio and DW affordability so the
/// edge-case tests can check what they exercise.
struct NaiveScan {
  SpanResult result;
  std::vector<double> ratios;
  std::vector<bool> feasible;

  NaiveScan() { result.exact = true; }

  void visit(const Graph& g, const VertexSet& u) {
    ++result.sets_examined;
    const VertexSet boundary = node_boundary(g, VertexSet::full(g.num_vertices()), u);
    const vid b = boundary.count();
    if (b == 0) return;
    const SteinerResult tree = steiner_tree(g, boundary.to_vector());
    result.exact = result.exact && tree.exact;
    feasible.push_back(tree.exact);
    const double ratio = static_cast<double>(tree.tree_nodes) / static_cast<double>(b);
    ratios.push_back(ratio);
    if (ratio > result.span) {
      result.span = ratio;
      result.worst_set = u;
      result.worst_boundary = b;
      result.worst_tree_nodes = tree.tree_nodes;
    }
  }
};

NaiveScan naive_estimate(const Graph& g, const SpanEstimateOptions& options) {
  const vid n = g.num_vertices();
  Rng rng(options.seed);
  NaiveScan scan;
  for (double frac : options.size_fractions) {
    const auto target = static_cast<vid>(frac * static_cast<double>(n));
    if (target < 1 || 2 * target > n) continue;
    for (int s = 0; s < options.samples_per_size; ++s) {
      const VertexSet u = sample_compact_set(g, target, rng.next());
      if (!u.empty()) scan.visit(g, u);
    }
  }
  return scan;
}

NaiveScan naive_exact(const Graph& g) {
  NaiveScan scan;
  enumerate_compact_sets(g, [&](const VertexSet& u) { scan.visit(g, u); });
  return scan;
}

void expect_same(const SpanResult& got, const SpanResult& want, const std::string& label) {
  EXPECT_EQ(got.span, want.span) << label;
  EXPECT_TRUE(got.worst_set == want.worst_set) << label;
  EXPECT_EQ(got.worst_boundary, want.worst_boundary) << label;
  EXPECT_EQ(got.worst_tree_nodes, want.worst_tree_nodes) << label;
  EXPECT_EQ(got.sets_examined, want.sets_examined) << label;
  EXPECT_EQ(got.exact, want.exact) << label;
}

/// E8's span_estimate parameters (campaigns/e8_span_conjecture.json).
SpanEstimateOptions e8_options(std::uint64_t seed, int samples = 12) {
  SpanEstimateOptions opts;
  opts.samples_per_size = samples;
  opts.seed = seed;
  opts.size_fractions = {0.05, 0.1, 0.2, 0.35, 0.5};
  return opts;
}

void expect_estimate_matches_naive(const Graph& g, const std::string& name, int samples) {
  ASSERT_TRUE(is_connected(g, VertexSet::full(g.num_vertices()))) << name;
  for (std::uint64_t seed : {7ULL, 42ULL, 1234ULL}) {
    const SpanEstimateOptions opts = e8_options(seed, samples);
    expect_same(estimate_span(g, opts), naive_estimate(g, opts).result,
                name + " seed " + std::to_string(seed));
  }
}

TEST(ExactSpan, PathSpanIsOne) {
  // Compact sets of a path are prefixes/suffixes: |Γ(U)| = 1 and P(U) is
  // that single node, so σ = 1.
  const SpanResult r = exact_span(path_graph(8));
  EXPECT_DOUBLE_EQ(r.span, 1.0);
  EXPECT_TRUE(r.exact);
}

TEST(ExactSpan, CycleSpanKnown) {
  // Compact sets of C_n are arcs: boundary = 2 nodes at arc distance
  // min(len+1, n-len-1) apart; P(U) is the shorter connecting path.  The
  // worst arc yields σ = (floor(n/2) + 1) / 2.
  const SpanResult r = exact_span(cycle_graph(8));
  EXPECT_DOUBLE_EQ(r.span, 2.5);
  EXPECT_EQ(r.worst_boundary, 2U);
  EXPECT_EQ(r.worst_tree_nodes, 5U);
}

TEST(ExactSpan, Mesh2DAtMostTwo) {
  // Theorem 3.6: span of the d-dimensional mesh is 2.
  for (auto sides : {std::vector<vid>{3, 3}, std::vector<vid>{4, 4}, std::vector<vid>{2, 2, 2}}) {
    const Mesh m(sides);
    const SpanResult r = exact_span(m.graph());
    EXPECT_LE(r.span, 2.0) << "mesh " << m.graph().summary();
    EXPECT_GE(r.span, 1.0);
  }
}

TEST(ExactSpan, ReportsWitness) {
  const SpanResult r = exact_span(cycle_graph(6));
  EXPECT_GT(r.sets_examined, 0ULL);
  EXPECT_FALSE(r.worst_set.empty());
  EXPECT_DOUBLE_EQ(r.span, static_cast<double>(r.worst_tree_nodes) / r.worst_boundary);
}

TEST(EstimateSpan, LowerBoundsExactOnSmallMesh) {
  const Mesh m({4, 4});
  const SpanResult exact = exact_span(m.graph());
  SpanEstimateOptions opts;
  opts.samples_per_size = 16;
  const SpanResult est = estimate_span(m.graph(), opts);
  // Sampled max with exact Steiner trees can never exceed the true span.
  EXPECT_LE(est.span, exact.span + 1e-9);
  EXPECT_GT(est.span, 0.0);
}

TEST(EstimateSpan, MeshEstimateStaysBelowTwo) {
  const Mesh m({12, 12});
  SpanEstimateOptions opts;
  opts.samples_per_size = 8;
  const SpanResult est = estimate_span(m.graph(), opts);
  // With exact Steiner trees the estimate is <= σ = 2; approximate trees
  // could double it, so allow the documented 2x slack only when inexact.
  const double limit = est.exact ? 2.0 : 4.0;
  EXPECT_LE(est.span, limit + 1e-9);
}

TEST(EstimateSpan, HypercubeSmallSpanEvidence) {
  // §4 conjectures O(1) span for hypercube-like networks.
  const Graph g = hypercube(6);
  SpanEstimateOptions opts;
  opts.samples_per_size = 6;
  const SpanResult est = estimate_span(g, opts);
  EXPECT_GT(est.sets_examined, 0ULL);
  EXPECT_LT(est.span, 6.0);
}

TEST(EstimateSpan, DeterministicUnderSeed) {
  const Mesh m({8, 8});
  SpanEstimateOptions opts;
  opts.samples_per_size = 4;
  const SpanResult a = estimate_span(m.graph(), opts);
  const SpanResult b = estimate_span(m.graph(), opts);
  EXPECT_DOUBLE_EQ(a.span, b.span);
  EXPECT_EQ(a.sets_examined, b.sets_examined);
}

TEST(SpanReference, EstimateMatchesNaive) {
  expect_estimate_matches_naive(hypercube(4), "hypercube-4", 12);
  expect_estimate_matches_naive(shuffle_exchange(5), "shuffle-exchange-5", 12);
  expect_estimate_matches_naive(butterfly(3).graph, "butterfly-3", 12);
  expect_estimate_matches_naive(Mesh({4, 4}).graph(), "mesh-4x4", 12);
  expect_estimate_matches_naive(Mesh({6, 6}).graph(), "mesh-6x6", 12);
}

TEST(SpanReference, ExactMatchesNaive) {
  const std::vector<std::pair<std::string, Graph>> cases{
      {"path-8", path_graph(8)},         {"cycle-6", cycle_graph(6)},
      {"cycle-8", cycle_graph(8)},       {"mesh-3x3", Mesh({3, 3}).graph()},
      {"mesh-4x4", Mesh({4, 4}).graph()},
  };
  for (const auto& [name, g] : cases) expect_same(exact_span(g), naive_exact(g).result, name);
}

TEST(SpanReference, AllTiesKeepTheFirstMaximalSample) {
  // Every arc of C_16 with 4 vertices has the same 2-node boundary at
  // distance 5, so all samples tie and worst_set must be the first one.
  const Graph g = cycle_graph(16);
  SpanEstimateOptions opts;
  opts.samples_per_size = 8;
  opts.size_fractions = {0.25};
  const NaiveScan naive = naive_estimate(g, opts);
  ASSERT_GE(naive.ratios.size(), 2U);
  for (double r : naive.ratios) ASSERT_EQ(r, naive.ratios.front());
  expect_same(estimate_span(g, opts), naive.result, "cycle-16");
}

TEST(SpanReference, NoQualifyingFractionIsAnEmptyExactResult) {
  SpanEstimateOptions opts;
  opts.size_fractions = {0.0, 0.9};  // target 0, and a target above n/2
  const SpanResult r = estimate_span(Mesh({4, 4}).graph(), opts);
  EXPECT_EQ(r.span, 0.0);
  EXPECT_TRUE(r.worst_set.empty());
  EXPECT_EQ(r.sets_examined, 0U);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.exact_trees, 0U);
  expect_same(r, naive_estimate(Mesh({4, 4}).graph(), opts).result, "no fraction");
}

TEST(SpanReference, MixedFeasibilityMatchesNaive) {
  // On a 30x30 mesh DW is affordable up to 10 terminals: the small sets
  // get exact trees and the large ones only approximate trees.
  const Graph g = Mesh({30, 30}).graph();
  SpanEstimateOptions opts;
  opts.samples_per_size = 6;
  opts.size_fractions = {0.005, 0.1};
  for (std::uint64_t seed : {7ULL, 42ULL, 1234ULL}) {
    opts.seed = seed;
    const NaiveScan naive = naive_estimate(g, opts);
    EXPECT_NE(std::find(naive.feasible.begin(), naive.feasible.end(), true), naive.feasible.end());
    EXPECT_NE(std::find(naive.feasible.begin(), naive.feasible.end(), false), naive.feasible.end());
    expect_same(estimate_span(g, opts), naive.result, "mesh-30x30 seed " + std::to_string(seed));
  }
}

TEST(SpanReference, PinnedDreyfusWagnerCallsOnHypercube5) {
  // A pinned reference value: a change in how many candidates reach DW
  // (a pruning regression or improvement) shows up as a visible diff.
  const SpanResult r = estimate_span(hypercube(5), e8_options(42));
  EXPECT_EQ(r.sets_examined, 60U);
  EXPECT_EQ(r.exact_trees, 22U);
}

// The naive scan runs DW on every affordable candidate, up to 14
// terminals on hypercube-5.
TEST(SpanReferenceSlow, EstimateMatchesNaive) {
  expect_estimate_matches_naive(debruijn(5), "debruijn-5", 12);
  expect_estimate_matches_naive(random_regular(40, 3, 5), "random-regular-40-3", 12);
  expect_estimate_matches_naive(hypercube(5), "hypercube-5", 12);
}

TEST(SpanReferenceSlow, ExactMatchesNaiveHypercube4) {
  const Graph g = hypercube(4);  // 20112 compact sets
  expect_same(exact_span(g), naive_exact(g).result, "hypercube-4");
}

}  // namespace
}  // namespace fne
