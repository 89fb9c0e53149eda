// Parity of the production Steiner solvers against the textbook oracle in
// steiner_reference.hpp.  The naive span scans call steiner_tree, so they
// no longer check Dreyfus–Wagner on their own; this suite does.
//   * steiner_exact: same optimum as reference DW, and a connected vertex
//     set of exactly that size holding every terminal (the set itself may
//     differ: any minimum tree is correct).
//   * steiner_approx: the very same vertex set as the eager construction,
//     since span payloads and DW dispatch rest on its size.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "core/traversal.hpp"
#include "span/compact_sets.hpp"
#include "span/steiner.hpp"
#include "steiner_reference.hpp"
#include "topology/classic.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"
#include "util/rng.hpp"

namespace fne {
namespace {

void expect_exact_parity(const Graph& g, const std::vector<vid>& terminals) {
  const SteinerResult want = reference::steiner_exact(g, terminals);
  const SteinerResult got = steiner_exact(g, terminals);
  EXPECT_TRUE(got.exact);
  EXPECT_EQ(got.tree_nodes, want.tree_nodes);
  EXPECT_EQ(got.tree_edges, want.tree_edges);
  EXPECT_EQ(got.nodes.count(), got.tree_nodes);
  for (vid v : terminals) EXPECT_TRUE(got.nodes.test(v)) << "terminal " << v;
  EXPECT_TRUE(is_connected_subset(g, VertexSet::full(g.num_vertices()), got.nodes));
}

void expect_approx_parity(const Graph& g, const std::vector<vid>& terminals) {
  const SteinerResult want = reference::steiner_approx(g, terminals);
  const SteinerResult got = steiner_approx(g, terminals);
  EXPECT_FALSE(got.exact);
  EXPECT_EQ(got.tree_nodes, want.tree_nodes);
  EXPECT_EQ(got.tree_edges, want.tree_edges);
  EXPECT_TRUE(got.nodes == want.nodes);
}

/// Case `i`'s graph: random-regular, 2-D mesh, hypercube (3–6) or cycle.
std::pair<std::string, Graph> parity_graph(int i, Rng& rng) {
  switch (i % 4) {
    case 0: {
      const auto n = static_cast<vid>(2 * rng.uniform_int(8, 30));
      const auto d = static_cast<vid>(rng.uniform_int(3, 4));
      for (std::uint64_t seed = rng.next();; ++seed) {
        Graph g = random_regular(n, d, seed);
        if (is_connected(g, VertexSet::full(n))) {
          return {"random-regular-" + std::to_string(n) + "-" + std::to_string(d), std::move(g)};
        }
      }
    }
    case 1: {
      const auto rows = static_cast<vid>(rng.uniform_int(2, 8));
      const auto cols = static_cast<vid>(rng.uniform_int(3, 8));
      return {"mesh-" + std::to_string(rows) + "x" + std::to_string(cols),
              Mesh({rows, cols}).graph()};
    }
    case 2: {
      const auto dims = static_cast<vid>(rng.uniform_int(3, 6));
      return {"hypercube-" + std::to_string(dims), hypercube(dims)};
    }
    default: {
      const auto n = static_cast<vid>(rng.uniform_int(5, 40));
      return {"cycle-" + std::to_string(n), cycle_graph(n)};
    }
  }
}

TEST(SteinerParity, SeededCasesMatchTheReference) {
  Rng rng(20260418);
  constexpr int kCases = 1000;
  for (int i = 0; i < kCases; ++i) {
    const auto [name, g] = parity_graph(i, rng);
    const vid n = g.num_vertices();
    const auto t = static_cast<vid>(rng.uniform_int(1, std::min<std::int64_t>(11, n)));
    const auto picked = rng.sample_without_replacement(n, t);
    const std::vector<vid> terminals(picked.begin(), picked.end());
    SCOPED_TRACE("case " + std::to_string(i) + " " + name + " t=" + std::to_string(t));
    expect_exact_parity(g, terminals);
    expect_approx_parity(g, terminals);
    if (HasFailure()) return;
  }
}

/// The boundary of the first sampled compact set of `target` vertices
/// (seeds 1, 2, ...) whose boundary has `want` terminals; 0 = any.
std::vector<vid> sampled_boundary(const Graph& g, vid target, vid want) {
  const VertexSet all = VertexSet::full(g.num_vertices());
  for (std::uint64_t seed = 1; seed < 10'000; ++seed) {
    const VertexSet u = sample_compact_set(g, target, seed);
    if (u.empty()) continue;
    const VertexSet boundary = node_boundary(g, all, u);
    if (want == 0 || boundary.count() == want) return boundary.to_vector();
  }
  return {};
}

TEST(SteinerParity, FourteenTerminalBoundaryOnHypercube5) {
  // E8's largest DW calls: 14-terminal boundaries on hypercube(5).
  const Graph g = hypercube(5);
  bool found = false;
  for (vid target : {6U, 11U, 16U}) {
    const std::vector<vid> terminals = sampled_boundary(g, target, 14);
    if (terminals.empty()) continue;
    found = true;
    SCOPED_TRACE("compact set of " + std::to_string(target));
    expect_exact_parity(g, terminals);
    expect_approx_parity(g, terminals);
  }
  EXPECT_TRUE(found);
}

TEST(SteinerParity, HalfSetBoundaryOnHypercube9) {
  // E8's largest approximate trees: the boundary of a half-size compact set.
  const Graph g = hypercube(9);
  const std::vector<vid> terminals = sampled_boundary(g, 256, 0);
  ASSERT_GT(terminals.size(), 18U);  // beyond DW's reach
  expect_approx_parity(g, terminals);
}

}  // namespace
}  // namespace fne
