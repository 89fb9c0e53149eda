// Test-only oracle: the textbook Steiner solvers that span/steiner.cpp
// replaced, kept verbatim so the production solvers are checked against an
// independent implementation.
//   * reference::steiner_exact — Dreyfus–Wagner over all 2^t terminal
//     subsets, binary-heap grow steps, choice arrays for reconstruction.
//   * reference::steiner_approx — a full BFS from every terminal up front,
//     then Prim over the metric closure and the non-terminal leaf strip.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <queue>
#include <utility>
#include <vector>

#include "core/traversal.hpp"
#include "span/steiner.hpp"
#include "util/require.hpp"

namespace fne::reference {

inline constexpr std::uint32_t kInf = 0x3fffffffU;

inline SteinerResult steiner_exact(const Graph& g, const std::vector<vid>& terminals) {
  FNE_REQUIRE(!terminals.empty(), "Steiner tree needs >= 1 terminal");
  FNE_REQUIRE(dreyfus_wagner_feasible(g.num_vertices(), static_cast<vid>(terminals.size())),
              "Dreyfus–Wagner parameters exceed the cost budget");
  const vid n = g.num_vertices();
  const auto t = static_cast<vid>(terminals.size());

  SteinerResult result;
  result.exact = true;
  result.nodes = VertexSet(n);
  if (t == 1) {
    result.nodes.set(terminals[0]);
    result.tree_nodes = 1;
    result.tree_edges = 0;
    return result;
  }

  const std::uint32_t full = (std::uint32_t{1} << t) - 1U;
  const std::size_t masks = std::size_t{1} << t;
  std::vector<std::uint32_t> dp(masks * n, kInf);
  std::vector<std::uint32_t> choice_sub(masks * n, 0);      // nonzero => merge split
  std::vector<vid> choice_pred(masks * n, kInvalidVertex);  // grow predecessor

  auto idx = [n](std::uint32_t mask, vid v) { return static_cast<std::size_t>(mask) * n + v; };

  // Grow step: Dijkstra relaxation (unit weights) from the current dp row.
  auto grow = [&](std::uint32_t mask) {
    using Item = std::pair<std::uint32_t, vid>;  // (cost, vertex)
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    for (vid v = 0; v < n; ++v) {
      if (dp[idx(mask, v)] < kInf) heap.push({dp[idx(mask, v)], v});
    }
    while (!heap.empty()) {
      const auto [cost, v] = heap.top();
      heap.pop();
      if (cost != dp[idx(mask, v)]) continue;
      for (vid w : g.neighbors(v)) {
        if (cost + 1 < dp[idx(mask, w)]) {
          dp[idx(mask, w)] = cost + 1;
          choice_pred[idx(mask, w)] = v;
          choice_sub[idx(mask, w)] = 0;
          heap.push({cost + 1, w});
        }
      }
    }
  };

  // Singleton masks: distance from each terminal.
  for (vid i = 0; i < t; ++i) {
    const std::uint32_t mask = std::uint32_t{1} << i;
    dp[idx(mask, terminals[i])] = 0;
    grow(mask);
  }

  // Masks in increasing popcount order.
  std::vector<std::uint32_t> order;
  order.reserve(masks - 1);
  for (std::uint32_t mask = 1; mask <= full; ++mask) order.push_back(mask);
  std::stable_sort(order.begin(), order.end(), [](std::uint32_t a, std::uint32_t b) {
    return __builtin_popcount(a) < __builtin_popcount(b);
  });
  for (std::uint32_t mask : order) {
    if (__builtin_popcount(mask) < 2) continue;
    // Merge: combine complementary sub-trees meeting at v.  Fix the lowest
    // terminal of `mask` into `sub` so each split is tried once.
    const std::uint32_t low = mask & (~mask + 1);
    for (std::uint32_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      if ((sub & low) == 0) continue;
      const std::uint32_t other = mask ^ sub;
      for (vid v = 0; v < n; ++v) {
        const std::uint32_t combined = dp[idx(sub, v)] + dp[idx(other, v)];
        if (combined < dp[idx(mask, v)]) {
          dp[idx(mask, v)] = combined;
          choice_sub[idx(mask, v)] = sub;
          choice_pred[idx(mask, v)] = kInvalidVertex;
        }
      }
    }
    grow(mask);
  }

  // Optimum and reconstruction.
  vid best_v = 0;
  for (vid v = 1; v < n; ++v) {
    if (dp[idx(full, v)] < dp[idx(full, best_v)]) best_v = v;
  }
  FNE_REQUIRE(dp[idx(full, best_v)] < kInf, "terminals are not mutually connected");

  // Recursive collection of the tree's vertex set (iterative stack).
  std::vector<std::pair<std::uint32_t, vid>> stack{{full, best_v}};
  while (!stack.empty()) {
    auto [mask, v] = stack.back();
    stack.pop_back();
    // Walk the grow chain back to the merge/init anchor.
    vid cur = v;
    while (true) {
      result.nodes.set(cur);
      const vid pred = choice_pred[idx(mask, cur)];
      if (pred == kInvalidVertex) break;
      cur = pred;
    }
    const std::uint32_t sub = choice_sub[idx(mask, cur)];
    if (sub != 0) {
      stack.push_back({sub, cur});
      stack.push_back({mask ^ sub, cur});
    }
    // popcount(mask) == 1 and no pred: cur is the terminal itself.
  }

  result.tree_edges = dp[idx(full, best_v)];
  result.tree_nodes = result.tree_edges + 1;
  return result;
}

inline SteinerResult steiner_approx(const Graph& g, const std::vector<vid>& terminals) {
  FNE_REQUIRE(!terminals.empty(), "Steiner tree needs >= 1 terminal");
  const vid n = g.num_vertices();
  const auto t = static_cast<vid>(terminals.size());
  SteinerResult result;
  result.exact = false;
  result.nodes = VertexSet(n);
  if (t == 1) {
    result.nodes.set(terminals[0]);
    result.tree_nodes = 1;
    return result;
  }

  // BFS from every terminal (distances + parents).
  std::vector<std::vector<std::uint32_t>> dist(t);
  std::vector<std::vector<vid>> parent(t, std::vector<vid>(n, kInvalidVertex));
  for (vid i = 0; i < t; ++i) {
    dist[i].assign(n, kUnreached);
    std::deque<vid> queue{terminals[i]};
    dist[i][terminals[i]] = 0;
    while (!queue.empty()) {
      const vid u = queue.front();
      queue.pop_front();
      for (vid w : g.neighbors(u)) {
        if (dist[i][w] == kUnreached) {
          dist[i][w] = dist[i][u] + 1;
          parent[i][w] = u;
          queue.push_back(w);
        }
      }
    }
  }

  // Prim MST over the metric closure of the terminals.
  std::vector<bool> in_tree(t, false);
  std::vector<std::uint32_t> best(t, kUnreached);
  std::vector<vid> best_from(t, 0);
  best[0] = 0;
  for (vid round = 0; round < t; ++round) {
    vid pick = kInvalidVertex;
    for (vid i = 0; i < t; ++i) {
      if (!in_tree[i] && (pick == kInvalidVertex || best[i] < best[pick])) pick = i;
    }
    FNE_REQUIRE(pick != kInvalidVertex && best[pick] != kUnreached,
                "terminals are not mutually connected");
    in_tree[pick] = true;
    if (round > 0) {
      // Realize the closure edge: walk terminal `pick` home along the BFS
      // parents of terminal `best_from[pick]`.
      const vid src = best_from[pick];
      vid cur = terminals[pick];
      while (cur != kInvalidVertex) {
        result.nodes.set(cur);
        cur = parent[src][cur];
      }
    } else {
      result.nodes.set(terminals[0]);
    }
    for (vid i = 0; i < t; ++i) {
      if (!in_tree[i] && dist[pick][terminals[i]] < best[i]) {
        best[i] = dist[pick][terminals[i]];
        best_from[i] = pick;
      }
    }
  }

  // Prune: spanning tree of the realized union, then strip non-terminal
  // leaves (standard post-pass that tightens the 2-approx in practice).
  VertexSet terminal_set(n);
  for (vid v : terminals) terminal_set.set(v);
  std::vector<vid> tree_parent(n, kInvalidVertex);
  VertexSet seen(n);
  std::deque<vid> queue{terminals[0]};
  seen.set(terminals[0]);
  while (!queue.empty()) {
    const vid u = queue.front();
    queue.pop_front();
    for (vid w : g.neighbors(u)) {
      if (result.nodes.test(w) && !seen.test(w)) {
        seen.set(w);
        tree_parent[w] = u;
        queue.push_back(w);
      }
    }
  }
  std::vector<vid> child_count(n, 0);
  seen.for_each([&](vid v) {
    if (tree_parent[v] != kInvalidVertex) ++child_count[tree_parent[v]];
  });
  std::vector<vid> leaves;
  seen.for_each([&](vid v) {
    if (child_count[v] == 0 && !terminal_set.test(v)) leaves.push_back(v);
  });
  while (!leaves.empty()) {
    const vid v = leaves.back();
    leaves.pop_back();
    seen.reset(v);
    const vid p = tree_parent[v];
    if (p != kInvalidVertex && --child_count[p] == 0 && !terminal_set.test(p)) {
      leaves.push_back(p);
    }
  }
  result.nodes = seen;
  result.tree_nodes = seen.count();
  result.tree_edges = result.tree_nodes > 0 ? result.tree_nodes - 1 : 0;
  return result;
}

}  // namespace fne::reference
