#include "span/steiner.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>
#include <utility>

#include "core/traversal.hpp"
#include "util/require.hpp"

namespace fne {

namespace {

constexpr std::uint32_t kInf = 0x3fffffffU;

std::uint64_t pow3(vid t) {
  std::uint64_t p = 1;
  for (vid i = 0; i < t; ++i) p *= 3;
  return p;
}

}  // namespace

bool dreyfus_wagner_feasible(vid n, vid terminals) {
  if (terminals == 0 || terminals > 18) return false;
  return pow3(terminals) * static_cast<std::uint64_t>(n) <= kDreyfusWagnerBudget;
}

SteinerResult steiner_exact(const Graph& g, const std::vector<vid>& terminals) {
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

  // Rooted at the last terminal: dp[mask][v] is the fewest edges of a tree
  // holding v and the terminals in `mask`, a subset of the other t - 1.
  // The optimum is dp[full][root].
  const vid root = terminals[t - 1];
  const std::uint32_t full = (std::uint32_t{1} << (t - 1)) - 1U;
  std::vector<std::uint32_t> dp((std::size_t{full} + 1) * n, kInf);
  auto row = [&](std::uint32_t mask) { return dp.data() + static_cast<std::size_t>(mask) * n; };

  // Grow step: d[v] = min over u of d[u] + dist(u, v).  Seeds are counting-
  // sorted by cost and merged with the FIFO of relaxed vertices (itself
  // nondecreasing), so vertices settle in Dijkstra order.
  std::vector<std::uint32_t> start;
  std::vector<vid> seeds(n);
  std::vector<vid> fifo(n);
  auto grow = [&](std::uint32_t* d) {
    std::uint32_t top = 0;
    for (vid v = 0; v < n; ++v) {
      if (d[v] < kInf) {
        top = std::max(top, d[v]);
      } else {
        d[v] = kInf;  // keeps every later merge sum below 2^32
      }
    }
    start.assign(std::size_t{top} + 2, 0);
    for (vid v = 0; v < n; ++v) {
      if (d[v] < kInf) ++start[d[v] + 1];
    }
    for (std::uint32_t c = 0; c <= top; ++c) start[c + 1] += start[c];
    const std::size_t num_seeds = start[top + 1];
    for (vid v = 0; v < n; ++v) {
      if (d[v] < kInf) seeds[start[d[v]]++] = v;
    }
    // start[c] is now the end of cost c's seeds; `level` tracks the cost of
    // seeds[next] (a seed whose d fell below it was already relaxed).
    std::size_t next = 0;
    std::size_t head = 0;
    std::size_t tail = 0;
    std::uint32_t level = 0;
    while (next < num_seeds || head < tail) {
      while (next < num_seeds && next == start[level]) ++level;
      vid u;
      if (next < num_seeds && (head == tail || level <= d[fifo[head]])) {
        u = seeds[next++];
        if (d[u] != level) continue;
      } else {
        u = fifo[head++];
      }
      const std::uint32_t cost = d[u] + 1;
      for (vid w : g.neighbors(u)) {
        if (cost < d[w]) {
          d[w] = cost;
          fifo[tail++] = w;
        }
      }
    }
  };

  // Masks in increasing numeric order: every proper submask comes first.
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    std::uint32_t* d = row(mask);
    if ((mask & (mask - 1)) == 0) {
      d[terminals[__builtin_ctz(mask)]] = 0;
    } else {
      // Merge complementary subtrees meeting at v; the lowest terminal of
      // `mask` stays in `sub` so each split is tried once.
      const std::uint32_t low = mask & (~mask + 1);
      for (std::uint32_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
        if ((sub & low) == 0) continue;
        const std::uint32_t* a = row(sub);
        const std::uint32_t* b = row(mask ^ sub);
        for (vid v = 0; v < n; ++v) d[v] = std::min(d[v], a[v] + b[v]);
      }
    }
    grow(d);
  }

  const std::uint32_t cost = row(full)[root];
  FNE_REQUIRE(cost < kInf, "terminals are not mutually connected");

  // Reconstruction re-derives each step from dp: at (mask, v), a split of
  // `mask` whose halves sum to dp[mask][v] is a merge; otherwise a
  // neighbour one cheaper is a grow step; a singleton at cost 0 is its
  // terminal.  The union is connected, holds every terminal and has at
  // most `cost` edges, so it is a minimum tree's vertex set.
  std::vector<std::pair<std::uint32_t, vid>> stack{{full, root}};
  while (!stack.empty()) {
    const auto [mask, v] = stack.back();
    stack.pop_back();
    result.nodes.set(v);
    const std::uint32_t c = row(mask)[v];
    bool merged = false;
    const std::uint32_t low = mask & (~mask + 1);
    for (std::uint32_t sub = (mask - 1) & mask; sub != 0 && !merged; sub = (sub - 1) & mask) {
      if ((sub & low) != 0 && row(sub)[v] + row(mask ^ sub)[v] == c) {
        stack.push_back({sub, v});
        stack.push_back({mask ^ sub, v});
        merged = true;
      }
    }
    if (merged || c == 0) continue;
    for (vid w : g.neighbors(v)) {
      if (row(mask)[w] + 1 == c) {
        stack.push_back({mask, w});
        break;
      }
    }
  }

  result.tree_edges = cost;
  result.tree_nodes = cost + 1;
  return result;
}

SteinerResult steiner_approx(const Graph& g, const std::vector<vid>& terminals) {
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

  // Terminal indices by vertex: the first at each vertex (kInvalidVertex
  // off the terminals), then a chain.
  std::vector<vid> first_at(n, kInvalidVertex);
  std::vector<vid> next_at(t, kInvalidVertex);
  for (vid i = t; i-- > 0;) {
    next_at[i] = first_at[terminals[i]];
    first_at[terminals[i]] = i;
  }

  // Prim MST over the metric closure of the terminals.  A terminal's BFS
  // runs when Prim picks it, and stops at the level that reaches the
  // largest out-of-tree best[j]: the update is a strict `<`, so no deeper
  // vertex can change best.  A BFS prefix assigns the same parents as the
  // full BFS, so the picks, best, best_from and every realized path are
  // those of a full BFS from every terminal.
  std::vector<vid> parent(static_cast<std::size_t>(t) * n);  // row i: BFS from terminal i
  std::vector<std::uint32_t> dist(n);
  std::vector<vid> stamp(n, 0);  // round + 1 of the last BFS that reached v
  std::vector<vid> frontier(n);
  std::vector<vid> out(t);  // out-of-tree terminals, unordered
  std::iota(out.begin(), out.end(), vid{0});
  std::vector<std::uint32_t> best(t, kUnreached);
  std::vector<vid> best_from(t, 0);
  best[0] = 0;
  for (vid round = 0; round < t; ++round) {
    // The least best[i], ties to the lowest index; `cut` is the largest.
    std::size_t slot = 0;
    std::uint32_t cut = 0;
    for (std::size_t s = 0; s < out.size(); ++s) {
      const vid i = out[s];
      const vid p = out[slot];
      if (best[i] < best[p] || (best[i] == best[p] && i < p)) slot = s;
      cut = std::max(cut, best[i]);
    }
    const vid pick = out[slot];
    FNE_REQUIRE(best[pick] != kUnreached, "terminals are not mutually connected");
    out[slot] = out.back();
    out.pop_back();
    if (round > 0) {
      // Realize the closure edge: walk terminal `pick` home along the BFS
      // parents of terminal `best_from[pick]`.
      const vid* home = parent.data() + static_cast<std::size_t>(best_from[pick]) * n;
      for (vid cur = terminals[pick]; cur != kInvalidVertex; cur = home[cur]) {
        result.nodes.set(cur);
      }
    } else {
      result.nodes.set(terminals[0]);
    }
    if (out.empty()) break;
    best[pick] = 0;  // in the tree now: no distance can lower it

    const vid mark = round + 1;
    vid* par = parent.data() + static_cast<std::size_t>(pick) * n;
    std::size_t head = 0;
    std::size_t tail = 0;
    auto reach = [&](vid v, std::uint32_t d) {
      stamp[v] = mark;
      dist[v] = d;
      frontier[tail++] = v;
      for (vid j = first_at[v]; j != kInvalidVertex; j = next_at[j]) {
        if (d < best[j]) {
          best[j] = d;
          best_from[j] = pick;
        }
      }
    };
    par[terminals[pick]] = kInvalidVertex;
    reach(terminals[pick], 0);
    while (head < tail) {
      const vid u = frontier[head++];
      const std::uint32_t d = dist[u] + 1;
      if (d >= cut) break;
      for (vid w : g.neighbors(u)) {
        if (stamp[w] != mark) {
          par[w] = u;
          reach(w, d);
        }
      }
    }
  }

  // Prune: spanning tree of the realized union, then strip non-terminal
  // leaves (standard post-pass that tightens the 2-approx in practice).
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
    if (child_count[v] == 0 && first_at[v] == kInvalidVertex) leaves.push_back(v);
  });
  while (!leaves.empty()) {
    const vid v = leaves.back();
    leaves.pop_back();
    seen.reset(v);
    const vid p = tree_parent[v];
    if (p != kInvalidVertex && --child_count[p] == 0 && first_at[p] == kInvalidVertex) {
      leaves.push_back(p);
    }
  }
  result.nodes = seen;
  result.tree_nodes = seen.count();
  result.tree_edges = result.tree_nodes > 0 ? result.tree_nodes - 1 : 0;
  return result;
}

SteinerResult steiner_tree(const Graph& g, const std::vector<vid>& terminals) {
  if (dreyfus_wagner_feasible(g.num_vertices(), static_cast<vid>(terminals.size()))) {
    return steiner_exact(g, terminals);
  }
  return steiner_approx(g, terminals);
}

}  // namespace fne
