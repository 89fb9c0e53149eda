#include "spectral/fiedler.hpp"

#include "core/traversal.hpp"
#include "spectral/operator.hpp"
#include "util/require.hpp"

namespace fne {

FiedlerResult fiedler_vector(const Graph& g, const VertexSet& alive,
                             const FiedlerOptions& options) {
  FNE_REQUIRE(alive.count() >= 2, "Fiedler vector needs >= 2 alive vertices");
  // Solve over the compact sub-CSR: one build (or none, when the caller
  // maintains one incrementally) buys every Lanczos apply a branch-free
  // walk of alive arcs only — no to_sub gather, no dead-neighbor test, no
  // per-apply degree recount (DESIGN.md §7).
  SubCsr local;
  const SubCsr* sub = options.sub;
  if (sub == nullptr) {
    local.build(g, alive);
    sub = &local;
  }
  FNE_REQUIRE(sub->dim() == alive.count(), "prebuilt SubCsr does not match the alive mask");
  SubCsrLaplacian lap(*sub);
  const std::size_t k = lap.dim();

  LanczosOptions opts;
  opts.num_eigenpairs = 1;
  opts.seed = options.seed;
  opts.max_iterations = options.max_iterations;
  opts.tolerance = options.tolerance;
  opts.scratch = options.scratch;
  opts.accel = SpectralAccel{SpectralMode::kAuto, gershgorin_upper_bound(*sub)};

  // Restrict the warm-start vector (original ids) to the masked subspace.
  std::vector<double> initial;
  if (options.warm_start != nullptr && options.warm_start->size() == g.num_vertices()) {
    const auto& verts = lap.vertices();
    initial.resize(k);
    for (std::size_t i = 0; i < verts.size(); ++i) initial[i] = (*options.warm_start)[verts[i]];
    opts.initial = &initial;
  }

  const std::vector<std::vector<double>> deflation{std::vector<double>(k, 1.0)};
  const auto res = lanczos_smallest(
      [&lap](const std::vector<double>& x, std::vector<double>& y) { lap.apply(x, y); }, k,
      deflation, opts);

  FiedlerResult out;
  out.converged = res.converged && !res.values.empty();
  out.vector.assign(g.num_vertices(), 0.0);
  if (!res.values.empty()) {
    out.lambda2 = res.values[0];
    const auto& verts = lap.vertices();
    for (std::size_t i = 0; i < verts.size(); ++i) out.vector[verts[i]] = res.vectors[0][i];
  }
  return out;
}

FiedlerResult fiedler_vector(const Graph& g, const VertexSet& alive, std::uint64_t seed) {
  FiedlerOptions options;
  options.seed = seed;
  return fiedler_vector(g, alive, options);
}

}  // namespace fne
