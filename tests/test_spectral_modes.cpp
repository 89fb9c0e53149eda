// Spectral acceleration modes (DESIGN.md §10): Chebyshev-filtered
// solves must agree with the plain solver at matched tolerance
// (eigenvalues come from Rayleigh quotients against the original
// operator), kAuto must resolve purely from (dimension, bound
// availability), the Gershgorin bound must dominate the spectrum, and
// every mode must stay bit-identical for any OMP thread count on both
// sides of kSpectralParallelDim.  The Slow suite adds the
// clustered-spectrum regression the filter exists for: the side-96
// mesh, where plain deflated solves cannot converge within 250
// iterations per pair and filtered ones must.
#include <gtest/gtest.h>

#include <cmath>

#include "core/traversal.hpp"
#include "faults/fault_model.hpp"
#include "spectral/fiedler.hpp"
#include "spectral/jacobi.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/operator.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"
#include "util/rng.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fne {
namespace {

[[nodiscard]] LinearOperator as_operator(const SubCsrLaplacian& lap) {
  return [&lap](const std::vector<double>& x, std::vector<double>& y) { lap.apply(x, y); };
}

[[nodiscard]] std::vector<std::vector<double>> ones_deflation(std::size_t dim) {
  return {std::vector<double>(dim, 1.0)};
}

[[nodiscard]] std::vector<double> dense_laplacian(const SubCsrLaplacian& lap) {
  const std::size_t n = lap.dim();
  std::vector<double> a(n * n, 0.0);
  std::vector<double> x(n, 0.0);
  std::vector<double> y(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    x.assign(n, 0.0);
    x[j] = 1.0;
    lap.apply(x, y);
    for (std::size_t i = 0; i < n; ++i) a[i * n + j] = y[i];
  }
  return a;
}

[[nodiscard]] SpectralAccel accel_for(SpectralMode mode, const SubCsr& sub) {
  SpectralAccel accel;
  accel.mode = mode;
  accel.op_upper_bound = gershgorin_upper_bound(sub);
  return accel;
}

/// Path-graph eigenvalue 2 − 2cos(πk/side); mesh eigenvalues are
/// pairwise sums of these.
[[nodiscard]] double path_mu(int k, int side) {
  return 2.0 - 2.0 * std::cos(M_PI * static_cast<double>(k) / static_cast<double>(side));
}

TEST(SpectralModes, AutoResolvesBySizeAndBound) {
  // The gate the reproduce/ goldens and the benchmarks were measured at
  // (DESIGN.md §10); moving it needs both re-checked.
  static_assert(kFilteredAutoDim == 256);
  SpectralAccel accel;
  accel.mode = SpectralMode::kAuto;
  accel.op_upper_bound = 8.0;
  EXPECT_EQ(resolve_accel_mode(accel, kFilteredAutoDim - 1), SpectralMode::kPlain);
  EXPECT_EQ(resolve_accel_mode(accel, kFilteredAutoDim), SpectralMode::kFiltered);
  accel.op_upper_bound = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(resolve_accel_mode(accel, kFilteredAutoDim), SpectralMode::kPlain)
      << "auto must not pick filtered without a usable upper bound";
  // Explicit modes resolve to themselves regardless of size.
  accel.mode = SpectralMode::kPlain;
  EXPECT_EQ(resolve_accel_mode(accel, kFilteredAutoDim), SpectralMode::kPlain);
  accel.mode = SpectralMode::kFiltered;
  EXPECT_EQ(resolve_accel_mode(accel, 10), SpectralMode::kFiltered);
}

TEST(SpectralModes, AutoFiltersAFaultyComponentAboveTheGate) {
  // The gate on a real prune-sized input: the largest component of a
  // faulty 32x32 mesh is above kFilteredAutoDim, so kAuto (the mode
  // fiedler_vector solves in) must be exactly the filtered solve, agree
  // with plain on λ₂ and take fewer iterations than plain.
  const Mesh mesh = Mesh::cube(32, 2);
  const Graph& g = mesh.graph();
  const VertexSet alive = largest_component(g, random_node_faults(g, 0.2, 2024));
  SubCsr sub;
  sub.build(g, alive);
  ASSERT_GT(sub.dim(), kFilteredAutoDim);
  const SubCsrLaplacian lap(sub);

  const FiedlerOptions fiedler_opts;
  const auto solve = [&](SpectralMode mode) {
    LanczosOptions opts;
    opts.seed = fiedler_opts.seed;
    opts.max_iterations = fiedler_opts.max_iterations;
    opts.tolerance = fiedler_opts.tolerance;
    opts.accel = accel_for(mode, sub);
    return lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  };
  const LanczosResult automatic = solve(SpectralMode::kAuto);
  const LanczosResult filtered = solve(SpectralMode::kFiltered);
  const LanczosResult plain = solve(SpectralMode::kPlain);
  ASSERT_TRUE(filtered.converged);
  ASSERT_TRUE(plain.converged);
  EXPECT_EQ(automatic.iterations, filtered.iterations);
  EXPECT_EQ(automatic.values, filtered.values);
  EXPECT_EQ(automatic.vectors, filtered.vectors);
  EXPECT_NEAR(filtered.values[0], plain.values[0], 1e-8);
  // Iterations are the size of the Krylov basis that full
  // reorthogonalization sweeps, not the operator cost: a filtered
  // iteration applies the Laplacian kFilterDegree (8) times.
  EXPECT_LT(filtered.iterations, plain.iterations) << "Krylov basis size";

  // The library consumer resolves the same way.
  const FiedlerResult fiedler = fiedler_vector(g, alive, fiedler_opts);
  EXPECT_EQ(fiedler.lambda2, filtered.values[0]);
}

TEST(SpectralModes, AutoSpectrumSolvesMatchPlainAboveTheGate) {
  // The metrics' spectrum solves on a component above kFilteredAutoDim,
  // with their exact options (api/metrics.cpp): host_spectrum's deflated
  // bottom pairs with the Gershgorin bound, and the top solve on -L with
  // upper bound 0 (also certify_expander's).  Both resolve to filtered
  // and must converge to plain's eigenvalues.
  const Mesh mesh = Mesh::cube(32, 2);
  const Graph& g = mesh.graph();
  const VertexSet alive = largest_component(g, random_node_faults(g, 0.2, 2024));
  SubCsr sub;
  sub.build(g, alive);
  const std::size_t n = sub.dim();
  ASSERT_GT(n, kFilteredAutoDim);
  const SubCsrLaplacian lap(sub);
  const LinearOperator neg_lap = [&lap](const std::vector<double>& x, std::vector<double>& y) {
    lap.apply(x, y);
    for (auto& v : y) v = -v;
  };
  LanczosOptions reference;
  reference.max_iterations = 2000;
  reference.tolerance = 1e-10;
  reference.accel.mode = SpectralMode::kPlain;

  LanczosOptions bottom_opts;
  bottom_opts.num_eigenpairs = 2;
  bottom_opts.tolerance = 1e-8;
  bottom_opts.accel = accel_for(SpectralMode::kAuto, sub);
  ASSERT_EQ(resolve_accel_mode(bottom_opts.accel, n), SpectralMode::kFiltered);
  const LanczosResult bottom =
      lanczos_smallest(as_operator(lap), n, ones_deflation(n), bottom_opts);
  reference.num_eigenpairs = 2;
  const LanczosResult bottom_plain =
      lanczos_smallest(as_operator(lap), n, ones_deflation(n), reference);
  ASSERT_TRUE(bottom.converged);
  ASSERT_TRUE(bottom_plain.converged);
  ASSERT_EQ(bottom.values.size(), 2U);
  ASSERT_EQ(bottom_plain.values.size(), 2U);
  for (std::size_t e = 0; e < 2; ++e) {
    EXPECT_NEAR(bottom.values[e], bottom_plain.values[e], 1e-8) << "pair " << e;
  }

  LanczosOptions top_opts;
  top_opts.seed = 8;
  top_opts.tolerance = 1e-8;
  top_opts.max_iterations = 400;
  top_opts.accel = SpectralAccel{SpectralMode::kAuto, 0.0};
  ASSERT_EQ(resolve_accel_mode(top_opts.accel, n), SpectralMode::kFiltered);
  const LanczosResult top = lanczos_smallest(neg_lap, n, {}, top_opts);
  reference.num_eigenpairs = 1;
  const LanczosResult top_plain = lanczos_smallest(neg_lap, n, {}, reference);
  ASSERT_TRUE(top.converged);
  ASSERT_TRUE(top_plain.converged);
  EXPECT_NEAR(top.values[0], top_plain.values[0], 1e-8);
}

TEST(SpectralModes, GershgorinBoundDominatesTheSpectrum) {
  for (const auto& g :
       {Mesh::cube(6, 2).graph(), random_regular(80, 4, 3)}) {
    SubCsr sub;
    sub.build(g, VertexSet::full(g.num_vertices()));
    const SubCsrLaplacian lap(sub);
    std::vector<double> values;
    jacobi_eigen(dense_laplacian(lap), lap.dim(), values, nullptr);
    const double bound = gershgorin_upper_bound(sub);
    EXPECT_LE(values.back(), bound + 1e-12);
    EXPECT_GT(bound, 0.0);
  }
}

TEST(SpectralModes, FilteredMatchesPlainOnMesh) {
  const Mesh mesh = Mesh::cube(20, 2);
  SubCsr sub;
  sub.build(mesh.graph(), VertexSet::full(mesh.num_vertices()));
  const SubCsrLaplacian lap(sub);
  const double mu = path_mu(1, 20);

  // Rank-1: λ₂ from the filtered solve matches the closed form and the
  // plain solve at matched tolerance.
  LanczosOptions opts;
  opts.num_eigenpairs = 1;
  opts.tolerance = 1e-8;
  opts.max_iterations = 400;
  const LanczosResult plain =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  opts.accel = accel_for(SpectralMode::kFiltered, sub);
  const LanczosResult filtered =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(filtered.converged);
  EXPECT_NEAR(filtered.values[0], mu, 1e-6);
  EXPECT_NEAR(filtered.values[0], plain.values[0], 1e-6);

  // k = 4 deflated pairs: values match the plain pairs pairwise.
  LanczosOptions pair_opts;
  pair_opts.num_eigenpairs = 4;
  pair_opts.tolerance = 1e-8;
  pair_opts.max_iterations = 500;
  const LanczosResult pairs_plain =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), pair_opts);
  pair_opts.accel = accel_for(SpectralMode::kFiltered, sub);
  const LanczosResult pairs_filtered =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), pair_opts);
  ASSERT_TRUE(pairs_plain.converged);
  ASSERT_TRUE(pairs_filtered.converged);
  ASSERT_EQ(pairs_plain.values.size(), pairs_filtered.values.size());
  for (std::size_t e = 0; e < pairs_plain.values.size(); ++e) {
    EXPECT_NEAR(pairs_filtered.values[e], pairs_plain.values[e], 1e-6) << "pair " << e;
  }
}

TEST(SpectralModes, FilteredMatchesPlainOnRandomRegular) {
  const Graph g = random_regular(600, 4, 17);
  SubCsr sub;
  sub.build(g, VertexSet::full(g.num_vertices()));
  const SubCsrLaplacian lap(sub);

  LanczosOptions opts;
  opts.num_eigenpairs = 4;
  opts.tolerance = 1e-8;
  opts.max_iterations = 400;
  const LanczosResult plain =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  opts.accel = accel_for(SpectralMode::kFiltered, sub);
  const LanczosResult filtered =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(filtered.converged);
  ASSERT_EQ(plain.values.size(), filtered.values.size());
  for (std::size_t e = 0; e < plain.values.size(); ++e) {
    EXPECT_NEAR(filtered.values[e], plain.values[e], 1e-6) << "pair " << e;
  }
}

TEST(SpectralModes, FilteredParityOnCullSequence) {
  // The engine pairs accelerated solves with an incrementally shrunk
  // SubCsr; filtered results over the shrunk operator must match plain
  // results for the same mask at every step of a cull sequence.  Each
  // round culls a few random vertices, then keeps only the largest
  // component (the solver needs connectivity), dropping the detached
  // pieces from the SubCsr as the engine does.  Every round stays at or
  // above kFilteredAutoDim, the regime where kAuto runs the filter.
  const Mesh mesh = Mesh::cube(28, 2);
  const Graph& g = mesh.graph();
  VertexSet alive = largest_component(g, random_node_faults(g, 0.1, 5));

  SubCsr incremental;
  incremental.build(g, alive);
  Rng rng(123);
  int compared = 0;
  for (int round = 0; round < 4; ++round) {
    VertexSet culled(g.num_vertices());
    int budget = 6;
    alive.for_each([&](vid v) {
      if (budget > 0 && rng.uniform(4) == 0) {
        culled.set(v);
        --budget;
      }
    });
    culled.for_each([&](vid v) { alive.reset(v); });
    const VertexSet comp = largest_component(g, alive);
    alive.for_each([&](vid v) {
      if (!comp.test(v)) culled.set(v);
    });
    alive = comp;
    incremental.remove(culled);
    ASSERT_EQ(incremental.dim(), alive.count());
    ASSERT_GE(incremental.dim(), kFilteredAutoDim);

    const SubCsrLaplacian lap(incremental);
    LanczosOptions opts;
    opts.num_eigenpairs = 2;
    opts.tolerance = 1e-7;
    opts.max_iterations = 300;
    const LanczosResult plain =
        lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
    opts.accel = accel_for(SpectralMode::kFiltered, incremental);
    const LanczosResult filtered =
        lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
    SCOPED_TRACE(round);
    ASSERT_TRUE(plain.converged);
    ASSERT_TRUE(filtered.converged);
    ASSERT_EQ(plain.values.size(), filtered.values.size());
    for (std::size_t e = 0; e < plain.values.size(); ++e) {
      EXPECT_NEAR(filtered.values[e], plain.values[e], 1e-5) << "pair " << e;
    }
    ++compared;
  }
  EXPECT_GE(compared, 2);
}

TEST(SpectralModesSlow, BitIdenticalAcrossThreadsEveryMode) {
  // The acceleration acceptance bar: every mode — including the Chebyshev
  // recurrence — is a pure function of its inputs for ANY OMP thread
  // count, on both sides of kSpectralParallelDim.
  // Convergence is NOT required for determinism, so iteration caps keep
  // the large plain solves cheap.
  for (const int side : {64, 96}) {
    const Mesh mesh = Mesh::cube(side, 2);
    SubCsr sub;
    sub.build(mesh.graph(), VertexSet::full(mesh.num_vertices()));
    const SubCsrLaplacian lap(sub);
    for (const SpectralMode mode : {SpectralMode::kPlain, SpectralMode::kFiltered}) {
      LanczosOptions opts;
      opts.num_eigenpairs = 2;
      opts.tolerance = 1e-8;
      opts.max_iterations = 40;
      opts.seed = 11;
      opts.accel = accel_for(mode, sub);
      const auto solve = [&] {
        return lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
      };
      const LanczosResult first = solve();
      SCOPED_TRACE(mode == SpectralMode::kPlain ? "plain" : "filtered");
      SCOPED_TRACE(side);
#ifdef _OPENMP
      const int saved = omp_get_max_threads();
      for (const int threads : {1, 2, 4}) {
        omp_set_num_threads(threads);
        const LanczosResult again = solve();
        SCOPED_TRACE(threads);
        ASSERT_EQ(first.iterations, again.iterations);
        ASSERT_EQ(first.values, again.values);
        ASSERT_EQ(first.vectors, again.vectors);
      }
      omp_set_num_threads(saved);
#else
      const LanczosResult again = solve();
      ASSERT_EQ(first.values, again.values);
      ASSERT_EQ(first.vectors, again.vectors);
#endif
    }
  }
}

TEST(SpectralModesSlow, ClusteredSpectrumRegressionSide96) {
  // The case the filter exists for: the side-96 mesh's bottom cluster
  // (μ₁, μ₁, 2μ₁, μ₂ ≈ 0.001–0.004) sits under a spectrum reaching 8,
  // and plain deflated solves cannot separate it within 250 iterations
  // per pair at tol 1e-5.  The Chebyshev filter must converge in the
  // same budget AND reproduce the closed-form eigenvalues — fast but
  // wrong is caught here.
  const Mesh mesh = Mesh::cube(96, 2);
  SubCsr sub;
  sub.build(mesh.graph(), VertexSet::full(mesh.num_vertices()));
  const SubCsrLaplacian lap(sub);

  LanczosOptions opts;
  opts.num_eigenpairs = 4;
  opts.tolerance = 1e-5;
  opts.max_iterations = 250;
  const LanczosResult plain =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  EXPECT_FALSE(plain.converged)
      << "plain converged inside the cap — the regression no longer bites; tighten it";

  opts.accel = accel_for(SpectralMode::kFiltered, sub);
  const LanczosResult filtered =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  ASSERT_TRUE(filtered.converged);
  ASSERT_EQ(filtered.values.size(), 4u);
  const double mu1 = path_mu(1, 96);
  const double mu2 = path_mu(2, 96);
  EXPECT_NEAR(filtered.values[0], mu1, 2e-4);
  EXPECT_NEAR(filtered.values[1], mu1, 2e-4) << "λ₂ is degenerate on the square mesh";
  EXPECT_NEAR(filtered.values[2], 2.0 * mu1, 2e-4);
  EXPECT_NEAR(filtered.values[3], mu2, 2e-4);
}

}  // namespace
}  // namespace fne
