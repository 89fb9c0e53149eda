#include "spectral/expander_certificate.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "expansion/exact.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/operator.hpp"
#include "topology/classic.hpp"
#include "topology/hypercube.hpp"
#include "topology/random_graphs.hpp"

namespace fne {
namespace {

TEST(ExpanderCertificate, CompleteGraphSpectrum) {
  // K_n adjacency spectrum: n-1 once, -1 with multiplicity n-1.
  const ExpanderCertificate cert = certify_expander(complete_graph(8));
  ASSERT_TRUE(cert.converged);
  EXPECT_NEAR(cert.lambda2_adj, -1.0, 1e-6);
  EXPECT_NEAR(cert.lambda_min_adj, -1.0, 1e-6);
  EXPECT_NEAR(cert.spectral_gap, 8.0, 1e-6);
  EXPECT_TRUE(cert.is_ramanujan);
}

TEST(ExpanderCertificate, CycleSpectrum) {
  // C_n: λ₂(A) = 2cos(2π/n), λ_min = -2 (even n).
  const vid n = 12;
  const ExpanderCertificate cert = certify_expander(cycle_graph(n));
  ASSERT_TRUE(cert.converged);
  EXPECT_NEAR(cert.lambda2_adj, 2.0 * std::cos(2.0 * M_PI / n), 1e-6);
  EXPECT_NEAR(cert.lambda_min_adj, -2.0, 1e-6);
}

TEST(ExpanderCertificate, HypercubeSpectrum) {
  // Q_d adjacency eigenvalues are d - 2i: λ₂ = d-2, λ_min = -d.
  const ExpanderCertificate cert = certify_expander(hypercube(4));
  ASSERT_TRUE(cert.converged);
  EXPECT_NEAR(cert.lambda2_adj, 2.0, 1e-6);
  EXPECT_NEAR(cert.lambda_min_adj, -4.0, 1e-6);
  EXPECT_NEAR(cert.edge_expansion_lower, 1.0, 1e-6);  // matches exact αe = 1
}

TEST(ExpanderCertificate, MixingBoundBelowExactExpansion) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = random_regular(14, 4, seed);
    const ExpanderCertificate cert = certify_expander(g, seed);
    const double exact = exact_expansion(g, ExpansionKind::Edge).expansion;
    EXPECT_LE(cert.edge_expansion_lower, exact + 1e-6) << "seed=" << seed;
  }
}

TEST(ExpanderCertificate, RandomRegularIsNearRamanujan) {
  // Friedman: random d-regular graphs are almost Ramanujan; at n = 256
  // λ should be close to (and often within) 2·sqrt(d-1).
  const Graph g = random_regular(256, 4, 9);
  const ExpanderCertificate cert = certify_expander(g, 9);
  ASSERT_TRUE(cert.converged);
  EXPECT_LT(cert.lambda, 2.0 * std::sqrt(3.0) + 0.45);
  EXPECT_GT(cert.spectral_gap, 0.5);
}

TEST(ExpanderCertificate, FilteredSolvesMatchPlainAboveTheGate) {
  // Above kFilteredAutoDim both of certify_expander's solves take the
  // Chebyshev-filtered path: the Fiedler solve with the Gershgorin bound
  // and the top solve on -L with upper bound 0.  The certificate must
  // converge and agree with explicit plain solves of the same operator.
  const vid n = 1024;
  const Graph g = random_regular(n, 4, 5);
  ASSERT_EQ(resolve_accel_mode(SpectralAccel{SpectralMode::kAuto, 0.0}, n),
            SpectralMode::kFiltered);
  const ExpanderCertificate cert = certify_expander(g, 5);
  ASSERT_TRUE(cert.converged);

  SubCsr sub;
  sub.build(g, VertexSet::full(n));
  const SubCsrLaplacian lap(sub);
  LanczosOptions opts;
  opts.max_iterations = 1000;
  opts.tolerance = 1e-10;
  opts.accel.mode = SpectralMode::kPlain;
  const LanczosResult bottom = lanczos_smallest(
      [&lap](const std::vector<double>& x, std::vector<double>& y) { lap.apply(x, y); }, n,
      {std::vector<double>(n, 1.0)}, opts);
  const LanczosResult top = lanczos_smallest(
      [&lap](const std::vector<double>& x, std::vector<double>& y) {
        lap.apply(x, y);
        for (auto& v : y) v = -v;
      },
      n, {}, opts);
  ASSERT_TRUE(bottom.converged);
  ASSERT_TRUE(top.converged);
  EXPECT_NEAR(cert.lambda2_adj, cert.degree - bottom.values[0], 1e-8);
  EXPECT_NEAR(cert.lambda_min_adj, cert.degree + top.values[0], 1e-8);
}

TEST(ExpanderCertificate, IrregularGraphRejected) {
  EXPECT_THROW((void)certify_expander(path_graph(5)), PreconditionError);
}

TEST(ExpanderCertificate, MaskedRegularSubgraph) {
  // A cycle with vertices removed is irregular -> rejected under mask.
  const Graph g = cycle_graph(8);
  VertexSet alive = VertexSet::full(8);
  alive.reset(0);
  EXPECT_THROW((void)certify_expander(g, alive), PreconditionError);
  EXPECT_NO_THROW((void)certify_expander(g, VertexSet::full(8)));
}

}  // namespace
}  // namespace fne
