#include "spectral/expander_certificate.hpp"

#include <cmath>

#include "spectral/fiedler.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/operator.hpp"
#include "util/require.hpp"

namespace fne {

ExpanderCertificate certify_expander(const Graph& g, const VertexSet& alive,
                                     std::uint64_t seed) {
  const vid k = alive.count();
  FNE_REQUIRE(k >= 3, "expander certificate needs >= 3 vertices");
  // Verify d-regularity within the mask.
  vid degree = kInvalidVertex;
  alive.for_each([&](vid v) {
    vid d = 0;
    for (vid w : g.neighbors(v)) {
      if (alive.test(w)) ++d;
    }
    if (degree == kInvalidVertex) degree = d;
    FNE_REQUIRE(d == degree, "expander certificate requires a regular (sub)graph");
  });

  ExpanderCertificate cert;
  cert.degree = static_cast<double>(degree);

  // One sub-CSR serves both solves.
  SubCsr sub;
  sub.build(g, alive);

  // λ₂(A) = d - λ₂(L): smallest nonzero Laplacian eigenvalue.
  FiedlerOptions fopts;
  fopts.seed = seed;
  fopts.sub = &sub;
  const FiedlerResult fiedler = fiedler_vector(g, alive, fopts);
  cert.lambda2_adj = cert.degree - fiedler.lambda2;

  // λ_min(A) = d - λ_max(L): Lanczos on -L, no deflation.
  SubCsrLaplacian lap(sub);
  LanczosOptions opts;
  opts.num_eigenpairs = 1;
  opts.seed = seed + 1;
  opts.max_iterations = 400;
  // The top solve runs on -L, whose spectrum sits in [-λmax(L), 0]: the
  // upper bound is 0.
  opts.accel = SpectralAccel{SpectralMode::kAuto, 0.0};
  const auto neg = lanczos_smallest(
      [&lap](const std::vector<double>& x, std::vector<double>& y) {
        lap.apply(x, y);
        for (auto& v : y) v = -v;
      },
      lap.dim(), {}, opts);
  const double lambda_max_l = neg.values.empty() ? 2.0 * cert.degree : -neg.values[0];
  cert.lambda_min_adj = cert.degree - lambda_max_l;

  cert.lambda = std::max(std::fabs(cert.lambda2_adj), std::fabs(cert.lambda_min_adj));
  cert.spectral_gap = cert.degree - cert.lambda2_adj;
  cert.edge_expansion_lower = cert.spectral_gap / 2.0;
  cert.is_ramanujan = cert.lambda <= 2.0 * std::sqrt(cert.degree - 1.0) + 1e-6;
  cert.converged = fiedler.converged && neg.converged;
  return cert;
}

ExpanderCertificate certify_expander(const Graph& g, std::uint64_t seed) {
  return certify_expander(g, VertexSet::full(g.num_vertices()), seed);
}

}  // namespace fne
