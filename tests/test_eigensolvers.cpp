#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "faults/fault_model.hpp"
#include "spectral/jacobi.hpp"
#include "spectral/kernels.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/operator.hpp"
#include "spectral/tridiag.hpp"
#include "topology/classic.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fne {
namespace {

std::vector<double> laplacian_dense(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<double> a(n * n, 0.0);
  for (vid v = 0; v < n; ++v) a[v * n + v] = g.degree(v);
  for (const Edge& e : g.edges()) {
    a[e.u * n + e.v] = -1.0;
    a[e.v * n + e.u] = -1.0;
  }
  return a;
}

TEST(Tridiag, DiagonalMatrixIsItsOwnSpectrum) {
  std::vector<double> values;
  tridiag_eigen({3.0, 1.0, 2.0}, {0.0, 0.0}, values, nullptr);
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 2.0, 1e-12);
  EXPECT_NEAR(values[2], 3.0, 1e-12);
}

TEST(Tridiag, TwoByTwoClosedForm) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  std::vector<double> values, vectors;
  tridiag_eigen({2.0, 2.0}, {1.0}, values, &vectors);
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
  // Eigenvector of λ=1 is (1, -1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(vectors[0 * 2 + 0]), 1.0 / std::sqrt(2.0), 1e-10);
}

TEST(Tridiag, PathLaplacianKnownSpectrum) {
  // Laplacian of the path P_n is tridiagonal; eigenvalues are
  // 2 - 2cos(pi k / n), k = 0..n-1.
  const int n = 8;
  std::vector<double> diag(n, 2.0);
  diag.front() = diag.back() = 1.0;
  std::vector<double> off(n - 1, -1.0);
  std::vector<double> values;
  tridiag_eigen(diag, off, values, nullptr);
  for (int k = 0; k < n; ++k) {
    const double expected = 2.0 - 2.0 * std::cos(std::numbers::pi * k / n);
    EXPECT_NEAR(values[k], expected, 1e-10) << "k=" << k;
  }
}

TEST(Tridiag, EigenvectorsSatisfyDefinition) {
  const std::vector<double> diag{1.0, -2.0, 0.5, 3.0};
  const std::vector<double> off{0.7, -1.1, 0.3};
  std::vector<double> values, z;
  tridiag_eigen(diag, off, values, &z);
  const std::size_t n = 4;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double av = diag[i] * z[j * n + i];
      if (i > 0) av += off[i - 1] * z[j * n + i - 1];
      if (i + 1 < n) av += off[i] * z[j * n + i + 1];
      EXPECT_NEAR(av, values[j] * z[j * n + i], 1e-9);
    }
  }
}

TEST(Jacobi, MatchesTridiagOnRandomSymmetric) {
  Rng rng(5);
  const std::size_t n = 10;
  std::vector<double> diag(n), off(n - 1);
  for (auto& d : diag) d = rng.uniform01() * 4 - 2;
  for (auto& o : off) o = rng.uniform01() * 2 - 1;
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] = diag[i];
  for (std::size_t i = 0; i + 1 < n; ++i) {
    a[i * n + i + 1] = off[i];
    a[(i + 1) * n + i] = off[i];
  }
  std::vector<double> v1, v2;
  tridiag_eigen(diag, off, v1, nullptr);
  jacobi_eigen(a, n, v2, nullptr);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(v1[i], v2[i], 1e-9);
}

TEST(Jacobi, EigenvectorsDiagonalize) {
  Rng rng(9);
  const std::size_t n = 6;
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double x = rng.uniform01() * 2 - 1;
      a[i * n + j] = x;
      a[j * n + i] = x;
    }
  }
  std::vector<double> values, z;
  jacobi_eigen(a, n, values, &z);
  // Check A z_j = lambda_j z_j.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double av = 0;
      for (std::size_t k = 0; k < n; ++k) av += a[i * n + k] * z[k * n + j];
      EXPECT_NEAR(av, values[j] * z[i * n + j], 1e-8);
    }
  }
}

TEST(Lanczos, PathLaplacianLambda2) {
  const vid n = 24;
  const Graph g = path_graph(n);
  MaskedLaplacian lap(g, VertexSet::full(n));
  const std::vector<std::vector<double>> defl{std::vector<double>(n, 1.0)};
  const auto res = lanczos_smallest(
      [&](const std::vector<double>& x, std::vector<double>& y) { lap.apply(x, y); }, n, defl);
  ASSERT_TRUE(res.converged);
  const double expected = 2.0 - 2.0 * std::cos(std::numbers::pi / n);
  EXPECT_NEAR(res.values[0], expected, 1e-7);
}

TEST(Lanczos, MatchesJacobiOnRandomGraphLaplacian) {
  const Graph g = Graph::from_edges(
      12, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 6}, {6, 7}, {7, 8},
           {8, 9}, {9, 10}, {10, 11}, {11, 6}, {3, 9}, {2, 8}});
  const vid n = g.num_vertices();
  std::vector<double> dense_values;
  jacobi_eigen(laplacian_dense(g), n, dense_values, nullptr);

  MaskedLaplacian lap(g, VertexSet::full(n));
  const std::vector<std::vector<double>> defl{std::vector<double>(n, 1.0)};
  LanczosOptions opts;
  opts.num_eigenpairs = 2;
  const auto res = lanczos_smallest(
      [&](const std::vector<double>& x, std::vector<double>& y) { lap.apply(x, y); }, n, defl,
      opts);
  ASSERT_TRUE(res.converged);
  // Deflated smallest = λ2 of the Laplacian (dense_values[1]).
  EXPECT_NEAR(res.values[0], dense_values[1], 1e-7);
  EXPECT_NEAR(res.values[1], dense_values[2], 1e-6);
}

TEST(Lanczos, RitzVectorIsEigenvector) {
  const Graph g = cycle_graph(16);
  const vid n = 16;
  MaskedLaplacian lap(g, VertexSet::full(n));
  const std::vector<std::vector<double>> defl{std::vector<double>(n, 1.0)};
  const auto res = lanczos_smallest(
      [&](const std::vector<double>& x, std::vector<double>& y) { lap.apply(x, y); }, n, defl);
  ASSERT_TRUE(res.converged);
  std::vector<double> lx(n);
  lap.apply(res.vectors[0], lx);
  for (vid i = 0; i < n; ++i) {
    EXPECT_NEAR(lx[i], res.values[0] * res.vectors[0][i], 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Bit-for-bit references.  ref_tridiag_eigen is the row-major QL solve as
// it stood before the accumulator became column-contiguous;
// ref_rank1_plain is the plain Lanczos solver that ran the full
// accumulation at every convergence check.  The library must reproduce
// every bit of both, so the comparisons below use memcmp, never a
// tolerance.
// ---------------------------------------------------------------------------

double ref_hypot2(double a, double b) { return std::sqrt(a * a + b * b); }

/// Vectors row-major: (*vectors)[i * n + j] = component i of eigenvector j.
void ref_tridiag_eigen(std::vector<double> diag, std::vector<double> off,
                       std::vector<double>& values, std::vector<double>* vectors) {
  const std::size_t n = diag.size();
  std::vector<double>& d = diag;
  std::vector<double> e(n, 0.0);
  std::copy(off.begin(), off.end(), e.begin());
  std::vector<double> z;
  if (vectors != nullptr) {
    z.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) z[i * n + i] = 1.0;
  }
  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m = l;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-300 + 2.3e-16 * dd) break;
      }
      if (m != l) {
        FNE_REQUIRE(++iter <= 50, "tridiagonal QL failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = ref_hypot2(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = ref_hypot2(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (vectors != nullptr) {
            for (std::size_t k = 0; k < n; ++k) {
              f = z[k * n + i + 1];
              z[k * n + i + 1] = s * z[k * n + i] + c * f;
              z[k * n + i] = c * z[k * n + i] - s * f;
            }
          }
        }
        if (r == 0.0 && m > l + 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) { return d[a] < d[b]; });
  values.resize(n);
  for (std::size_t j = 0; j < n; ++j) values[j] = d[order[j]];
  if (vectors != nullptr) {
    vectors->assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) (*vectors)[i * n + j] = z[i * n + order[j]];
    }
  }
}

bool same_bits(const double* a, const double* b, std::size_t count) {
  return count == 0 || std::memcmp(a, b, count * sizeof(double)) == 0;
}
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

/// Column j of a row-major n×n matrix, for comparison with the library's
/// column-contiguous layout.
std::vector<double> column(const std::vector<double>& row_major, std::size_t n, std::size_t j) {
  std::vector<double> col(n);
  for (std::size_t i = 0; i < n; ++i) col[i] = row_major[i * n + j];
  return col;
}

/// The tridiagonal shapes the QL split must survive: generic, split into
/// blocks by zero off-diagonals, a repeated diagonal, and an underflow
/// block.  The last is a zero diagonal with off-diagonals near 1e-160 in
/// its leading (at most 16) rows, split from a generic tail by an exact
/// zero: hypot2's squares underflow there, so rotation chains take the
/// `r == 0.0` early break.  Not every such block converges within QL's 50
/// sweeps, so the first seed whose reference solve does is kept.
struct TridiagCase {
  std::string name;
  std::vector<double> diag;
  std::vector<double> off;
};

std::vector<TridiagCase> tridiag_cases(std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TridiagCase> cases;
  TridiagCase generic{"generic", std::vector<double>(k), std::vector<double>(k - 1)};
  for (auto& d : generic.diag) d = rng.uniform01() * 4 - 2;
  for (auto& o : generic.off) o = rng.uniform01() * 2 - 1;
  cases.push_back(generic);

  TridiagCase split = generic;
  split.name = "split";
  for (std::size_t i = 0; i < split.off.size(); i += 5) split.off[i] = 0.0;
  cases.push_back(split);

  TridiagCase repeated{"repeated", std::vector<double>(k, 1.5), generic.off};
  cases.push_back(repeated);

  TridiagCase underflow = generic;
  underflow.name = "underflow";
  const std::size_t head = std::min<std::size_t>(k, 16);
  std::fill(underflow.diag.begin(), underflow.diag.begin() + static_cast<std::ptrdiff_t>(head),
            0.0);
  if (head < k) underflow.off[head - 1] = 0.0;
  for (std::uint64_t attempt = 0;; ++attempt) {
    FNE_REQUIRE(attempt < 64, "no convergent underflow block");
    Rng block_rng(seed * 64 + attempt);
    for (std::size_t i = 0; i + 1 < head; ++i) {
      underflow.off[i] =
          (0.1 + block_rng.uniform01()) * std::pow(10.0, -(140.0 + 40.0 * block_rng.uniform01()));
    }
    std::vector<double> values;
    try {
      ref_tridiag_eigen(underflow.diag, underflow.off, values, nullptr);
      break;
    } catch (const PreconditionError&) {
    }
  }
  cases.push_back(underflow);
  return cases;
}

TEST(TridiagSplit, LastRowIsBitEqualToTheFullAccumulatorsLastRow) {
  for (const std::size_t k : {1U, 2U, 3U, 17U, 64U, 301U}) {
    for (const TridiagCase& tc : tridiag_cases(k, 1000 + k)) {
      const std::string ctx = tc.name + " k=" + std::to_string(k);
      std::vector<double> values, vectors, row_values, last_row;
      tridiag_eigen(tc.diag, tc.off, values, &vectors);
      tridiag_eigen_last_row(tc.diag, tc.off, row_values, last_row);
      ASSERT_EQ(vectors.size(), k * k) << ctx;
      EXPECT_TRUE(same_bits(values, row_values)) << ctx;
      ASSERT_EQ(last_row.size(), k) << ctx;
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_TRUE(same_bits(&last_row[j], &vectors[j * k + k - 1], 1)) << ctx << " j=" << j;
      }
      std::vector<double> plain_values;
      tridiag_eigen(tc.diag, tc.off, plain_values, nullptr);
      EXPECT_TRUE(same_bits(values, plain_values)) << ctx;
    }
  }
}

TEST(TridiagSplit, ColumnAccumulatorIsBitEqualToTheRowMajorReference) {
  for (const std::size_t k : {1U, 2U, 3U, 17U, 64U, 301U}) {
    for (const TridiagCase& tc : tridiag_cases(k, 2000 + k)) {
      const std::string ctx = tc.name + " k=" + std::to_string(k);
      std::vector<double> ref_values, ref_vectors, values, vectors, few;
      ref_tridiag_eigen(tc.diag, tc.off, ref_values, &ref_vectors);
      tridiag_eigen(tc.diag, tc.off, values, &vectors);
      EXPECT_TRUE(same_bits(values, ref_values)) << ctx;
      ASSERT_EQ(vectors.size(), k * k) << ctx;
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_TRUE(same_bits(&vectors[j * k], column(ref_vectors, k, j).data(), k))
            << ctx << " j=" << j;
      }
      // A column-count request returns exactly the leading columns.
      const std::size_t count = std::min<std::size_t>(3, k);
      tridiag_eigen(tc.diag, tc.off, values, &few, count);
      ASSERT_EQ(few.size(), count * k) << ctx;
      EXPECT_TRUE(same_bits(few.data(), vectors.data(), count * k)) << ctx;
    }
  }
}

/// The plain rank-1 solver as it ran before the last-row checks: the full
/// row-major accumulation at every 10th iteration.
LanczosResult ref_rank1_plain(const LinearOperator& op, std::size_t n,
                              const std::vector<std::vector<double>>& deflation,
                              const LanczosOptions& options) {
  std::vector<std::vector<double>> defl = deflation;
  for (auto& b : defl) {
    const double nb = spectral_norm(b);
    for (auto& x : b) x /= nb;
  }
  const std::size_t usable = n - defl.size();
  LanczosResult result;
  const int max_iter = static_cast<int>(
      std::min<std::size_t>(usable, static_cast<std::size_t>(options.max_iterations)));
  std::vector<std::vector<double>> basis;
  std::vector<double> coeff;
  std::vector<double> alpha;
  std::vector<double> beta;
  Rng rng(options.seed);
  std::vector<double> q(n);
  const bool warm = options.initial != nullptr && options.initial->size() == n;
  if (warm) {
    q = *options.initial;
  } else {
    for (auto& x : q) x = rng.uniform01() - 0.5;
  }
  spectral_orthogonalize(defl, defl.size(), q, coeff);
  {
    double nq = spectral_norm(q);
    if (warm && !(nq > 1e-12)) {
      for (auto& x : q) x = rng.uniform01() - 0.5;
      spectral_orthogonalize(defl, defl.size(), q, coeff);
      nq = spectral_norm(q);
    }
    for (auto& x : q) x /= nq;
  }
  basis.push_back(q);
  std::vector<double> w(n);
  for (int j = 0; j < max_iter; ++j) {
    op(basis.back(), w);
    const double a = spectral_dot(basis.back(), w);
    alpha.push_back(a);
    spectral_axpy(-a, basis.back(), w);
    if (j > 0) spectral_axpy(-beta.back(), basis[basis.size() - 2], w);
    spectral_orthogonalize(defl, defl.size(), w, coeff);
    const double before = spectral_norm(w);
    spectral_orthogonalize(basis, basis.size(), w, coeff);
    double b = spectral_norm(w);
    if (b < 0.70710678118654752 * before) {
      spectral_orthogonalize(basis, basis.size(), w, coeff);
      b = spectral_norm(w);
    }
    const bool last = (j + 1 == max_iter) || b < 1e-13;
    if (last || (j + 1) % 10 == 0) {
      std::vector<double> values;
      std::vector<double> z;
      ref_tridiag_eigen(alpha, beta, values, &z);
      const std::size_t k = alpha.size();
      const int want = std::min<int>(options.num_eigenpairs, static_cast<int>(k));
      bool all_converged = true;
      for (int e = 0; e < want; ++e) {
        if (std::fabs(b * z[(k - 1) * k + static_cast<std::size_t>(e)]) > options.tolerance) {
          all_converged = false;
          break;
        }
      }
      if (all_converged || last) {
        result.iterations = j + 1;
        result.converged = all_converged || b < 1e-13;
        result.values.assign(values.begin(), values.begin() + want);
        result.vectors.assign(static_cast<std::size_t>(want), std::vector<double>(n, 0.0));
        for (int e = 0; e < want; ++e) {
          auto& vec = result.vectors[static_cast<std::size_t>(e)];
          for (std::size_t i = 0; i < k; ++i) {
            spectral_axpy(z[i * k + static_cast<std::size_t>(e)], basis[i], vec);
          }
          const double nv = spectral_norm(vec);
          if (nv > 0.0) {
            for (auto& x : vec) x /= nv;
          }
        }
        return result;
      }
    }
    if (b < 1e-13) break;
    beta.push_back(b);
    for (auto& x : w) x /= b;
    basis.push_back(w);
  }
  result.converged = false;
  return result;
}

void expect_same_solve(const LanczosResult& got, const LanczosResult& want,
                       const std::string& ctx) {
  EXPECT_EQ(got.iterations, want.iterations) << ctx;
  EXPECT_EQ(got.converged, want.converged) << ctx;
  EXPECT_TRUE(same_bits(got.values, want.values)) << ctx;
  ASSERT_EQ(got.vectors.size(), want.vectors.size()) << ctx;
  for (std::size_t e = 0; e < got.vectors.size(); ++e) {
    EXPECT_TRUE(same_bits(got.vectors[e], want.vectors[e])) << ctx << " vector " << e;
  }
}

TEST(LanczosCheckSplit, PlainSolveIsBitEqualToTheFullCheckReference) {
  struct Fixture {
    std::string name;
    Graph graph;
    VertexSet alive;
  };
  std::vector<Fixture> fixtures;
  for (const vid side : {16U, 32U, 48U}) {
    Graph g = Mesh({side, side}).graph();
    VertexSet alive = random_node_faults(g, 0.1, 40 + side);
    fixtures.push_back({"mesh" + std::to_string(side), std::move(g), std::move(alive)});
  }
  {
    Graph g = random_regular(256, 4, 9);
    VertexSet alive = VertexSet::full(g.num_vertices());
    fixtures.push_back({"rr256", std::move(g), std::move(alive)});
  }
  for (const Fixture& fx : fixtures) {
    SubCsr sub;
    sub.build(fx.graph, fx.alive);
    const SubCsrLaplacian lap(sub);
    const std::size_t n = lap.dim();
    const LinearOperator op = [&lap](const std::vector<double>& x, std::vector<double>& y) {
      lap.apply(x, y);
    };
    const std::vector<std::vector<double>> defl{std::vector<double>(n, 1.0)};
    std::vector<double> warm;
    for (const int cap : {40, 120, 400}) {
      for (const bool use_warm : {false, true}) {
        if (use_warm && warm.empty()) continue;
        LanczosOptions opts;
        opts.max_iterations = cap;
        opts.tolerance = 1e-8;
        opts.accel = SpectralAccel{SpectralMode::kPlain};
        opts.initial = use_warm ? &warm : nullptr;
        const std::string ctx = fx.name + " cap=" + std::to_string(cap) +
                                (use_warm ? " warm" : " cold");
        const LanczosResult want = ref_rank1_plain(op, n, defl, opts);
        const LanczosResult got = lanczos_smallest(op, n, defl, opts);
        expect_same_solve(got, want, ctx);
        // The capped cold solve warm-starts the rest, as the sweep's
        // 40 → 120 escalation does.
        if (cap == 40 && !use_warm && !got.vectors.empty()) warm = got.vectors.front();
      }
    }
    // Several pairs: the reference solves them one at a time, seed + e,
    // each deflating the vectors found before it.
    LanczosOptions opts;
    opts.num_eigenpairs = 3;
    opts.max_iterations = 120;
    opts.accel = SpectralAccel{SpectralMode::kPlain};
    LanczosResult want;
    want.converged = true;
    std::vector<std::vector<double>> pair_defl = defl;
    for (int e = 0; e < opts.num_eigenpairs; ++e) {
      LanczosOptions one = opts;
      one.num_eigenpairs = 1;
      one.seed = opts.seed + static_cast<std::uint64_t>(e);
      LanczosResult pair = ref_rank1_plain(op, n, pair_defl, one);
      want.iterations += pair.iterations;
      want.converged = want.converged && pair.converged;
      want.values.push_back(pair.values.at(0));
      want.vectors.push_back(pair.vectors.at(0));
      pair_defl.push_back(pair.vectors.at(0));
    }
    expect_same_solve(lanczos_smallest(op, n, defl, opts), want, fx.name + " pairs=3");
  }
}

TEST(MaskedLaplacian, RespectsAliveMask) {
  const Graph g = path_graph(5);
  VertexSet alive = VertexSet::full(5);
  alive.reset(2);  // two components {0,1}, {3,4}
  MaskedLaplacian lap(g, alive);
  EXPECT_EQ(lap.dim(), 4U);
  // x = indicator of subgraph vertex 0 (original 0): L x = deg*x - A x.
  std::vector<double> x(4, 0.0), y(4, 0.0);
  x[0] = 1.0;
  lap.apply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);   // degree of vertex 0 within mask
  EXPECT_DOUBLE_EQ(y[1], -1.0);  // neighbor 1
  EXPECT_DOUBLE_EQ(y[2], 0.0);   // vertex 3 unaffected
}

}  // namespace
}  // namespace fne
