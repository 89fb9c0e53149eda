#include "spectral/tridiag.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "spectral/kernels.hpp"  // FNE_PRAGMA_SIMD
#include "util/require.hpp"

namespace fne {

namespace {
double hypot2(double a, double b) { return std::sqrt(a * a + b * b); }

/// Implicit QL (tql2) on diagonal `d` and off-diagonal `e` (size n,
/// e[n-1] = 0): `d` becomes the unsorted eigenvalues.  Every Givens
/// rotation of the eigenvector accumulator is handed, in order, to
/// rotate(i, s, c), which must map each accumulator row's entries
/// (x_i, x_{i+1}) to (c·x_i − s·x_{i+1}, s·x_i + c·x_{i+1}).  The
/// recurrence never reads the accumulator, so which rows the caller keeps
/// cannot change a bit of `d` or of the rotations.
template <class Rotate>
void ql_implicit(std::vector<double>& d, std::vector<double>& e, const Rotate& rotate) {
  const std::size_t n = d.size();
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
        double r = hypot2(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        for (std::size_t i = m; i-- > l;) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = hypot2(f, g);
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
          rotate(i, s, c);
        }
        if (r == 0.0 && m > l + 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

/// Validates the system and widens `off` to the QL layout (e[n-1] = 0).
std::vector<double> padded_off_diagonal(std::size_t n, const std::vector<double>& off) {
  FNE_REQUIRE(n >= 1, "empty tridiagonal system");
  FNE_REQUIRE(off.size() + 1 == n, "off-diagonal must have size n-1");
  std::vector<double> e(n, 0.0);
  std::copy(off.begin(), off.end(), e.begin());
  return e;
}

/// The permutation that lists the QL eigenvalues ascending, and `values`
/// in that order.
std::vector<std::size_t> sort_ascending(const std::vector<double>& d,
                                        std::vector<double>& values) {
  const std::size_t n = d.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) { return d[a] < d[b]; });
  values.resize(n);
  for (std::size_t j = 0; j < n; ++j) values[j] = d[order[j]];
  return order;
}

}  // namespace

void tridiag_eigen(std::vector<double> diag, std::vector<double> off,
                   std::vector<double>& values, std::vector<double>* vectors,
                   std::size_t count) {
  const std::size_t n = diag.size();
  std::vector<double> e = padded_off_diagonal(n, off);
  if (vectors == nullptr) {
    ql_implicit(diag, e, [](std::size_t, double, double) {});
    sort_ascending(diag, values);
    return;
  }
  // Column-contiguous eigenvector accumulator, seeded with the identity.
  std::vector<double> z(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) z[i * n + i] = 1.0;
  ql_implicit(diag, e, [&z, n](std::size_t i, double s, double c) {
    double* __restrict zi = z.data() + i * n;
    double* __restrict zi1 = zi + n;
    FNE_PRAGMA_SIMD
    for (std::size_t r = 0; r < n; ++r) {
      const double f = zi1[r];
      zi1[r] = s * zi[r] + c * f;
      zi[r] = c * zi[r] - s * f;
    }
  });
  const std::vector<std::size_t> order = sort_ascending(diag, values);
  const std::size_t cols = std::min(count, n);
  vectors->resize(cols * n);
  for (std::size_t j = 0; j < cols; ++j) {
    const auto src = z.begin() + static_cast<std::ptrdiff_t>(order[j] * n);
    std::copy(src, src + static_cast<std::ptrdiff_t>(n),
              vectors->begin() + static_cast<std::ptrdiff_t>(j * n));
  }
}

void tridiag_eigen_last_row(std::vector<double> diag, std::vector<double> off,
                            std::vector<double>& values, std::vector<double>& last_row) {
  const std::size_t n = diag.size();
  std::vector<double> e = padded_off_diagonal(n, off);
  std::vector<double> row(n, 0.0);  // last row of the identity accumulator
  row[n - 1] = 1.0;
  ql_implicit(diag, e, [&row](std::size_t i, double s, double c) {
    const double f = row[i + 1];
    row[i + 1] = s * row[i] + c * f;
    row[i] = c * row[i] - s * f;
  });
  const std::vector<std::size_t> order = sort_ascending(diag, values);
  last_row.resize(n);
  for (std::size_t j = 0; j < n; ++j) last_row[j] = row[order[j]];
}

}  // namespace fne
