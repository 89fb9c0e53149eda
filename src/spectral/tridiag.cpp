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

/// QL, sorted ascending into `values`.  With `vectors`, `z` is the full
/// accumulator (n×n, column-contiguous, seeded by the caller) and the
/// min(count, n) lowest eigenvectors are written out.
void ql_solve(std::vector<double>& d, std::vector<double>& e, std::vector<double> z,
              std::vector<double>& values, std::vector<double>* vectors, std::size_t count) {
  if (vectors == nullptr) {
    ql_implicit(d, e, [](std::size_t, double, double) {});
    sort_ascending(d, values);
    return;
  }
  const std::size_t n = d.size();
  ql_implicit(d, e, [&z, n](std::size_t i, double s, double c) {
    double* __restrict zi = z.data() + i * n;
    double* __restrict zi1 = zi + n;
    FNE_PRAGMA_SIMD
    for (std::size_t r = 0; r < n; ++r) {
      const double f = zi1[r];
      zi1[r] = s * zi[r] + c * f;
      zi[r] = c * zi[r] - s * f;
    }
  });
  const std::vector<std::size_t> order = sort_ascending(d, values);
  const std::size_t cols = std::min(count, n);
  vectors->resize(cols * n);
  for (std::size_t j = 0; j < cols; ++j) {
    const auto src = z.begin() + static_cast<std::ptrdiff_t>(order[j] * n);
    std::copy(src, src + static_cast<std::ptrdiff_t>(n),
              vectors->begin() + static_cast<std::ptrdiff_t>(j * n));
  }
}

}  // namespace

void tridiag_eigen(std::vector<double> diag, std::vector<double> off,
                   std::vector<double>& values, std::vector<double>* vectors,
                   std::size_t count, const std::vector<double>* init) {
  const std::size_t n = diag.size();
  std::vector<double> e = padded_off_diagonal(n, off);
  std::vector<double> z;  // column-contiguous eigenvector accumulator
  if (vectors != nullptr) {
    if (init != nullptr) {
      FNE_REQUIRE(init->size() == n * n, "tridiag_eigen: init must be k x k");
      z = *init;
    } else {
      z.assign(n * n, 0.0);
      for (std::size_t i = 0; i < n; ++i) z[i * n + i] = 1.0;
    }
  }
  ql_solve(diag, e, std::move(z), values, vectors, count);
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

void sym_eigen(std::vector<double> a, std::size_t k, std::vector<double>& values,
               std::vector<double>* vectors, std::size_t count) {
  FNE_REQUIRE(k >= 1 && a.size() == k * k, "sym_eigen: matrix must be k x k");
  const std::size_t n = k;
  std::vector<double>& v = a;  // reduced in place; becomes the transform Q
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);

  // Householder reduction to tridiagonal form (EISPACK tred2 lineage):
  // on exit v holds the orthogonal Q with A = Q T Qᵀ, d the diagonal and
  // e[1..n-1] the subdiagonal of T.
  for (std::size_t j = 0; j < n; ++j) d[j] = v[(n - 1) * n + j];
  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t kk = 0; kk < i; ++kk) scale += std::fabs(d[kk]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = v[(i - 1) * n + j];
        v[i * n + j] = 0.0;
        v[j * n + i] = 0.0;
      }
    } else {
      for (std::size_t kk = 0; kk < i; ++kk) {
        d[kk] /= scale;
        h += d[kk] * d[kk];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        v[j * n + i] = f;
        g = e[j] + v[j * n + j] * f;
        for (std::size_t kk = j + 1; kk < i; ++kk) {
          g += v[kk * n + j] * d[kk];
          e[kk] += v[kk * n + j] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (std::size_t kk = j; kk < i; ++kk) v[kk * n + j] -= f * e[kk] + g * d[kk];
        d[j] = v[(i - 1) * n + j];
        v[i * n + j] = 0.0;
      }
    }
    d[i] = h;
  }
  // Accumulate the Householder transformations into v.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    v[(n - 1) * n + i] = v[i * n + i];
    v[i * n + i] = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t kk = 0; kk <= i; ++kk) d[kk] = v[kk * n + (i + 1)] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double g = 0.0;
        for (std::size_t kk = 0; kk <= i; ++kk) g += v[kk * n + (i + 1)] * v[kk * n + j];
        for (std::size_t kk = 0; kk <= i; ++kk) v[kk * n + j] -= g * d[kk];
      }
    }
    for (std::size_t kk = 0; kk <= i; ++kk) v[kk * n + (i + 1)] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = v[(n - 1) * n + j];
    v[(n - 1) * n + j] = 0.0;
  }
  v[(n - 1) * n + (n - 1)] = 1.0;

  // QL on (d, e[1..]), back-transforming through Q so the returned
  // vectors are eigenvectors of the ORIGINAL dense matrix.  The
  // accumulator starts as Q, transposed once into column-contiguous form.
  std::vector<double> off(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) off[i - 1] = e[i];
  std::vector<double> q;
  if (vectors != nullptr) {
    q.resize(n * n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) q[c * n + r] = v[r * n + c];
    }
  }
  ql_solve(d, off, std::move(q), values, vectors, count);
}

}  // namespace fne
