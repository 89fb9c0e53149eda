#include "spectral/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "spectral/kernels.hpp"
#include "spectral/operator.hpp"  // kSpectralParallelDim
#include "spectral/tridiag.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fne {

SpectralMode resolve_accel_mode(const SpectralAccel& accel, std::size_t n) {
  if (accel.mode != SpectralMode::kAuto) return accel.mode;
  if (n >= kFilteredAutoDim && std::isfinite(accel.op_upper_bound)) {
    return SpectralMode::kFiltered;
  }
  return SpectralMode::kPlain;
}

namespace {

// Thin local names for the shared chunk-deterministic kernels
// (spectral/kernels.hpp) so the solver bodies below read as before PR 6.
double dot(const std::vector<double>& a, const std::vector<double>& b) {
  return spectral_dot(a, b);
}
double norm(const std::vector<double>& a) { return spectral_norm(a); }
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  spectral_axpy(alpha, x, y);
}
void orthogonalize(const std::vector<std::vector<double>>& basis, std::size_t count,
                   std::vector<double>& x, std::vector<double>& coeff) {
  spectral_orthogonalize(basis, count, x, coeff);
}

/// DGKS criterion: after one full Gram–Schmidt pass, re-orthogonalize
/// again only when the pass removed a large fraction of the vector (norm
/// dropped below 1/√2 of the pre-pass norm), i.e. when cancellation may
/// have left O(ε·‖before‖) residue in the basis span.  The decision is a
/// pure function of the computed norms, so determinism is unaffected.
constexpr double kDgks = 0.70710678118654752;

/// Plain-mode probe budget before a filtered solve commits to the
/// surrogate: cheap spectra converge inside the probe and return directly;
/// hard spectra pay 16 iterations for the Ritz estimates that place the
/// filter cut (DESIGN.md §10).
constexpr int kFilterProbeIterations = 16;

/// Scale a deflation vector to unit norm.  The multi-pair loop applies it
/// to each found vector exactly as a caller-supplied deflation set would
/// be normalized, so pair e is bit-equal to a single-pair solve that
/// deflates pairs 0..e-1 explicitly.
void normalize_deflation_vector(std::vector<double>& b) {
  const double nb = norm(b);
  FNE_REQUIRE(nb > 0.0, "zero deflation vector");
  for (auto& x : b) x /= nb;
}

std::vector<std::vector<double>> normalize_deflation(
    const std::vector<std::vector<double>>& deflation) {
  std::vector<std::vector<double>> defl = deflation;
  for (auto& b : defl) normalize_deflation_vector(b);
  return defl;
}

// ---------------------------------------------------------------------------
// Chebyshev surrogate operator (DESIGN.md §10).  A pure function of its
// inputs: the recurrence is elementwise on top of the base apply, so a
// surrogate apply is bit-identical for any OMP thread count.
// ---------------------------------------------------------------------------

/// Filter degree d.  The cut sits 10% of the way from the probe's Ritz
/// value θ to the upper bound, so its relative position in [θ, upper] is
/// r = 0.1 and the classic degree ~ 1/√gap rule ⌈5/(2√r)⌉ gives 8: one
/// surrogate apply costs 8 base applies.
constexpr int kFilterDegree = 8;
/// s = (-1)^{d+1}: makes s·T_d(ℓ(λ)) most negative at the bottom.
constexpr double kFilterSign = kFilterDegree % 2 == 1 ? 1.0 : -1.0;

/// How the Chebyshev surrogate maps the base spectrum, fixed before the
/// accelerated solve starts from the probe's Ritz estimate.
struct FilterPlan {
  bool usable = false;
  double map_mul = 0.0;  ///< ℓ(λ) = map_mul·λ + map_add sends [cut, upper] to [-1, 1]
  double map_add = 0.0;
};

/// Place the damping interval from the probe's Ritz value θ, which bounds
/// the wanted eigenvalue from above: a cut 10% of the way from θ to the
/// upper bound keeps it in the amplified region.
FilterPlan plan_filter(const std::vector<double>& probe_values, double upper) {
  FilterPlan plan;
  if (probe_values.empty() || !std::isfinite(upper)) return plan;
  const double theta = probe_values.front();
  const double cut = theta + 0.1 * (upper - theta);
  if (!(cut < upper) || !(upper - cut > 1e-12 * std::max(1.0, std::fabs(upper)))) return plan;
  plan.usable = true;
  plan.map_mul = 2.0 / (upper - cut);
  plan.map_add = -(upper + cut) / (upper - cut);
  return plan;
}

/// y = s·T_d(ℓ(L)) x via the three-term recurrence
/// t_{k+1} = 2(map_mul·L·t_k + map_add·t_k) − t_{k−1}.  Eigenvalues below
/// the cut map below −1 where |T_d| grows like cosh(d·acosh|ℓ|) — the
/// bottom cluster separates exponentially in d while [cut, upper] stays
/// damped inside [−1, 1].
class ChebyshevSurrogate {
 public:
  ChebyshevSurrogate(const LinearOperator& base, const FilterPlan& plan)
      : base_(&base), plan_(plan) {
    FNE_REQUIRE(plan.usable, "unusable filter plan");
  }

  void apply(const std::vector<double>& x, std::vector<double>& out) const {
    const std::size_t n = x.size();
    t_prev_ = x;
    t_cur_.resize(n);
    y_.resize(n);
    (*base_)(x, y_);
    elementwise_map1(n);
    for (int k = 2; k <= kFilterDegree; ++k) {
      (*base_)(t_cur_, y_);
      elementwise_step(n);
      std::swap(t_prev_, t_cur_);
      std::swap(t_cur_, y_);
    }
    out.resize(n);
    const double* tp = t_cur_.data();
    double* op = out.data();
#ifdef _OPENMP
#pragma omp parallel for simd schedule(static) if (n >= kSpectralParallelDim)
#else
    FNE_PRAGMA_SIMD
#endif
    for (std::size_t i = 0; i < n; ++i) op[i] = kFilterSign * tp[i];
  }

 private:
  // t_cur = map_mul·(L x) + map_add·x  (T_1 of the mapped operator).
  void elementwise_map1(std::size_t n) const {
    const double mul = plan_.map_mul;
    const double add = plan_.map_add;
    const double* xp = t_prev_.data();
    const double* yp = y_.data();
    double* tp = t_cur_.data();
#ifdef _OPENMP
#pragma omp parallel for simd schedule(static) if (n >= kSpectralParallelDim)
#else
    FNE_PRAGMA_SIMD
#endif
    for (std::size_t i = 0; i < n; ++i) tp[i] = mul * yp[i] + add * xp[i];
  }

  // y = 2·(map_mul·(L t_cur) + map_add·t_cur) − t_prev, overwriting the
  // base-apply output in place; the caller's swaps advance the recurrence.
  void elementwise_step(std::size_t n) const {
    const double mul = plan_.map_mul;
    const double add = plan_.map_add;
    const double* tc = t_cur_.data();
    const double* tp = t_prev_.data();
    double* yp = y_.data();
#ifdef _OPENMP
#pragma omp parallel for simd schedule(static) if (n >= kSpectralParallelDim)
#else
    FNE_PRAGMA_SIMD
#endif
    for (std::size_t i = 0; i < n; ++i) yp[i] = 2.0 * (mul * yp[i] + add * tc[i]) - tp[i];
  }

  const LinearOperator* base_;
  FilterPlan plan_;
  mutable std::vector<double> t_prev_, t_cur_, y_;
};

// ---------------------------------------------------------------------------
// The rank-1 recurrence, shared by both modes.  Plain mode iterates the
// operator and checks convergence by Paige's estimate β_k·|s_{k,1}|, which
// reads only the last row of the tridiagonal eigenvector matrix: O(k²) per
// check, with the full O(k³) accumulation run once, at exit, for the Ritz
// vector returned (DESIGN.md §3).  Filtered mode iterates the surrogate,
// whose Ritz pair only selects a basis combination: its eigenvalue is the
// Rayleigh quotient against the ORIGINAL operator and convergence is the
// true residual ‖Lx − ρx‖ ≤ tolerance, so a converged result means the same
// thing in every mode.
// ---------------------------------------------------------------------------

/// Unit-norm Ritz vector Σ z[i]·basis[i] over the first k basis vectors.
std::vector<double> ritz_vector(const std::vector<std::vector<double>>& basis, std::size_t k,
                                const std::vector<double>& z, std::size_t n) {
  std::vector<double> vec(n, 0.0);
  for (std::size_t i = 0; i < k; ++i) axpy(z[i], basis[i], vec);
  const double nv = norm(vec);
  if (nv > 0.0) {
    for (auto& x : vec) x /= nv;
  }
  return vec;
}

/// Lanczos on `op` from `warm_start` (or the seeded random start), with
/// full reorthogonalization against `defl` and the basis.  Every 10th
/// iteration, and on the last, check(alpha, beta, b, basis, last, result)
/// runs; it fills `result` and returns true when the solve should stop
/// (converged, or `last`).
template <class Check>
LanczosResult rank1(const LinearOperator& op, std::size_t n,
                    const std::vector<std::vector<double>>& defl, std::size_t usable,
                    const LanczosOptions& options, const std::vector<double>* warm_start,
                    const Check& check) {
  LanczosResult result;
  const int max_iter =
      static_cast<int>(std::min<std::size_t>(usable, static_cast<std::size_t>(options.max_iterations)));

  LanczosScratch local_scratch;
  LanczosScratch& scratch = options.scratch != nullptr ? *options.scratch : local_scratch;
  std::vector<std::vector<double>>& basis = scratch.basis;  // Lanczos vectors q_1..q_j
  std::vector<double>& coeff = scratch.coeff;
  std::size_t basis_count = 0;
  auto push_basis = [&](const std::vector<double>& v) {
    if (basis.size() <= basis_count) basis.emplace_back();
    basis[basis_count] = v;
    ++basis_count;
  };
  std::vector<double> alpha;
  std::vector<double> beta;

  Rng rng(options.seed);
  std::vector<double>& q = scratch.q;
  q.resize(n);
  bool warm = warm_start != nullptr && warm_start->size() == n;
  if (warm) {
    q = *warm_start;
  } else {
    for (auto& x : q) x = rng.uniform01() - 0.5;
  }
  orthogonalize(defl, defl.size(), q, coeff);
  {
    double nq = norm(q);
    if (warm && !(nq > 1e-12)) {
      // Degenerate warm start (e.g. orthogonal remnant): seeded random fallback.
      for (auto& x : q) x = rng.uniform01() - 0.5;
      orthogonalize(defl, defl.size(), q, coeff);
      nq = norm(q);
    }
    FNE_REQUIRE(nq > 0.0, "degenerate start vector");
    for (auto& x : q) x /= nq;
  }
  push_basis(q);

  std::vector<double>& w = scratch.w;
  w.resize(n);
  for (int j = 0; j < max_iter; ++j) {
    op(basis[basis_count - 1], w);
    const double a = dot(basis[basis_count - 1], w);
    alpha.push_back(a);
    // w -= a*q_j + b_{j-1}*q_{j-1}; then full reorthogonalization.
    axpy(-a, basis[basis_count - 1], w);
    if (j > 0) axpy(-beta.back(), basis[basis_count - 2], w);
    orthogonalize(defl, defl.size(), w, coeff);
    const double before = norm(w);
    orthogonalize(basis, basis_count, w, coeff);
    double b = norm(w);
    if (b < kDgks * before) {
      orthogonalize(basis, basis_count, w, coeff);
      b = norm(w);
    }
    // Convergence check every few steps (or on breakdown).
    const bool last = (j + 1 == max_iter) || b < 1e-13;
    if ((last || (j + 1) % 10 == 0) && check(alpha, beta, b, basis, last, result)) {
      result.iterations = j + 1;
      return result;
    }
    if (b < 1e-13) break;  // invariant subspace exhausted
    beta.push_back(b);
    for (auto& x : w) x /= b;
    push_basis(w);
  }

  // Reached only with a non-positive iteration cap: nothing to return.
  result.converged = false;
  return result;
}

LanczosResult rank1_plain(const LinearOperator& op, std::size_t n,
                          const std::vector<std::vector<double>>& defl, std::size_t usable,
                          const LanczosOptions& options) {
  const auto check = [&](const std::vector<double>& alpha, const std::vector<double>& beta,
                         double b, const std::vector<std::vector<double>>& basis, bool last,
                         LanczosResult& result) {
    std::vector<double> values;
    std::vector<double> last_row;
    tridiag_eigen_last_row(alpha, beta, values, last_row);
    const bool converged = !(std::fabs(b * last_row[0]) > options.tolerance);
    if (!converged && !last) return false;
    result.converged = converged || b < 1e-13;
    result.values.assign(1, values[0]);
    std::vector<double> z;
    tridiag_eigen(alpha, beta, values, &z, 1);
    result.vectors.assign(1, ritz_vector(basis, alpha.size(), z, n));
    return true;
  };
  return rank1(op, n, defl, usable, options, options.initial, check);
}

LanczosResult rank1_filtered(const LinearOperator& base_op, const LinearOperator& sur_op,
                             std::size_t n, const std::vector<std::vector<double>>& defl,
                             std::size_t usable, const LanczosOptions& options,
                             const std::vector<double>* warm_start) {
  const auto check = [&](const std::vector<double>& alpha, const std::vector<double>& beta,
                         double, const std::vector<std::vector<double>>& basis, bool last,
                         LanczosResult& result) {
    std::vector<double> values;
    std::vector<double> z;  // Ritz pair of the SURROGATE
    tridiag_eigen(alpha, beta, values, &z, 1);
    std::vector<double> vec = ritz_vector(basis, alpha.size(), z, n);
    std::vector<double> residual(n);
    base_op(vec, residual);
    const double rho = dot(vec, residual);
    axpy(-rho, vec, residual);
    const bool converged = !(norm(residual) > options.tolerance);
    if (!converged && !last) return false;
    result.converged = converged;
    result.values.assign(1, rho);
    result.vectors.assign(1, std::move(vec));
    return true;
  };
  return rank1(sur_op, n, defl, usable, options, warm_start, check);
}

/// The smallest eigenpair orthogonal to the normalized deflation set
/// `defl`, which leaves `usable` >= 1 dimensions, in the resolved mode.
LanczosResult solve_pair(const LinearOperator& op, std::size_t n,
                         const std::vector<std::vector<double>>& defl, std::size_t usable,
                         const LanczosOptions& options) {
  const SpectralMode mode = resolve_accel_mode(options.accel, n);
  if (mode == SpectralMode::kPlain) return rank1_plain(op, n, defl, usable, options);

  // kFiltered: probe with the plain solver first.  Cheap spectra converge
  // inside the probe budget and return directly; otherwise the probe's
  // Ritz value places the filter cut and its vector warm-starts the
  // accelerated solve.
  FNE_REQUIRE(std::isfinite(options.accel.op_upper_bound),
              "filtered mode needs a finite accel.op_upper_bound (e.g. gershgorin_upper_bound)");
  LanczosOptions probe_opts = options;
  probe_opts.max_iterations = std::min(options.max_iterations, kFilterProbeIterations);
  LanczosResult probe = rank1_plain(op, n, defl, usable, probe_opts);
  if (probe.converged) return probe;

  const FilterPlan plan = plan_filter(probe.values, options.accel.op_upper_bound);
  if (!plan.usable) return rank1_plain(op, n, defl, usable, options);

  ChebyshevSurrogate surrogate(op, plan);
  const LinearOperator sur = [&surrogate](const std::vector<double>& x,
                                          std::vector<double>& y) { surrogate.apply(x, y); };
  const std::vector<double>* warm =
      !probe.vectors.empty() ? &probe.vectors.front() : options.initial;
  LanczosResult result = rank1_filtered(op, sur, n, defl, usable, options, warm);
  result.iterations += probe.iterations;
  return result;
}

}  // namespace

LanczosResult lanczos_smallest(const LinearOperator& op, std::size_t n,
                               const std::vector<std::vector<double>>& deflation,
                               const LanczosOptions& options) {
  FNE_REQUIRE(n >= 1, "empty operator");
  FNE_REQUIRE(options.num_eigenpairs >= 1, "need at least one eigenpair");

  std::vector<std::vector<double>> defl = normalize_deflation(deflation);
  LanczosResult result;
  result.converged = true;
  LanczosOptions pair_opts = options;
  // Stop early once the deflated space is exhausted: fewer pairs exist.
  for (int e = 0; e < options.num_eigenpairs && defl.size() < n; ++e) {
    pair_opts.seed = options.seed + static_cast<std::uint64_t>(e);
    if (e > 0) pair_opts.initial = nullptr;
    LanczosResult pair = solve_pair(op, n, defl, n - defl.size(), pair_opts);
    result.iterations += pair.iterations;
    result.converged = result.converged && pair.converged;
    if (pair.vectors.empty()) break;
    result.values.push_back(pair.values.front());
    defl.push_back(pair.vectors.front());
    normalize_deflation_vector(defl.back());
    result.vectors.push_back(std::move(pair.vectors.front()));
  }
  return result;
}

}  // namespace fne
