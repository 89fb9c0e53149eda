// Lanczos iteration with full reorthogonalization for the smallest
// eigenpairs of an implicit symmetric operator.
//
// Full reorthogonalization is O(iter^2 · n) but rock solid; iteration
// counts are capped (300 by default, 400 for the Fiedler solve).
// It runs as two-pass classical Gram–Schmidt (CGS2): all coefficients
// against the incoming vector, then one fused blocked rank-k update —
// the dominant FLOPs of a solve, streamed once per pass and OpenMP-
// parallel above kSpectralParallelDim (spectral/operator.hpp).
// Deflation vectors (e.g. the all-ones kernel of a connected Laplacian)
// are projected out of every Krylov vector.
//
// Every solve extracts ONE eigenpair.  k pairs are k such solves, each
// deflating the vectors found before it (DESIGN.md §9): a single Krylov
// chain cannot resolve repeated eigenvalues, and mesh Laplacians are
// full of them.
//
// Determinism contract (DESIGN.md §7): every reduction (dot, norm, the
// rank-k update) uses a fixed 1024-element chunk order regardless of the
// thread count or whether the parallel path is taken at all, so a solve
// is a pure function of (operator, n, deflation, options) — OMP_NUM_THREADS
// never changes a bit of the result.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace fne {

/// Convergence-acceleration mode of a solve (DESIGN.md §10).
///
///   kPlain    — Krylov recurrence directly on the operator; the
///               reference the filtered path is checked against.
///   kFiltered — Chebyshev polynomial filtering: the recurrence runs on
///               s·T_d(ℓ(L)), an affine-mapped degree-d Chebyshev
///               polynomial that damps [cut, upper] into [-1, 1] and
///               amplifies the bottom cluster exponentially, so clustered
///               low spectra separate in tens instead of thousands of
///               iterations.  The cut comes from a short plain probe.
///               Needs op_upper_bound (Gershgorin over SubCsr rows for
///               Laplacians).
///   kAuto     — plain below kFilteredAutoDim (256); filtered at or
///               above it when op_upper_bound is available (else plain),
///               so every prune-sized component takes the filter.  Every
///               library consumer solves in this mode; kPlain/kFiltered
///               exist so tests and benches can pit the two paths.
///
/// In filtered mode eigenvalues are recovered by Rayleigh quotient
/// against the ORIGINAL operator and convergence is decided by the true
/// residual ‖Lx − ρx‖ ≤ tolerance, so tolerances stay comparable across
/// modes.  The determinism contract is unchanged: a solve is a pure
/// function of its inputs for ANY OMP thread count.
enum class SpectralMode { kPlain, kFiltered, kAuto };

/// Dimension at or above which kAuto switches from plain to filtered.
/// From a few hundred vertices up the filter reaches the same λ₂ with a
/// Krylov basis a third to a quarter of plain's (DESIGN.md §10).  256 is
/// the smallest power of two at which every reproduce/ golden stays
/// byte-identical (at 128 E3's payload changes); the prune-heavy and the
/// service benchmarks both run faster at 256 than at 512.  The
/// deterministic engine == reference parity is unaffected: both sides
/// resolve through resolve_accel_mode.
inline constexpr std::size_t kFilteredAutoDim = 256;

/// Acceleration settings of a solve.
struct SpectralAccel {
  SpectralMode mode = SpectralMode::kPlain;
  /// Upper bound on the operator spectrum (REQUIREd finite in filtered
  /// mode; kAuto resolves to plain without it).  For a SubCsr Laplacian
  /// use gershgorin_upper_bound(); for -L the bound is 0.
  double op_upper_bound = std::numeric_limits<double>::quiet_NaN();
};

/// The kAuto decision, shared by every consumer so the engine and the
/// stateless reference can never disagree: filtered iff n >=
/// kFilteredAutoDim and the accel carries a finite upper bound.
[[nodiscard]] SpectralMode resolve_accel_mode(const SpectralAccel& accel, std::size_t n);

struct LanczosResult {
  /// Ritz values in pair order.  Pair e is the smallest eigenvalue
  /// orthogonal to the deflation set and pairs 0..e-1, so the values
  /// ascend up to the solve tolerance.
  std::vector<double> values;
  std::vector<std::vector<double>> vectors; ///< matching Ritz vectors (unit norm)
  int iterations = 0;      ///< summed over the pairs
  bool converged = false;  ///< every pair converged
};

/// Reusable buffers for repeated Lanczos solves.  The Krylov basis is the
/// dominant allocation of an eigensolve (iterations × n doubles); pooling
/// it across the cull iterations of a prune run eliminates that traffic.
/// Contents are scratch — only capacity is carried between calls.
struct LanczosScratch {
  std::vector<std::vector<double>> basis;
  std::vector<double> w;
  std::vector<double> q;
  std::vector<double> coeff;  ///< Gram–Schmidt coefficient buffer

  /// Pooled heap footprint (capacities).  The Krylov basis dominates an
  /// engine's resident memory, so the cache budget must see it.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t total = (w.capacity() + q.capacity() + coeff.capacity()) * sizeof(double) +
                        basis.capacity() * sizeof(std::vector<double>);
    for (const std::vector<double>& b : basis) total += b.capacity() * sizeof(double);
    return total;
  }
};

struct LanczosOptions {
  /// How many smallest pairs to extract.  k pairs run k rank-1 solves:
  /// pair e uses seed + e and the tolerance, cap, accel and scratch below,
  /// and its vector joins the deflation set of the pairs after it.  Fewer
  /// than k pairs come back when the deflated space runs out first.
  int num_eigenpairs = 1;
  int max_iterations = 300;    ///< cap per pair
  double tolerance = 1e-9;     ///< residual bound |beta * y_last|
  std::uint64_t seed = 7;
  /// Optional warm-start vector of pair 0 (length n, pre-deflation).  It is
  /// projected against `deflation` and normalized internally; a degenerate
  /// warm start falls back to the seeded random start.  nullptr = random
  /// start.
  const std::vector<double>* initial = nullptr;
  /// Optional buffer pool; nullptr allocates locally.
  LanczosScratch* scratch = nullptr;
  /// Acceleration mode; kPlain keeps the pre-PR-6 solve bit for bit.
  SpectralAccel accel;
};

using LinearOperator = std::function<void(const std::vector<double>&, std::vector<double>&)>;

/// Smallest eigenpairs of `op` (dimension n) orthogonal to `deflation`.
[[nodiscard]] LanczosResult lanczos_smallest(const LinearOperator& op, std::size_t n,
                                             const std::vector<std::vector<double>>& deflation,
                                             const LanczosOptions& options = {});

}  // namespace fne
