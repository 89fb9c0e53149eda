// Symmetric tridiagonal eigensolver (implicit QL with Wilkinson shifts,
// EISPACK tql2 lineage).  Used to post-process the Lanczos recurrence.
//
// Eigenvectors are column-contiguous: eigenvector j occupies
// vectors[j*k .. j*k + k).  The rotation accumulator is stored the same
// way, so each Givens rotation updates two contiguous columns in one SIMD
// loop.  The QL recurrence on the diagonal and off-diagonal never reads the
// accumulator, and every accumulator row is rotated independently by the
// same (s, c) sequence, so tridiag_eigen_last_row's row is bit-equal to the
// last row of the full accumulation (DESIGN.md §3).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace fne {

/// Pass as `count` to request every eigenvector.
inline constexpr std::size_t kAllEigenvectors = std::numeric_limits<std::size_t>::max();

/// Eigen-decomposition of the symmetric tridiagonal matrix with diagonal
/// `diag` (size k) and off-diagonal `off` (size k-1; off[i] couples i and
/// i+1).  On return, eigenvalues are ascending in `values` and, if
/// `vectors` is non-null, it holds the eigenvectors of the min(count, k)
/// smallest eigenvalues: component i of eigenvector j is
/// (*vectors)[j * k + i].
void tridiag_eigen(std::vector<double> diag, std::vector<double> off,
                   std::vector<double>& values, std::vector<double>* vectors,
                   std::size_t count = kAllEigenvectors);

/// Convergence-check form of tridiag_eigen: the same ascending `values`
/// and, in `last_row`, the last component of each eigenvector in the same
/// order — bit-equal to (*vectors)[j * k + k - 1] of the full call, at
/// O(k) per rotation instead of O(k²).  Paige's residual estimate
/// β_k·|s_{k,j}| of a Lanczos Ritz pair needs nothing else.
void tridiag_eigen_last_row(std::vector<double> diag, std::vector<double> off,
                            std::vector<double>& values, std::vector<double>& last_row);

}  // namespace fne
