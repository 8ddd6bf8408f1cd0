#include "mdrr/linalg/lu.h"

#include <atomic>
#include <cmath>

#include "mdrr/common/parallel.h"

namespace mdrr::linalg {

namespace {

// Instrumentation (see LuFactorizationCount): benches assert the
// structured estimation pipeline never lands here.
std::atomic<uint64_t> g_factorization_count{0};

// Columns per U12 work unit / rows per trailing-update work unit. Pure
// load-balancing grain: each output element is an independent function of
// the panel, so the partition never changes the bits.
constexpr size_t kUpdateChunk = 16;

// Pivots smaller than this are treated as numerically singular, matching
// the historical unblocked behavior.
constexpr double kSingularPivot = 1e-300;

// Factors columns [k, kend) of `lu` (rows k..n-1) with partial pivoting,
// applying updates only within the panel. Row swaps span the full matrix
// immediately (exact, so the deferred outside-panel updates are
// unaffected). Returns false on a singular pivot.
bool FactorPanel(Matrix& lu, std::vector<size_t>& pivots, size_t k,
                 size_t kend) {
  const size_t n = lu.rows();
  for (size_t col = k; col < kend; ++col) {
    size_t pivot_row = col;
    double pivot_value = std::fabs(lu(col, col));
    for (size_t row = col + 1; row < n; ++row) {
      double candidate = std::fabs(lu(row, col));
      if (candidate > pivot_value) {
        pivot_value = candidate;
        pivot_row = row;
      }
    }
    if (pivot_value < kSingularPivot) return false;
    if (pivot_row != col) {
      for (size_t j = 0; j < n; ++j) {
        std::swap(lu(pivot_row, j), lu(col, j));
      }
      std::swap(pivots[pivot_row], pivots[col]);
    }
    double diag = lu(col, col);
    for (size_t row = col + 1; row < n; ++row) {
      double factor = lu(row, col) / diag;
      lu(row, col) = factor;
      if (factor == 0.0) continue;
      for (size_t j = col + 1; j < kend; ++j) {
        lu(row, j) -= factor * lu(col, j);
      }
    }
  }
  return true;
}

}  // namespace

uint64_t LuFactorizationCount() {
  return g_factorization_count.load(std::memory_order_relaxed);
}

StatusOr<LuDecomposition> LuDecomposition::Factor(const Matrix& a) {
  return Factor(a, LuOptions{});
}

StatusOr<LuDecomposition> LuDecomposition::Factor(const Matrix& a,
                                                  const LuOptions& options) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("LU requires a square matrix");
  }
  g_factorization_count.fetch_add(1, std::memory_order_relaxed);
  const size_t n = a.rows();
  Matrix lu = a;
  std::vector<size_t> pivots(n);
  for (size_t i = 0; i < n; ++i) pivots[i] = i;

  const size_t nb = options.block_size == 0 ? n : options.block_size;
  for (size_t k = 0; k < n; k += nb) {
    const size_t kend = std::min(n, k + nb);
    if (!FactorPanel(lu, pivots, k, kend)) {
      return Status::FailedPrecondition("matrix is numerically singular");
    }
    if (kend == n) break;

    // U12 = L11^{-1} A12: forward substitution through the panel's unit
    // lower triangle, sharded over column ranges. Element (p, j) receives
    // its updates in ascending q exactly as the unblocked loop applies
    // them at steps q < p.
    ParallelChunks(n - kend, kUpdateChunk, options.num_threads,
                   [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                       size_t end) {
                     for (size_t p = k + 1; p < kend; ++p) {
                       for (size_t q = k; q < p; ++q) {
                         double factor = lu(p, q);
                         if (factor == 0.0) continue;
                         for (size_t j = kend + begin; j < kend + end; ++j) {
                           lu(p, j) -= factor * lu(q, j);
                         }
                       }
                     }
                   });

    // Trailing update A22 -= L21 U12, sharded over row ranges. Each row
    // subtracts the panel's contributions in ascending pivot order, so
    // its final content matches the unblocked loop bit for bit.
    ParallelChunks(n - kend, kUpdateChunk, options.num_threads,
                   [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                       size_t end) {
                     for (size_t i = kend + begin; i < kend + end; ++i) {
                       for (size_t p = k; p < kend; ++p) {
                         double factor = lu(i, p);
                         if (factor == 0.0) continue;
                         for (size_t j = kend; j < n; ++j) {
                           lu(i, j) -= factor * lu(p, j);
                         }
                       }
                     }
                   });
  }
  return LuDecomposition(std::move(lu), std::move(pivots));
}

std::vector<double> LuDecomposition::Solve(const std::vector<double>& b) const {
  const size_t n = dimension();
  MDRR_CHECK_EQ(b.size(), n);
  std::vector<double> x(n);
  // Apply the row permutation, then forward-substitute through L.
  for (size_t i = 0; i < n; ++i) x[i] = b[pivots_[i]];
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
  }
  // Back-substitute through U.
  for (size_t i = n; i-- > 0;) {
    for (size_t j = i + 1; j < n; ++j) x[i] -= lu_(i, j) * x[j];
    x[i] /= lu_(i, i);
  }
  return x;
}

std::vector<std::vector<double>> LuDecomposition::SolveMany(
    const std::vector<std::vector<double>>& bs, size_t num_threads) const {
  std::vector<std::vector<double>> solutions(bs.size());
  ParallelChunks(bs.size(), /*chunk_size=*/1, num_threads,
                 [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                     size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     solutions[i] = Solve(bs[i]);
                   }
                 });
  return solutions;
}

Matrix LuDecomposition::Inverse() const {
  const size_t n = dimension();
  Matrix inverse(n, n);
  std::vector<double> unit(n, 0.0);
  for (size_t col = 0; col < n; ++col) {
    unit[col] = 1.0;
    std::vector<double> x = Solve(unit);
    for (size_t row = 0; row < n; ++row) inverse(row, col) = x[row];
    unit[col] = 0.0;
  }
  return inverse;
}

StatusOr<Matrix> Invert(const Matrix& a) {
  MDRR_ASSIGN_OR_RETURN(LuDecomposition lu, LuDecomposition::Factor(a));
  return lu.Inverse();
}

StatusOr<std::vector<double>> SolveLinearSystem(const Matrix& a,
                                                const std::vector<double>& b) {
  if (b.size() != a.rows()) {
    return Status::InvalidArgument("dimension mismatch in SolveLinearSystem");
  }
  MDRR_ASSIGN_OR_RETURN(LuDecomposition lu, LuDecomposition::Factor(a));
  return lu.Solve(b);
}

}  // namespace mdrr::linalg
