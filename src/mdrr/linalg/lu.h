// LU decomposition with partial pivoting: solve and inverse.
// Used when a randomization matrix has no exploitable structure; the
// structured fast path lives in structured.h.
//
// The factorization is a blocked right-looking LU whose panel is factored
// sequentially while the U12 triangular solve and the trailing-submatrix
// update shard over ParallelChunks. Every element's update sequence is
// applied in ascending pivot order regardless of the blocking or the
// worker partition, so the factors -- and everything derived from them --
// are bit-identical for ANY (block_size, num_threads) combination,
// including the unblocked reference (block_size == 0). This is a stronger
// contract than the PR 2 sharding stages (which fix results per
// chunk_size): here even the grain does not change the bits.

#ifndef MDRR_LINALG_LU_H_
#define MDRR_LINALG_LU_H_

#include <cstdint>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/linalg/matrix.h"

namespace mdrr::linalg {

struct LuOptions {
  // Panel width of the blocked factorization. 0 selects the unblocked
  // reference loop (kept as the agreement baseline for tests). The value
  // never changes the computed factors, only the cache behavior.
  size_t block_size = 64;
  // Workers for the U12 solve and trailing update (0 = one per hardware
  // core). Never changes the computed factors.
  size_t num_threads = 1;
};

class LuDecomposition {
 public:
  // Factors the square matrix `a`. Returns InvalidArgument if `a` is not
  // square and FailedPrecondition if it is numerically singular.
  static StatusOr<LuDecomposition> Factor(const Matrix& a);

  // Factoring with explicit blocking/threading. Bit-identical to
  // Factor(a) for every options combination.
  static StatusOr<LuDecomposition> Factor(const Matrix& a,
                                          const LuOptions& options);

  // Solves A x = b. Precondition: b.size() == dimension.
  std::vector<double> Solve(const std::vector<double>& b) const;

  // Solves A x = b for every right-hand side of `bs`, factoring once and
  // running the O(n^2) substitutions in parallel. Each solve is an
  // independent pure function of the shared factors, so the result is
  // bit-identical to calling Solve in a loop, for any thread count.
  // Precondition: every b.size() == dimension.
  std::vector<std::vector<double>> SolveMany(
      const std::vector<std::vector<double>>& bs, size_t num_threads) const;

  // Full inverse; O(n^3).
  Matrix Inverse() const;

  size_t dimension() const { return lu_.rows(); }

 private:
  LuDecomposition(Matrix lu, std::vector<size_t> pivots)
      : lu_(std::move(lu)), pivots_(std::move(pivots)) {}

  Matrix lu_;                   // Combined L (unit diag) and U factors.
  std::vector<size_t> pivots_;  // Row permutation applied during factoring.
};

// Number of LU factorizations executed since process start (successful or
// not, across all threads). Instrumentation for the structured-path
// guarantee: benches and tests assert the O(r) closed-form pipeline never
// triggers a factorization.
uint64_t LuFactorizationCount();

// Convenience: inverse of `a` via LU. Fails on singular input.
StatusOr<Matrix> Invert(const Matrix& a);

// Convenience: solves a x = b via LU.
StatusOr<std::vector<double>> SolveLinearSystem(const Matrix& a,
                                                const std::vector<double>& b);

}  // namespace mdrr::linalg

#endif  // MDRR_LINALG_LU_H_
