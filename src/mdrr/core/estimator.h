// Frequency estimation from randomized responses.
//
// The unbiased estimator of Eq. (2): π̂ = (Pᵀ)⁻¹ λ̂, where λ̂ is the
// empirical distribution of the randomized data. Because π̂ may leave the
// probability simplex, ProjectToSimplex repairs it with the paper's
// Section 6.4 procedure (clamp negatives to zero, rescale to sum 1).

#ifndef MDRR_CORE_ESTIMATOR_H_
#define MDRR_CORE_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/rr_matrix.h"

namespace mdrr {

// Threading for the estimation backend. Every estimator below is
// bit-identical for any num_threads at fixed inputs (parallel work is
// partitioned into per-output slots with no cross-thread reductions), so
// the thread count is purely a speed knob -- same contract as the PR 2
// sharded stages.
struct EstimationOptions {
  // Workers for batched solves and per-category variance loops
  // (0 = one per hardware core).
  size_t num_threads = 1;
};

// Empirical distribution λ̂ of a column of category codes.
// Precondition: every code < num_categories.
std::vector<double> EmpiricalDistribution(const std::vector<uint32_t>& codes,
                                          size_t num_categories);

// Eq. (2): the raw unbiased estimate (entries may be < 0 or > 1).
// O(r) for structured P; dense P pays one blocked parallel LU
// factorization (cached on the matrix) plus an O(r²) substitution.
// Fails if sizes mismatch or P is singular.
StatusOr<std::vector<double>> EstimateDistribution(
    const RrMatrix& p, const std::vector<double>& lambda_hat,
    const EstimationOptions& options = {});

// Section 6.4: the proper distribution closest to `v` under the paper's
// clamp-and-rescale rule. If no entry is positive, returns uniform.
std::vector<double> ProjectToSimplex(const std::vector<double>& v);

// Eq. (2) followed by ProjectToSimplex.
StatusOr<std::vector<double>> EstimateProjectedDistribution(
    const RrMatrix& p, const std::vector<double>& lambda_hat,
    const EstimationOptions& options = {});

// Variance of the Eq. (2) estimator (the "unbiased estimator of the
// dispersion matrix" of Chaudhuri-Mukerjee cited in Section 2.1):
// Var(π̂) = diag of (Pᵀ)⁻¹ Σ P⁻¹ with Σ = (diag(λ) - λ λᵀ)/n, the
// multinomial covariance of λ̂. Returns per-category variances.
//
// Structured P uses the O(r) closed form: the u-th column of P⁻¹ is
// e_u/a - c·1 with c = b/(a(a+rb)), so each variance is O(1) given
// Σ_v λ_v. Dense P solves the r unit-vector systems through
// SolveTransposeMany (one factorization, parallel substitutions) and
// evaluates the per-category moments in parallel. Fails on size
// mismatch, singular P, or n <= 0.
StatusOr<std::vector<double>> EstimateVariances(
    const RrMatrix& p, const std::vector<double>& lambda_hat, int64_t n,
    const EstimationOptions& options = {});

}  // namespace mdrr

#endif  // MDRR_CORE_ESTIMATOR_H_
