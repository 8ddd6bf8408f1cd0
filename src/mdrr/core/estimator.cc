#include "mdrr/core/estimator.h"

#include <algorithm>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"
#include "mdrr/linalg/structured.h"

namespace mdrr {

std::vector<double> EmpiricalDistribution(const std::vector<uint32_t>& codes,
                                          size_t num_categories) {
  std::vector<double> distribution(num_categories, 0.0);
  if (codes.empty()) return distribution;
  for (uint32_t code : codes) {
    MDRR_CHECK_LT(code, num_categories);
    distribution[code] += 1.0;
  }
  double inv_n = 1.0 / static_cast<double>(codes.size());
  for (double& d : distribution) d *= inv_n;
  return distribution;
}

StatusOr<std::vector<double>> EstimateDistribution(
    const RrMatrix& p, const std::vector<double>& lambda_hat,
    const EstimationOptions& options) {
  return p.SolveTranspose(lambda_hat, options.num_threads);
}

std::vector<double> ProjectToSimplex(const std::vector<double>& v) {
  std::vector<double> result(v.size(), 0.0);
  double positive_mass = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] > 0.0) {
      result[i] = v[i];
      positive_mass += v[i];
    }
  }
  if (positive_mass <= 0.0) {
    double uniform = 1.0 / static_cast<double>(v.size());
    for (double& r : result) r = uniform;
    return result;
  }
  for (double& r : result) r /= positive_mass;
  return result;
}

StatusOr<std::vector<double>> EstimateProjectedDistribution(
    const RrMatrix& p, const std::vector<double>& lambda_hat,
    const EstimationOptions& options) {
  MDRR_ASSIGN_OR_RETURN(std::vector<double> raw,
                        EstimateDistribution(p, lambda_hat, options));
  return ProjectToSimplex(raw);
}

StatusOr<std::vector<double>> EstimateVariances(
    const RrMatrix& p, const std::vector<double>& lambda_hat, int64_t n,
    const EstimationOptions& options) {
  const size_t r = p.size();
  if (lambda_hat.size() != r) {
    return Status::InvalidArgument("lambda size does not match matrix size");
  }
  if (n <= 0) {
    return Status::InvalidArgument("sample size must be positive");
  }
  // Var(π̂_u) = e_uᵀ (Pᵀ)⁻¹ Σ P⁻¹ e_u = q_uᵀ Σ q_u, where q_u is the u-th
  // column of P⁻¹ (equivalently the solution of Pᵀ q = e_u). With
  // Σ = (diag(λ) - λλᵀ)/n this is
  //   (Σ_v λ_v q_u[v]² - (Σ_v λ_v q_u[v])²) / n.
  if (p.is_structured()) {
    // For P = aI + bJ, q_u[v] = δ_uv/a - c with c = b/(a(a + rb)), so the
    // two moments collapse to closed forms in λ_u and S = Σ_v λ_v:
    //   first  = λ_u d - c S            (d = 1/a)
    //   second = λ_u ((d - c)² - c²) + c² S
    // O(1) per category, O(r) total, no linear system at all.
    linalg::UniformMixture shape{r, p.Prob(0, 0),
                                 r > 1 ? p.Prob(0, 1) : 0.0};
    MDRR_ASSIGN_OR_RETURN(linalg::UniformMixtureInverse inverse,
                          shape.ClosedFormInverse());
    double d = 1.0 / inverse.bulk;
    double c = shape.off_diagonal / inverse.denominator;
    double lambda_sum = 0.0;
    for (double v : lambda_hat) lambda_sum += v;
    std::vector<double> variances(r);
    double diag_weight = (d - c) * (d - c) - c * c;
    double c_sq_sum = c * c * lambda_sum;
    for (size_t u = 0; u < r; ++u) {
      double second_moment = lambda_hat[u] * diag_weight + c_sq_sum;
      double first_moment = lambda_hat[u] * d - c * lambda_sum;
      double variance = (second_moment - first_moment * first_moment) /
                        static_cast<double>(n);
      variances[u] = variance < 0.0 ? 0.0 : variance;  // Round-off guard.
    }
    return variances;
  }
  // Dense: solve the r unit-vector systems against one factorization,
  // in bounded batches so the right-hand sides never double the r x r
  // footprint, then evaluate the moments per category. All writes land
  // in disjoint per-u slots, so any thread count produces the same bits.
  constexpr size_t kUnitBatch = 128;
  std::vector<double> variances(r);
  for (size_t base = 0; base < r; base += kUnitBatch) {
    const size_t count = std::min(kUnitBatch, r - base);
    std::vector<std::vector<double>> units(count,
                                           std::vector<double>(r, 0.0));
    for (size_t i = 0; i < count; ++i) units[i][base + i] = 1.0;
    MDRR_ASSIGN_OR_RETURN(std::vector<std::vector<double>> columns,
                          p.SolveTransposeMany(units, options.num_threads));
    ParallelChunks(count, /*chunk_size=*/16, options.num_threads,
                   [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                       size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       const std::vector<double>& q = columns[i];
                       double second_moment = 0.0;
                       double first_moment = 0.0;
                       for (size_t v = 0; v < r; ++v) {
                         second_moment += lambda_hat[v] * q[v] * q[v];
                         first_moment += lambda_hat[v] * q[v];
                       }
                       double variance =
                           (second_moment - first_moment * first_moment) /
                           static_cast<double>(n);
                       variances[base + i] = variance < 0.0 ? 0.0 : variance;
                     }
                   });
  }
  return variances;
}

}  // namespace mdrr
