// Special functions needed by the statistical error theory of the paper:
// regularized incomplete gamma (chi-squared CDF) and the inverse standard
// normal CDF (chi-squared quantiles). Implemented from scratch (series /
// continued fraction; Acklam rational approximation plus Halley polish).

#ifndef MDRR_STATS_SPECIAL_FUNCTIONS_H_
#define MDRR_STATS_SPECIAL_FUNCTIONS_H_

namespace mdrr::stats {

// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a).
// Preconditions: a > 0, x >= 0. Accuracy ~1e-14.
double RegularizedGammaP(double a, double x);

// Standard normal CDF Φ(x).
double StandardNormalCdf(double x);

// Inverse standard normal CDF Φ⁻¹(p) for p in (0, 1).
// Accuracy near machine precision after one Halley refinement.
double StandardNormalQuantile(double p);

}  // namespace mdrr::stats

#endif  // MDRR_STATS_SPECIAL_FUNCTIONS_H_
