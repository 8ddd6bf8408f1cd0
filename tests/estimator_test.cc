#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/estimator.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

TEST(EmpiricalDistributionTest, CountsAndNormalizes) {
  std::vector<double> d = EmpiricalDistribution({0, 1, 1, 1}, 3);
  EXPECT_DOUBLE_EQ(d[0], 0.25);
  EXPECT_DOUBLE_EQ(d[1], 0.75);
  EXPECT_DOUBLE_EQ(d[2], 0.0);
}

TEST(EmpiricalDistributionTest, EmptyInputIsAllZero) {
  std::vector<double> d = EmpiricalDistribution({}, 2);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
}

TEST(EstimatorTest, ExactInversionWithoutSamplingNoise) {
  // If lambda is exactly Pᵀ π, Eq. (2) must return π exactly.
  RrMatrix p = RrMatrix::KeepUniform(4, 0.55);
  std::vector<double> pi = {0.4, 0.3, 0.2, 0.1};
  std::vector<double> lambda = p.ToDense().Transpose().MatVec(pi);
  auto estimated = EstimateDistribution(p, lambda);
  ASSERT_TRUE(estimated.ok());
  for (size_t i = 0; i < pi.size(); ++i) {
    EXPECT_NEAR(estimated.value()[i], pi[i], 1e-12);
  }
}

TEST(EstimatorTest, IdentityMatrixIsPassThrough) {
  RrMatrix id = RrMatrix::KeepUniform(3, 1.0);
  std::vector<double> lambda = {0.2, 0.5, 0.3};
  auto estimated = EstimateDistribution(id, lambda);
  ASSERT_TRUE(estimated.ok());
  for (size_t i = 0; i < lambda.size(); ++i) {
    EXPECT_NEAR(estimated.value()[i], lambda[i], 1e-12);
  }
}

TEST(EstimatorTest, SizeMismatchFails) {
  RrMatrix p = RrMatrix::KeepUniform(3, 0.5);
  EXPECT_FALSE(EstimateDistribution(p, {0.5, 0.5}).ok());
}

TEST(EstimatorTest, RecoveryFromSampledRandomizedData) {
  // End-to-end: randomize a known distribution, estimate, compare.
  RrMatrix p = RrMatrix::KeepUniform(5, 0.6);
  std::vector<double> pi = {0.5, 0.25, 0.12, 0.08, 0.05};
  Rng rng(11);
  const int n = 200000;
  std::vector<uint32_t> true_codes;
  true_codes.reserve(n);
  for (int i = 0; i < n; ++i) {
    true_codes.push_back(static_cast<uint32_t>(rng.Discrete(pi)));
  }
  std::vector<uint32_t> randomized = p.RandomizeColumn(true_codes, rng);
  std::vector<double> lambda = EmpiricalDistribution(randomized, 5);
  auto estimated = EstimateDistribution(p, lambda);
  ASSERT_TRUE(estimated.ok());
  for (size_t i = 0; i < pi.size(); ++i) {
    EXPECT_NEAR(estimated.value()[i], pi[i], 0.01) << "category " << i;
  }
}

TEST(ProjectToSimplexTest, ClampsAndRescales) {
  // Paper Section 6.4: negatives to zero, rescale the rest.
  std::vector<double> projected = ProjectToSimplex({0.5, -0.25, 0.75});
  EXPECT_DOUBLE_EQ(projected[0], 0.4);
  EXPECT_DOUBLE_EQ(projected[1], 0.0);
  EXPECT_DOUBLE_EQ(projected[2], 0.6);
}

TEST(ProjectToSimplexTest, ProperDistributionIsUnchanged) {
  std::vector<double> proper = {0.2, 0.3, 0.5};
  std::vector<double> projected = ProjectToSimplex(proper);
  for (size_t i = 0; i < proper.size(); ++i) {
    EXPECT_DOUBLE_EQ(projected[i], proper[i]);
  }
}

TEST(ProjectToSimplexTest, AllNonPositiveBecomesUniform) {
  std::vector<double> projected = ProjectToSimplex({-1.0, 0.0, -0.5});
  for (double v : projected) EXPECT_DOUBLE_EQ(v, 1.0 / 3.0);
}

TEST(ProjectToSimplexTest, OutputAlwaysOnSimplex) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v(6);
    for (double& x : v) x = rng.UniformDouble() * 2.0 - 0.7;
    std::vector<double> projected = ProjectToSimplex(v);
    double total = 0.0;
    for (double x : projected) {
      EXPECT_GE(x, 0.0);
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(VarianceEstimatorTest, MatchesEmpiricalVarianceOfPiHat) {
  // Property: the dispersion estimator predicts the run-to-run variance
  // of the Eq. (2) estimate.
  RrMatrix p = RrMatrix::KeepUniform(3, 0.5);
  std::vector<double> pi = {0.55, 0.30, 0.15};
  const int n = 4000;
  const int replications = 600;

  Rng rng(101);
  std::vector<std::vector<double>> estimates;
  std::vector<double> lambda_for_prediction;
  for (int rep = 0; rep < replications; ++rep) {
    std::vector<uint32_t> randomized(n);
    for (int i = 0; i < n; ++i) {
      uint32_t truth = static_cast<uint32_t>(rng.Discrete(pi));
      randomized[i] = p.Randomize(truth, rng);
    }
    std::vector<double> lambda = EmpiricalDistribution(randomized, 3);
    if (rep == 0) lambda_for_prediction = lambda;
    auto estimate = EstimateDistribution(p, lambda);
    ASSERT_TRUE(estimate.ok());
    estimates.push_back(estimate.value());
  }

  auto predicted = EstimateVariances(p, lambda_for_prediction, n);
  ASSERT_TRUE(predicted.ok());
  for (size_t u = 0; u < 3; ++u) {
    double mean = 0.0;
    for (const auto& e : estimates) mean += e[u];
    mean /= replications;
    double variance = 0.0;
    for (const auto& e : estimates) variance += (e[u] - mean) * (e[u] - mean);
    variance /= replications;
    // Within 25% relative (600 replications of a variance estimate).
    EXPECT_NEAR(variance, predicted.value()[u], 0.25 * predicted.value()[u])
        << "category " << u;
  }
}

TEST(VarianceEstimatorTest, ShrinksWithSampleSize) {
  RrMatrix p = RrMatrix::KeepUniform(4, 0.6);
  std::vector<double> lambda = {0.4, 0.3, 0.2, 0.1};
  auto small = EstimateVariances(p, lambda, 1000);
  auto large = EstimateVariances(p, lambda, 10000);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  for (size_t u = 0; u < 4; ++u) {
    EXPECT_NEAR(small.value()[u] / large.value()[u], 10.0, 1e-6);
  }
}

TEST(VarianceEstimatorTest, MoreRandomizationMoreVariance) {
  std::vector<double> lambda = {0.4, 0.3, 0.3};
  auto weak = EstimateVariances(RrMatrix::KeepUniform(3, 0.9), lambda, 1000);
  auto strong = EstimateVariances(RrMatrix::KeepUniform(3, 0.2), lambda, 1000);
  ASSERT_TRUE(weak.ok());
  ASSERT_TRUE(strong.ok());
  for (size_t u = 0; u < 3; ++u) {
    EXPECT_GT(strong.value()[u], weak.value()[u]);
  }
}

TEST(VarianceEstimatorTest, InputValidation) {
  RrMatrix p = RrMatrix::KeepUniform(3, 0.5);
  EXPECT_FALSE(EstimateVariances(p, {0.5, 0.5}, 100).ok());
  EXPECT_FALSE(EstimateVariances(p, {0.4, 0.3, 0.3}, 0).ok());
}

TEST(EstimateProjectedDistributionTest, ComposesInversionAndProjection) {
  RrMatrix p = RrMatrix::KeepUniform(3, 0.8);
  std::vector<double> inconsistent_lambda = {0.95, 0.04, 0.01};
  auto projected = EstimateProjectedDistribution(p, inconsistent_lambda);
  ASSERT_TRUE(projected.ok());
  double total = 0.0;
  for (double v : projected.value()) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

}  // namespace
}  // namespace mdrr
