#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/risk.h"
#include "mdrr/core/rr_matrix.h"

namespace mdrr {
namespace {

TEST(PosteriorMatrixTest, ColumnsAreDistributions) {
  RrMatrix p = RrMatrix::KeepUniform(4, 0.6);
  std::vector<double> prior = {0.4, 0.3, 0.2, 0.1};
  auto posterior = PosteriorMatrix(p, prior);
  ASSERT_TRUE(posterior.ok());
  for (size_t v = 0; v < 4; ++v) {
    double column_sum = 0.0;
    for (size_t u = 0; u < 4; ++u) {
      EXPECT_GE(posterior.value()(u, v), 0.0);
      column_sum += posterior.value()(u, v);
    }
    EXPECT_NEAR(column_sum, 1.0, 1e-12) << "column " << v;
  }
}

TEST(PosteriorMatrixTest, BayesHandComputed) {
  // Binary Warner design, p = 0.75, prior (0.5, 0.5):
  // Pr(X=0 | Y=0) = 0.75*0.5 / (0.75*0.5 + 0.25*0.5) = 0.75.
  RrMatrix p = RrMatrix::FromStructured({2, 0.75, 0.25}).value();
  auto posterior = PosteriorMatrix(p, {0.5, 0.5});
  ASSERT_TRUE(posterior.ok());
  EXPECT_NEAR(posterior.value()(0, 0), 0.75, 1e-12);
  EXPECT_NEAR(posterior.value()(1, 0), 0.25, 1e-12);
}

TEST(PosteriorMatrixTest, SkewedPriorShiftsPosterior) {
  RrMatrix p = RrMatrix::FromStructured({2, 0.75, 0.25}).value();
  // A very rare sensitive value stays unlikely even when reported.
  auto posterior = PosteriorMatrix(p, {0.99, 0.01});
  ASSERT_TRUE(posterior.ok());
  // Pr(X=1 | Y=1) = 0.75*0.01 / (0.75*0.01 + 0.25*0.99) = 0.0294...
  EXPECT_NEAR(posterior.value()(1, 1),
              0.75 * 0.01 / (0.75 * 0.01 + 0.25 * 0.99), 1e-12);
  EXPECT_LT(posterior.value()(1, 1), 0.05);
}

TEST(PosteriorMatrixTest, InputValidation) {
  RrMatrix p = RrMatrix::KeepUniform(3, 0.5);
  EXPECT_FALSE(PosteriorMatrix(p, {0.5, 0.5}).ok());
  EXPECT_FALSE(PosteriorMatrix(p, {0.5, 0.6, 0.2}).ok());
  EXPECT_FALSE(PosteriorMatrix(p, {1.2, -0.1, -0.1}).ok());
}

TEST(BestGuessConfidenceTest, IdentityMatrixGivesCertainty) {
  RrMatrix id = RrMatrix::KeepUniform(3, 1.0);
  auto risk = BestGuessConfidence(id, {0.5, 0.3, 0.2});
  ASSERT_TRUE(risk.ok());
  for (double r : risk.value()) EXPECT_NEAR(r, 1.0, 1e-12);
}

TEST(BestGuessConfidenceTest, UniformReplacementGivesPriorBaseline) {
  // Output independent of input: the attacker only has the prior.
  RrMatrix uniform = RrMatrix::KeepUniform(3, 0.0);
  std::vector<double> prior = {0.5, 0.3, 0.2};
  auto risk = BestGuessConfidence(uniform, prior);
  ASSERT_TRUE(risk.ok());
  for (double r : risk.value()) {
    EXPECT_NEAR(r, PriorBaselineRisk(prior), 1e-12);
  }
}

TEST(ExpectedDisclosureRiskTest, BetweenBaselineAndOne) {
  std::vector<double> prior = {0.6, 0.25, 0.15};
  for (double keep : {0.1, 0.5, 0.9}) {
    RrMatrix p = RrMatrix::KeepUniform(3, keep);
    auto risk = ExpectedDisclosureRisk(p, prior);
    ASSERT_TRUE(risk.ok());
    EXPECT_GE(risk.value(), PriorBaselineRisk(prior) - 1e-12);
    EXPECT_LE(risk.value(), 1.0 + 1e-12);
  }
}

TEST(ExpectedDisclosureRiskTest, MonotoneInKeepProbability) {
  std::vector<double> prior = {0.5, 0.3, 0.2};
  double previous = 0.0;
  for (double keep : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    RrMatrix p = RrMatrix::KeepUniform(3, keep);
    auto risk = ExpectedDisclosureRisk(p, prior);
    ASSERT_TRUE(risk.ok());
    EXPECT_GE(risk.value(), previous - 1e-12) << "keep = " << keep;
    previous = risk.value();
  }
  // Extremes: pure noise -> prior baseline; identity -> certainty.
  auto noise = ExpectedDisclosureRisk(RrMatrix::KeepUniform(3, 0.0), prior);
  EXPECT_NEAR(noise.value(), 0.5, 1e-12);
  auto exact = ExpectedDisclosureRisk(RrMatrix::KeepUniform(3, 1.0), prior);
  EXPECT_NEAR(exact.value(), 1.0, 1e-12);
}

TEST(PriorBaselineRiskTest, MaxOfPrior) {
  EXPECT_DOUBLE_EQ(PriorBaselineRisk({0.2, 0.5, 0.3}), 0.5);
  EXPECT_DOUBLE_EQ(PriorBaselineRisk({1.0}), 1.0);
}

}  // namespace
}  // namespace mdrr
