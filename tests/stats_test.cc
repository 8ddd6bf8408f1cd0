#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/stats/descriptive.h"
#include "mdrr/stats/error_bounds.h"
#include "mdrr/stats/frequency.h"
#include "mdrr/stats/quantiles.h"
#include "mdrr/stats/special_functions.h"

namespace mdrr::stats {
namespace {

// --- Special functions ---

TEST(SpecialFunctionsTest, RegularizedGammaBoundaries) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(1.0, 0.0), 0.0);
}

TEST(SpecialFunctionsTest, GammaPExponentialSpecialCase) {
  // For a = 1, P(1, x) = 1 - e^{-x}.
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-13);
  }
}

TEST(SpecialFunctionsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(StandardNormalCdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(StandardNormalCdf(1.959963984540054), 0.975, 1e-12);
  EXPECT_NEAR(StandardNormalCdf(-1.959963984540054), 0.025, 1e-12);
}

TEST(SpecialFunctionsTest, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999, 0.9999999}) {
    double x = StandardNormalQuantile(p);
    EXPECT_NEAR(StandardNormalCdf(x), p, 1e-12) << "p = " << p;
  }
}

TEST(SpecialFunctionsTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(StandardNormalQuantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(StandardNormalQuantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(StandardNormalQuantile(0.841344746068543), 1.0, 1e-9);
}

// --- Chi-squared ---

TEST(ChiSquaredTest, CdfOneDofClosedForm) {
  // CDF_1(x) = 2 Phi(sqrt(x)) - 1.
  for (double x : {0.1, 1.0, 3.84, 10.0}) {
    double expected = 2.0 * StandardNormalCdf(std::sqrt(x)) - 1.0;
    EXPECT_NEAR(ChiSquaredCdf(1.0, x), expected, 1e-12);
  }
}

TEST(ChiSquaredTest, QuantileKnownValues) {
  // Classic table values.
  EXPECT_NEAR(ChiSquaredQuantile(1.0, 0.95), 3.841458820694124, 1e-8);
  EXPECT_NEAR(ChiSquaredQuantile(2.0, 0.95), 5.991464547107979, 1e-8);
  EXPECT_NEAR(ChiSquaredQuantile(10.0, 0.95), 18.307038053275146, 1e-7);
  EXPECT_NEAR(ChiSquaredQuantile(1.0, 0.99), 6.634896601021213, 1e-8);
}

TEST(ChiSquaredTest, QuantileInvertsCdf) {
  for (double dof : {1.0, 2.0, 5.0, 30.0}) {
    for (double p : {0.01, 0.25, 0.5, 0.9, 0.999}) {
      double x = ChiSquaredQuantile(dof, p);
      EXPECT_NEAR(ChiSquaredCdf(dof, x), p, 1e-9)
          << "dof = " << dof << " p = " << p;
    }
  }
}

TEST(ChiSquaredTest, UpperPercentile) {
  // Upper 5% point of chi2(1) is the 95% quantile.
  EXPECT_NEAR(ChiSquaredUpperPercentile(1.0, 0.05), 3.841458820694124, 1e-8);
}

// --- Descriptive ---

TEST(DescriptiveTest, MeanVariance) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Variance(v), 1.25);  // Population variance.
}

TEST(DescriptiveTest, CovarianceAndPearson) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};  // y = 2x: perfect correlation.
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y), 1.0);
  std::vector<double> y_neg = {10, 8, 6, 4, 2};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y_neg), -1.0);
  EXPECT_DOUBLE_EQ(Covariance(x, x), Variance(x));
}

TEST(DescriptiveTest, PearsonOfConstantIsZero) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> constant = {5, 5, 5};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, constant), 0.0);
}

TEST(DescriptiveTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
}

TEST(DescriptiveTest, QuantileInterpolates) {
  std::vector<double> v = {0, 10, 20, 30};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 15.0);
}

// --- Error bounds (Section 2.3 / Figure 1) ---

TEST(ErrorBoundsTest, ThompsonBMatchesChiSquared) {
  // B at alpha = 0.05, r = 1 is the 95% point of chi2(1).
  EXPECT_NEAR(ThompsonB(0.05, 1.0), 3.841458820694124, 1e-8);
  // More categories -> smaller tail probability -> larger B.
  EXPECT_GT(ThompsonB(0.05, 10.0), ThompsonB(0.05, 2.0));
}

TEST(ErrorBoundsTest, SqrtBFigureOneShape) {
  // Figure 1: sqrt(B) at alpha=0.05 is ~2.24 for r=2 and below ~5 even at
  // r = 100000, growing monotonically.
  double at_2 = SqrtB(0.05, 2);
  double at_100 = SqrtB(0.05, 100);
  double at_100000 = SqrtB(0.05, 100000);
  EXPECT_NEAR(at_2, 2.24, 0.03);
  EXPECT_GT(at_100, at_2);
  EXPECT_GT(at_100000, at_100);
  EXPECT_LT(at_100000, 5.1);
  EXPECT_GT(at_100000, 4.5);
}

TEST(ErrorBoundsTest, AbsoluteErrorBoundEvenDistribution) {
  // Expression (5) with lambda = (1/2, 1/2):
  // e_abs = sqrt(B * 0.25 / n), B at alpha/2.
  std::vector<double> lambda = {0.5, 0.5};
  double b = ThompsonB(0.05, 2.0);
  EXPECT_NEAR(AbsoluteErrorBound(lambda, 1000, 0.05),
              std::sqrt(b * 0.25 / 1000.0), 1e-12);
}

TEST(ErrorBoundsTest, RelativeErrorBoundWorstCategory) {
  // The rarest category dominates Expression (6).
  std::vector<double> lambda = {0.9, 0.1};
  double b = ThompsonB(0.05, 2.0);
  EXPECT_NEAR(RelativeErrorBound(lambda, 1000, 0.05),
              std::sqrt(b * 0.9 / 0.1 / 1000.0), 1e-12);
}

TEST(ErrorBoundsTest, RelativeErrorSkipsZeroCategories) {
  std::vector<double> lambda = {1.0, 0.0};
  // Only the lambda=1 category participates; its relative error is 0.
  EXPECT_DOUBLE_EQ(RelativeErrorBound(lambda, 100, 0.05), 0.0);
}

TEST(ErrorBoundsTest, Section33JointBlowsUpWithAttributes) {
  // Section 3.3: RR-Joint error grows as sqrt of the product of
  // cardinalities; RR-Independent only sees the worst single attribute.
  std::vector<int64_t> cards = {9, 16, 7, 15, 6, 5, 2, 2};  // Adult.
  int64_t n = 32561;
  double independent = RrIndependentEvenRelativeError(cards, n, 0.05);
  double joint = RrJointEvenRelativeError(cards, n, 0.05);
  EXPECT_LT(independent, 0.2);   // Modest for single attributes.
  EXPECT_GT(joint, 2.0);         // Paper: far above 200%.
  EXPECT_GT(joint, independent * 10);
}

TEST(ErrorBoundsTest, EvenFrequencyMatchesManualFormula) {
  double b = ThompsonB(0.05, 16.0);
  EXPECT_NEAR(EvenFrequencyRelativeError(16.0, 32561, 0.05),
              std::sqrt(b * 15.0 / 32561.0), 1e-12);
}

// --- Frequency tables ---

TEST(FrequencyTableTest, FromCodes) {
  FrequencyTable table({0, 1, 1, 2, 1}, 4);
  EXPECT_EQ(table.total(), 5);
  EXPECT_EQ(table.counts(), (std::vector<int64_t>{1, 3, 1, 0}));
  std::vector<double> p = table.Proportions();
  EXPECT_DOUBLE_EQ(p[1], 0.6);
  EXPECT_DOUBLE_EQ(p[3], 0.0);
}

TEST(FrequencyTableTest, FromCountsAndEmpty) {
  FrequencyTable table(std::vector<int64_t>{2, 2});
  EXPECT_EQ(table.total(), 4);
  FrequencyTable empty(std::vector<int64_t>{0, 0});
  EXPECT_EQ(empty.total(), 0);
  EXPECT_DOUBLE_EQ(empty.Proportions()[0], 0.0);
}

TEST(FrequencyTableTest, AbsorbMergesShardCounts) {
  FrequencyTable total(std::vector<int64_t>{0, 0, 0});
  total.Absorb(FrequencyTable({0, 1, 1}, 3));
  total.Absorb(FrequencyTable({2, 2, 1}, 3));
  total.Absorb(FrequencyTable(std::vector<int64_t>{0, 0, 0}));
  EXPECT_EQ(total.total(), 6);
  EXPECT_EQ(total.counts(), (std::vector<int64_t>{1, 3, 2}));
  // Matches counting the concatenated codes in one pass.
  FrequencyTable whole({0, 1, 1, 2, 2, 1}, 3);
  EXPECT_EQ(total.counts(), whole.counts());
}

TEST(ContingencyTableTest, MarginalsAndCells) {
  // Pairs: (0,0) x2, (0,1) x1, (1,1) x1.
  ContingencyTable table({0, 0, 0, 1}, 2, {0, 0, 1, 1}, 2);
  EXPECT_DOUBLE_EQ(table.Cell(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(table.Cell(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(table.Cell(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(table.RowMarginal(0), 3.0);
  EXPECT_DOUBLE_EQ(table.ColMarginal(1), 2.0);
}

TEST(ContingencyTableTest, IndependenceGivesZeroChiSquared) {
  // Perfectly independent joint: counts = outer product of marginals.
  std::vector<double> joint = {0.06, 0.14, 0.24, 0.56};  // (0.2,0.8)x(0.3,0.7)
  ContingencyTable table(joint, 2, 2, 1000.0);
  EXPECT_NEAR(table.ChiSquaredStatistic(), 0.0, 1e-9);
  EXPECT_NEAR(table.CramersV(), 0.0, 1e-6);
}

TEST(ContingencyTableTest, PerfectDependenceGivesVOne) {
  // Diagonal joint: B fully determined by A.
  std::vector<uint32_t> a = {0, 0, 1, 1, 2, 2};
  ContingencyTable table(a, 3, a, 3);
  EXPECT_NEAR(table.CramersV(), 1.0, 1e-12);
}

TEST(ContingencyTableTest, SingleCategoryHasZeroV) {
  ContingencyTable table({0, 0, 0}, 1, {0, 1, 2}, 3);
  EXPECT_DOUBLE_EQ(table.CramersV(), 0.0);
}

TEST(ContingencyTableTest, ChiSquaredHandComputed) {
  // 2x2 with counts [[10, 20], [20, 10]]: chi2 = 60*(10*10-20*20)^2 /
  // (30*30*30*30) = 6.666...
  std::vector<double> counts = {10, 20, 20, 10};
  ContingencyTable table(counts, 2, 2, 60.0);
  EXPECT_NEAR(table.ChiSquaredStatistic(), 60.0 * 90000.0 / 810000.0, 1e-9);
}

}  // namespace
}  // namespace mdrr::stats
