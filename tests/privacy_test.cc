#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "mdrr/core/privacy.h"
#include "mdrr/core/rr_matrix.h"

namespace mdrr {
namespace {

TEST(KeepUniformEpsilonTest, ClosedForm) {
  // diag/off = (p + (1-p)/r) / ((1-p)/r) = 1 + p r / (1 - p).
  for (size_t r : {2u, 9u, 16u}) {
    for (double p : {0.1, 0.3, 0.5, 0.7}) {
      double expected = std::log(1.0 + p * static_cast<double>(r) / (1.0 - p));
      EXPECT_NEAR(KeepUniformEpsilon(r, p), expected, 1e-12);
    }
  }
}

TEST(KeepUniformEpsilonTest, ExtremesAndMonotonicity) {
  EXPECT_DOUBLE_EQ(KeepUniformEpsilon(5, 0.0), 0.0);  // Pure noise.
  EXPECT_TRUE(std::isinf(KeepUniformEpsilon(5, 1.0)));
  // More keep probability -> less privacy (bigger eps).
  EXPECT_LT(KeepUniformEpsilon(9, 0.1), KeepUniformEpsilon(9, 0.7));
  // Bigger domain -> bigger eps at fixed p.
  EXPECT_LT(KeepUniformEpsilon(2, 0.5), KeepUniformEpsilon(16, 0.5));
}

TEST(PaperKeepUniformEpsilonTest, ApproximatesExactForLargeP) {
  // The printed formula drops the (1-p)/r term from the diagonal; the gap
  // shrinks as p grows.
  double exact = KeepUniformEpsilon(16, 0.7);
  double paper = PaperKeepUniformEpsilon(16, 0.7);
  EXPECT_NEAR(paper, exact, 0.05);
  EXPECT_LT(paper, exact);  // Approximation is from below.
}

TEST(PaperKeepUniformEpsilonTest, AbsoluteValueKicksInForSmallP) {
  // For small p the ratio p|A|/(1-p) can be < 1; the paper takes |ln(.)|.
  double eps = PaperKeepUniformEpsilon(2, 0.1);
  EXPECT_GT(eps, 0.0);
  EXPECT_NEAR(eps, std::fabs(std::log(0.1 * 2 / 0.9)), 1e-12);
}

TEST(PrivacyAccountantTest, SequentialSpending) {
  PrivacyAccountant accountant;
  accountant.Spend("attribute A", 0.5);
  accountant.Spend("attribute B", 1.5);
  EXPECT_DOUBLE_EQ(accountant.TotalEpsilon(), 2.0);
  EXPECT_EQ(accountant.releases().size(), 2u);
}

TEST(PrivacyAccountantTest, ParallelPoolCountsOnce) {
  // Section 4.3: unlinkable pairwise releases compose in parallel.
  PrivacyAccountant accountant;
  accountant.SpendParallel("pair (A,B)", 0.8);
  accountant.SpendParallel("pair (A,C)", 1.2);
  accountant.SpendParallel("pair (B,C)", 0.9);
  EXPECT_DOUBLE_EQ(accountant.TotalEpsilon(), 1.2);  // Max, not sum.

  accountant.Spend("final RR release", 2.0);
  EXPECT_DOUBLE_EQ(accountant.TotalEpsilon(), 3.2);
}

TEST(PrivacyAccountantTest, EmptyLedgerIsZero) {
  PrivacyAccountant accountant;
  EXPECT_DOUBLE_EQ(accountant.TotalEpsilon(), 0.0);
}

TEST(PrivacyAccountantTest, ReportMentionsAllReleases) {
  PrivacyAccountant accountant;
  accountant.Spend("round one", 0.25);
  accountant.SpendParallel("round two", 0.75);
  std::string report = accountant.Report();
  EXPECT_NE(report.find("round one"), std::string::npos);
  EXPECT_NE(report.find("round two"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
}

TEST(PrivacyIntegrationTest, MatrixEpsilonConsistentWithAccounting) {
  // An end-to-end sanity check of the Section 6.3 calibration story: the
  // cluster matrix at budget eps_A + eps_B has exactly that epsilon.
  const size_t ra = 9;
  const size_t rb = 2;
  const double p = 0.5;
  double eps_a = KeepUniformEpsilon(ra, p);
  double eps_b = KeepUniformEpsilon(rb, p);
  RrMatrix cluster = RrMatrix::OptimalForEpsilon(ra * rb, eps_a + eps_b);
  EXPECT_NEAR(cluster.Epsilon(), eps_a + eps_b, 1e-9);
}

}  // namespace
}  // namespace mdrr
