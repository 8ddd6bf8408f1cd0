#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/dependence_estimators.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/rng/rng.h"
#include "mdrr/stats/descriptive.h"
#include "ladder_dataset.h"

namespace mdrr {
namespace {

TEST(OracleDependencesTest, ZeroEpsilonAndCorrectRanking) {
  Dataset ds = MakeLadderDataset(8000, 3);
  DependenceEstimate est = OracleDependences(ds);
  EXPECT_DOUBLE_EQ(est.epsilon, 0.0);
  EXPECT_GT(est.dependences(0, 1), est.dependences(2, 3));
  EXPECT_GT(est.dependences(2, 3), est.dependences(0, 2));
}

TEST(CovarianceAttenuationTest, PropositionOneHolds) {
  // Proposition 1: Cov(Ya, Yb) = pa pb Cov(Xa, Xb) for the keep/uniform
  // randomization. Verify empirically on correlated binary columns.
  const size_t n = 400000;
  Rng rng(17);
  std::vector<uint32_t> xa(n);
  std::vector<uint32_t> xb(n);
  for (size_t i = 0; i < n; ++i) {
    xa[i] = static_cast<uint32_t>(rng.UniformInt(2));
    xb[i] = rng.Bernoulli(0.8) ? xa[i] : static_cast<uint32_t>(rng.UniformInt(2));
  }
  const double pa = 0.6;
  const double pb = 0.4;
  RrMatrix ma = RrMatrix::KeepUniform(2, pa);
  RrMatrix mb = RrMatrix::KeepUniform(2, pb);
  std::vector<uint32_t> ya = ma.RandomizeColumn(xa, rng);
  std::vector<uint32_t> yb = mb.RandomizeColumn(xb, rng);

  auto to_double = [](const std::vector<uint32_t>& v) {
    return std::vector<double>(v.begin(), v.end());
  };
  double cov_x = stats::Covariance(to_double(xa), to_double(xb));
  double cov_y = stats::Covariance(to_double(ya), to_double(yb));
  EXPECT_NEAR(cov_y, pa * pb * cov_x, 0.004);
}

TEST(RandomizedResponseDependencesTest, AttenuatesButPreservesRanking) {
  // Corollary 1's consequence: the randomized-data dependences are smaller
  // but keep the ladder's order.
  Dataset ds = MakeLadderDataset(20000, 5);
  DependenceEstimate oracle = OracleDependences(ds);
  DependenceEstimate randomized =
      RandomizedResponseDependences(ds, /*keep_probability=*/0.7, /*seed=*/7);

  // Attenuation.
  EXPECT_LT(randomized.dependences(0, 1), oracle.dependences(0, 1));
  EXPECT_LT(randomized.dependences(2, 3), oracle.dependences(2, 3));
  // Ranking preservation.
  EXPECT_GT(randomized.dependences(0, 1), randomized.dependences(2, 3));
  EXPECT_GT(randomized.dependences(2, 3), randomized.dependences(0, 2));
  // Differentially private with finite budget.
  EXPECT_TRUE(std::isfinite(randomized.epsilon));
  EXPECT_GT(randomized.epsilon, 0.0);
}

TEST(SecureSumDependencesTest, ExactlyMatchesOracle) {
  // Section 4.2 computes exact bivariate distributions, so its dependence
  // matrix must equal the trusted-party matrix.
  Dataset ds = MakeLadderDataset(500, 11);
  DependenceEstimate secure = SecureSumDependences(ds);
  DependenceEstimate oracle = OracleDependences(ds);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(secure.dependences(i, j), oracle.dependences(i, j), 1e-9);
    }
  }
  // Releasing exact distributions is not differentially private.
  EXPECT_TRUE(std::isinf(secure.epsilon));
  EXPECT_GT(secure.messages, 0u);
}

TEST(PairwiseRrDependencesTest, HighKeepProbabilityApproachesOracle) {
  Dataset ds = MakeLadderDataset(30000, 19);
  DependenceEstimate oracle = OracleDependences(ds);
  auto pairwise = PairwiseRrDependences(ds, /*keep_probability=*/0.95,
                                        /*seed=*/23);
  ASSERT_TRUE(pairwise.ok());
  // Strong pair recovered within noise.
  EXPECT_NEAR(pairwise.value().dependences(0, 1), oracle.dependences(0, 1),
              0.1);
  // Ranking preserved.
  EXPECT_GT(pairwise.value().dependences(0, 1),
            pairwise.value().dependences(2, 3));
  // Parallel-composition epsilon: finite.
  EXPECT_TRUE(std::isfinite(pairwise.value().epsilon));
}

TEST(PairwiseRrDependencesTest, EpsilonIsMaxPairEpsilon) {
  Dataset ds = MakeLadderDataset(200, 29);
  const double p = 0.5;
  auto pairwise = PairwiseRrDependences(ds, p, 31);
  ASSERT_TRUE(pairwise.ok());
  // Largest pair domain is 3*3 = 9.
  RrMatrix largest = RrMatrix::KeepUniform(9, p);
  EXPECT_NEAR(pairwise.value().epsilon, largest.Epsilon(), 1e-9);
}

TEST(DependenceEstimatorsOnAdult, AllMethodsAgreeOnTopPair) {
  // On (a sample of) Adult, every estimator should identify
  // Marital-status <-> Relationship as the most dependent pair.
  Dataset ds = SynthesizeAdult(6000, 37);
  auto top_pair = [](const linalg::Matrix& deps) {
    size_t best_i = 0;
    size_t best_j = 1;
    for (size_t i = 0; i < deps.rows(); ++i) {
      for (size_t j = i + 1; j < deps.cols(); ++j) {
        if (deps(i, j) > deps(best_i, best_j)) {
          best_i = i;
          best_j = j;
        }
      }
    }
    return std::make_pair(best_i, best_j);
  };

  // In (real and synthetic) Adult the top pair is Relationship <-> Sex:
  // Husband/Wife determine Sex exactly and the V denominator is 1.
  auto expected = std::make_pair(static_cast<size_t>(kAdultRelationship),
                                 static_cast<size_t>(kAdultSex));
  EXPECT_EQ(top_pair(OracleDependences(ds).dependences), expected);
  EXPECT_EQ(top_pair(RandomizedResponseDependences(ds, 0.8, 41).dependences),
            expected);
  EXPECT_EQ(top_pair(SecureSumDependences(ds).dependences), expected);
  auto pairwise = PairwiseRrDependences(ds, 0.9, 47);
  ASSERT_TRUE(pairwise.ok());
  EXPECT_EQ(top_pair(pairwise.value().dependences), expected);
}

}  // namespace
}  // namespace mdrr
