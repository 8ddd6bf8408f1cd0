#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/linalg/lu.h"
#include "mdrr/linalg/matrix.h"
#include "mdrr/linalg/structured.h"
#include "mdrr/rng/rng.h"

namespace mdrr::linalg {
namespace {

Matrix IdentityMatrix(size_t n) {
  Matrix id(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) id(i, i) = 1.0;
  return id;
}

TEST(MatrixTest, RowAndColumnExtraction) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  EXPECT_EQ(m.Row(1), (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(m.Transpose().Row(2), (std::vector<double>{3, 6}));
}

TEST(MatrixTest, Transpose) {
  Matrix m(2, 3);
  m(0, 2) = 7.0;
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 7.0);
}

TEST(MatrixTest, MatMulAgainstHandComputed) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, MatVecAndTransposeMatVec) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  std::vector<double> v = {1, 1, 1};
  EXPECT_EQ(m.MatVec(v), (std::vector<double>{6, 15}));
  std::vector<double> w = {1, 1};
  EXPECT_EQ(m.Transpose().MatVec(w), (std::vector<double>{5, 7, 9}));
}

TEST(MatrixTest, IsRowStochastic) {
  Matrix good(2, 2);
  good(0, 0) = 0.3;
  good(0, 1) = 0.7;
  good(1, 0) = 0.5;
  good(1, 1) = 0.5;
  EXPECT_TRUE(good.IsRowStochastic());

  Matrix negative = good;
  negative(0, 0) = -0.1;
  negative(0, 1) = 1.1;
  EXPECT_FALSE(negative.IsRowStochastic());

  Matrix bad_sum = good;
  bad_sum(1, 1) = 0.6;
  EXPECT_FALSE(bad_sum.IsRowStochastic());
}

TEST(LuTest, RejectsNonSquare) {
  EXPECT_FALSE(LuDecomposition::Factor(Matrix(2, 3)).ok());
}

TEST(LuTest, RejectsSingular) {
  Matrix singular(2, 2);
  singular(0, 0) = 1;
  singular(0, 1) = 2;
  singular(1, 0) = 2;
  singular(1, 1) = 4;
  EXPECT_FALSE(LuDecomposition::Factor(singular).ok());
}

TEST(LuTest, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  auto lu = LuDecomposition::Factor(a);
  ASSERT_TRUE(lu.ok());
  // 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3.
  std::vector<double> x = lu.value().Solve({5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);

  // A zero leading pivot forces a row swap: y = 5, x = 10.
  Matrix swap(2, 2);
  swap(0, 1) = 1;
  swap(1, 0) = 1;
  auto swapped = LuDecomposition::Factor(swap);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped.value().Solve({5, 10}), (std::vector<double>{10, 5}));
}

TEST(LuTest, InverseTimesOriginalIsIdentity) {
  Rng rng(99);
  const size_t n = 8;
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      a(i, j) = rng.UniformDouble() - 0.5;
    }
    a(i, i) += 2.0;  // Diagonally dominant: comfortably nonsingular.
  }
  auto inverse = Invert(a);
  ASSERT_TRUE(inverse.ok());
  Matrix product = a.MatMul(inverse.value());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(product(i, j), i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(LuTest, SolveLinearSystemDimensionMismatch) {
  EXPECT_FALSE(SolveLinearSystem(IdentityMatrix(3), {1.0, 2.0}).ok());
}

// --- UniformMixture closed forms ---

TEST(UniformMixtureTest, ToDense) {
  UniformMixture m{3, 0.8, 0.1};
  Matrix dense = m.ToDense();
  EXPECT_DOUBLE_EQ(dense(0, 0), 0.8);
  EXPECT_DOUBLE_EQ(dense(0, 1), 0.1);
  EXPECT_DOUBLE_EQ(dense(2, 1), 0.1);
}

TEST(UniformMixtureTest, EigenvaluesClosedForm) {
  // Eigenvalues of aI + bJ: a + rb (once) and a (r-1 times).
  UniformMixture m{4, 0.7, 0.1};
  double a = 0.6;
  double principal = a + 4 * 0.1;
  EXPECT_DOUBLE_EQ(m.MaxEigenvalue(), principal);
  EXPECT_DOUBLE_EQ(m.MinEigenvalue(), a);
}

TEST(UniformMixtureTest, SingularDetection) {
  // diagonal == off_diagonal makes the bulk eigenvalue zero.
  UniformMixture singular{3, 0.25, 0.25};
  EXPECT_TRUE(singular.IsSingular());
  EXPECT_FALSE(singular.ApplyInverse({1, 2, 3}).ok());
}

TEST(UniformMixtureTest, DetectUniformMixture) {
  UniformMixture m{5, 0.6, 0.1};
  auto detected = DetectUniformMixture(m.ToDense());
  ASSERT_TRUE(detected.ok());
  EXPECT_EQ(detected.value().size, 5u);
  EXPECT_DOUBLE_EQ(detected.value().diagonal, 0.6);
  EXPECT_DOUBLE_EQ(detected.value().off_diagonal, 0.1);

  Matrix not_uniform = m.ToDense();
  not_uniform(0, 1) = 0.2;
  EXPECT_FALSE(DetectUniformMixture(not_uniform).ok());
}

class StructuredInverseSweep
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

// Property: the O(r) ApplyInverse agrees with the LU inverse for every
// size and keep-probability combination.
TEST_P(StructuredInverseSweep, MatchesLuInverse) {
  auto [r, p] = GetParam();
  double off = (1.0 - p) / static_cast<double>(r);
  UniformMixture m{r, p + off, off};

  Rng rng(static_cast<uint64_t>(r * 1000 + p * 100));
  std::vector<double> v(r);
  for (double& x : v) x = rng.UniformDouble();

  auto fast = m.ApplyInverse(v);
  ASSERT_TRUE(fast.ok());

  auto lu = LuDecomposition::Factor(m.ToDense());
  ASSERT_TRUE(lu.ok());
  std::vector<double> slow = lu.value().Solve(v);

  for (size_t i = 0; i < r; ++i) {
    EXPECT_NEAR(fast.value()[i], slow[i], 1e-9) << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndKeepProbabilities, StructuredInverseSweep,
    ::testing::Combine(::testing::Values<size_t>(2, 3, 9, 16, 50, 300),
                       ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.95)));

}  // namespace
}  // namespace mdrr::linalg
