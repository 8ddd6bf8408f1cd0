// The fast estimation backend: blocked parallel LU (bit-identical to the
// unblocked reference for every block size and thread count), batched
// transpose solves, the structured closed-form variances, and the
// tolerance/overflow bugfixes that ride along.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/estimator.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/linalg/lu.h"
#include "mdrr/linalg/structured.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

linalg::Matrix RandomDiagonallyDominant(size_t n, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      a(i, j) = rng.UniformDouble() - 0.5;
    }
    a(i, i) += 2.0;
  }
  return a;
}

// Random with deliberately small diagonals: partial pivoting must swap
// rows at nearly every panel step, exercising the full-row-swap /
// deferred-update interaction of the blocked factorization.
linalg::Matrix RandomPivotHeavy(size_t n, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      a(i, j) = rng.UniformDouble() - 0.5;
    }
    a(i, i) *= 1e-3;
  }
  return a;
}

std::vector<std::vector<double>> RandomRhs(size_t count, size_t n,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> bs(count, std::vector<double>(n));
  for (auto& b : bs) {
    for (double& x : b) x = rng.UniformDouble() - 0.5;
  }
  return bs;
}

// A dense (non-uniform-mixture) row-stochastic design.
RrMatrix DenseRrMatrix(size_t r, double epsilon) {
  RrMatrix m = RrMatrix::GeometricOrdinal(r, epsilon);
  EXPECT_FALSE(m.is_structured());
  return m;
}

// --- Blocked LU ---

TEST(BlockedLuTest, MatchesUnblockedReferenceBitForBitUnderHeavyPivoting) {
  for (size_t n : {3u, 17u, 65u, 100u}) {
    linalg::Matrix a = RandomPivotHeavy(n, 5000 + n);
    linalg::LuOptions reference_options;
    reference_options.block_size = 0;
    auto reference = linalg::LuDecomposition::Factor(a, reference_options);
    ASSERT_TRUE(reference.ok());
    std::vector<std::vector<double>> bs = RandomRhs(3, n, 6000 + n);
    for (size_t block : {1u, 7u, 64u}) {
      for (size_t threads : {1u, 4u}) {
        linalg::LuOptions options;
        options.block_size = block;
        options.num_threads = threads;
        auto blocked = linalg::LuDecomposition::Factor(a, options);
        ASSERT_TRUE(blocked.ok());
        // The inverse reads every factor entry and the permutation.
        EXPECT_EQ(blocked.value().Inverse(), reference.value().Inverse())
            << "n=" << n << " block=" << block << " threads=" << threads;
        for (const auto& b : bs) {
          EXPECT_EQ(blocked.value().Solve(b), reference.value().Solve(b))
              << "n=" << n << " block=" << block << " threads=" << threads;
        }
      }
    }
  }
}

TEST(BlockedLuTest, MatchesUnblockedReferenceBitForBit) {
  for (size_t n : {1u, 2u, 3u, 5u, 17u, 64u, 65u, 100u, 130u}) {
    linalg::Matrix a = RandomDiagonallyDominant(n, 1000 + n);
    linalg::LuOptions reference_options;
    reference_options.block_size = 0;  // Unblocked classic loop.
    auto reference = linalg::LuDecomposition::Factor(a, reference_options);
    ASSERT_TRUE(reference.ok());
    std::vector<std::vector<double>> bs = RandomRhs(3, n, 2000 + n);
    for (size_t block : {1u, 7u, 64u, 128u}) {
      for (size_t threads : {1u, 4u}) {
        linalg::LuOptions options;
        options.block_size = block;
        options.num_threads = threads;
        auto blocked = linalg::LuDecomposition::Factor(a, options);
        ASSERT_TRUE(blocked.ok());
        // The inverse reads every factor entry and the permutation.
        EXPECT_EQ(blocked.value().Inverse(), reference.value().Inverse())
            << "n=" << n << " block=" << block << " threads=" << threads;
        for (const auto& b : bs) {
          EXPECT_EQ(blocked.value().Solve(b), reference.value().Solve(b))
              << "n=" << n << " block=" << block << " threads=" << threads;
        }
      }
    }
  }
}

TEST(BlockedLuTest, ThreadSweepIsBitIdentical) {
  const size_t n = 150;
  linalg::Matrix a = RandomDiagonallyDominant(n, 31);
  std::vector<std::vector<double>> bs = RandomRhs(4, n, 37);
  linalg::LuOptions options;
  options.num_threads = 1;
  auto baseline = linalg::LuDecomposition::Factor(a, options);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    options.num_threads = threads;
    auto factored = linalg::LuDecomposition::Factor(a, options);
    ASSERT_TRUE(factored.ok());
    for (const auto& b : bs) {
      EXPECT_EQ(factored.value().Solve(b), baseline.value().Solve(b))
          << "threads=" << threads;
    }
  }
}

TEST(BlockedLuTest, SolveManyMatchesLoopedSolve) {
  const size_t n = 40;
  linalg::Matrix a = RandomDiagonallyDominant(n, 41);
  auto lu = linalg::LuDecomposition::Factor(a);
  ASSERT_TRUE(lu.ok());
  std::vector<std::vector<double>> bs = RandomRhs(23, n, 43);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::vector<double>> batched =
        lu.value().SolveMany(bs, threads);
    ASSERT_EQ(batched.size(), bs.size());
    for (size_t i = 0; i < bs.size(); ++i) {
      EXPECT_EQ(batched[i], lu.value().Solve(bs[i])) << "rhs " << i;
    }
  }
}

TEST(BlockedLuTest, BlockedPathRejectsSingular) {
  linalg::Matrix singular(3, 3, 1.0);  // Rank 1.
  linalg::LuOptions options;
  options.block_size = 2;
  options.num_threads = 4;
  EXPECT_FALSE(linalg::LuDecomposition::Factor(singular, options).ok());
}

// --- Batched transpose solves on RrMatrix ---

TEST(SolveTransposeManyTest, MatchesLoopedSolveTransposeDense) {
  RrMatrix m = DenseRrMatrix(9, 1.2);
  std::vector<std::vector<double>> bs = RandomRhs(17, 9, 53);
  for (size_t threads : {1u, 2u, 8u}) {
    auto batched = m.SolveTransposeMany(bs, threads);
    ASSERT_TRUE(batched.ok());
    for (size_t i = 0; i < bs.size(); ++i) {
      auto single = m.SolveTranspose(bs[i]);
      ASSERT_TRUE(single.ok());
      EXPECT_EQ(batched.value()[i], single.value()) << "rhs " << i;
    }
  }
}

TEST(SolveTransposeManyTest, MatchesLoopedSolveTransposeStructured) {
  RrMatrix m = RrMatrix::KeepUniform(12, 0.4);
  std::vector<std::vector<double>> bs = RandomRhs(9, 12, 59);
  auto batched = m.SolveTransposeMany(bs, 4);
  ASSERT_TRUE(batched.ok());
  for (size_t i = 0; i < bs.size(); ++i) {
    auto single = m.SolveTranspose(bs[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batched.value()[i], single.value()) << "rhs " << i;
  }
}

TEST(SolveTransposeManyTest, FactorThreadCountNeverChangesTheCache) {
  // Two independent instances of the same dense design, one factored by a
  // single-threaded solve and one by an 8-thread batched solve: the
  // cached factors must agree bit for bit.
  linalg::Matrix dense = DenseRrMatrix(11, 0.9).ToDense();
  auto single_threaded = RrMatrix::FromDense(dense);
  auto multi_threaded = RrMatrix::FromDense(dense);
  ASSERT_TRUE(single_threaded.ok());
  ASSERT_TRUE(multi_threaded.ok());
  std::vector<std::vector<double>> bs = RandomRhs(5, 11, 61);
  auto batched = multi_threaded.value().SolveTransposeMany(bs, 8);
  ASSERT_TRUE(batched.ok());
  for (size_t i = 0; i < bs.size(); ++i) {
    auto single = single_threaded.value().SolveTranspose(bs[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batched.value()[i], single.value()) << "rhs " << i;
  }
}

TEST(SolveTransposeManyTest, RejectsSizeMismatchAndSingular) {
  RrMatrix m = RrMatrix::KeepUniform(3, 0.5);
  EXPECT_FALSE(m.SolveTransposeMany({{0.5, 0.5}}, 2).ok());
  RrMatrix uniform = RrMatrix::KeepUniform(3, 0.0);
  EXPECT_FALSE(
      uniform.SolveTransposeMany({{0.3, 0.3, 0.4}}, 2).ok());
}

// --- Structured path: agreement with dense and the no-LU guarantee ---

TEST(StructuredBackendTest, StructuredSolveAgreesWithDenseLu) {
  for (size_t r : {2u, 5u, 37u}) {
    for (double p : {0.2, 0.6, 0.9}) {
      RrMatrix m = RrMatrix::KeepUniform(r, p);
      std::vector<double> b = RandomRhs(1, r, r * 100 + 7)[0];
      auto fast = m.SolveTranspose(b);
      ASSERT_TRUE(fast.ok());
      auto slow = linalg::SolveLinearSystem(m.ToDense().Transpose(), b);
      ASSERT_TRUE(slow.ok());
      for (size_t i = 0; i < r; ++i) {
        EXPECT_NEAR(fast.value()[i], slow.value()[i],
                    1e-11 * (1.0 + std::fabs(slow.value()[i])))
            << "r=" << r << " p=" << p << " entry " << i;
      }
    }
  }
}

TEST(StructuredBackendTest, FullEstimationPipelineTriggersNoFactorization) {
  RrMatrix m = RrMatrix::KeepUniform(500, 0.3);
  std::vector<double> pi(500, 1.0 / 500.0);
  std::vector<double> lambda = m.ToDense().Transpose().MatVec(pi);
  uint64_t factorizations_before = linalg::LuFactorizationCount();
  auto estimated = EstimateProjectedDistribution(m, lambda);
  ASSERT_TRUE(estimated.ok());
  auto variances = EstimateVariances(m, lambda, 10000);
  ASSERT_TRUE(variances.ok());
  EXPECT_EQ(linalg::LuFactorizationCount(), factorizations_before)
      << "the structured path must never factor";
}

// --- Variances: closed form vs generic, and thread determinism ---

TEST(VarianceBackendTest, ClosedFormMatchesGenericUnitVectorLoop) {
  for (size_t r : {2u, 3u, 9u, 50u}) {
    for (double p : {0.15, 0.5, 0.8}) {
      RrMatrix m = RrMatrix::KeepUniform(r, p);
      std::vector<double> lambda = RandomRhs(1, r, r * 17 + 3)[0];
      for (double& x : lambda) x = std::fabs(x);
      double total = 0.0;
      for (double x : lambda) total += x;
      for (double& x : lambda) x /= total;
      const int64_t n = 20000;
      auto closed_form = EstimateVariances(m, lambda, n);
      ASSERT_TRUE(closed_form.ok());
      // Generic reference: solve the unit-vector systems against the
      // dense transpose and evaluate the multinomial sandwich directly.
      auto lu = linalg::LuDecomposition::Factor(m.ToDense().Transpose());
      ASSERT_TRUE(lu.ok());
      for (size_t u = 0; u < r; ++u) {
        std::vector<double> unit(r, 0.0);
        unit[u] = 1.0;
        std::vector<double> q = lu.value().Solve(unit);
        double second = 0.0;
        double first = 0.0;
        for (size_t v = 0; v < r; ++v) {
          second += lambda[v] * q[v] * q[v];
          first += lambda[v] * q[v];
        }
        double expected = (second - first * first) / static_cast<double>(n);
        if (expected < 0.0) expected = 0.0;
        EXPECT_NEAR(closed_form.value()[u], expected,
                    1e-9 * (1.0 + expected))
            << "r=" << r << " p=" << p << " u=" << u;
      }
    }
  }
}

TEST(VarianceBackendTest, DenseVariancesBitIdenticalAcrossThreads) {
  RrMatrix m = DenseRrMatrix(24, 1.4);
  std::vector<double> lambda(24, 1.0 / 24.0);
  auto baseline = EstimateVariances(m, lambda, 5000, EstimationOptions{1});
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    auto swept =
        EstimateVariances(m, lambda, 5000, EstimationOptions{threads});
    ASSERT_TRUE(swept.ok());
    EXPECT_EQ(swept.value(), baseline.value()) << "threads=" << threads;
  }
}

// --- Bugfix: magnitude-relative tolerances in structured detection ---

TEST(RelativeToleranceTest, DetectionAcceptsLargeScaleMatrices) {
  // At scale 1e8, representation noise alone exceeds the old absolute
  // 1e-12 cutoff; a relative tolerance must still detect the shape.
  const size_t n = 4;
  linalg::Matrix scaled(n, n, 1e8 * 0.1);
  for (size_t i = 0; i < n; ++i) scaled(i, i) = 1e8 * 0.7;
  scaled(1, 2) += 1e-6;  // 1e-14 relative: representation-level noise.
  auto detected = linalg::DetectUniformMixture(scaled);
  ASSERT_TRUE(detected.ok());
  EXPECT_DOUBLE_EQ(detected.value().diagonal, 1e8 * 0.7);
}

TEST(RelativeToleranceTest, DetectionRejectsSmallScaleImpostors) {
  // At scale 1e-10, entry differences as large as 0.1% of the entries
  // themselves sneak under an absolute 1e-12 cutoff; relative tolerance
  // must reject them.
  const size_t n = 3;
  linalg::Matrix tiny(n, n, 1e-10);
  for (size_t i = 0; i < n; ++i) tiny(i, i) = 7e-10;
  tiny(0, 1) += 1e-13;
  EXPECT_FALSE(linalg::DetectUniformMixture(tiny).ok());
}

TEST(RelativeToleranceTest, SingularityIsScaleInvariant) {
  // Nearly parallel rows at scale 1e8: the bulk eigenvalue is 1e-4 --
  // far above the old absolute 1e-300 floor -- but 1e-12 relative to the
  // principal eigenvalue, so inversion must refuse.
  linalg::UniformMixture large_singular{4, 1e8 + 1e-4, 1e8};
  EXPECT_TRUE(large_singular.IsSingular());
  EXPECT_FALSE(large_singular.ApplyInverse({1, 2, 3, 4}).ok());

  // Well-conditioned but denormal-range: not singular in the relative
  // sense, yet v/a would overflow to inf -- inversion must refuse rather
  // than return infinities.
  linalg::UniformMixture denormal{2, 2e-310, 1e-310};
  EXPECT_FALSE(denormal.IsSingular());
  EXPECT_FALSE(denormal.ApplyInverse({1.0, 2.0}).ok());

  // A perfectly conditioned matrix at scale 1e-150 must invert: scaling
  // M by s scales M^{-1} v by 1/s.
  double scale = 1e-150;
  linalg::UniformMixture tiny_regular{4, scale * 0.7, scale * 0.1};
  linalg::UniformMixture unit_regular{4, 0.7, 0.1};
  std::vector<double> v = {0.1, 0.4, 0.2, 0.3};
  auto tiny_solution = tiny_regular.ApplyInverse(v);
  auto unit_solution = unit_regular.ApplyInverse(v);
  ASSERT_TRUE(tiny_solution.ok());
  ASSERT_TRUE(unit_solution.ok());
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(tiny_solution.value()[i] * scale, unit_solution.value()[i],
                1e-9 * std::fabs(unit_solution.value()[i]));
  }
}

// --- Bugfix: overflow-safe product-domain guard ---

Dataset WideDataset(size_t num_attributes, size_t cardinality) {
  std::vector<Attribute> schema;
  std::vector<std::vector<uint32_t>> columns;
  std::vector<std::string> categories;
  categories.reserve(cardinality);
  for (size_t v = 0; v < cardinality; ++v) {
    categories.push_back(std::to_string(v));
  }
  for (size_t j = 0; j < num_attributes; ++j) {
    schema.push_back(Attribute{"a" + std::to_string(j),
                               AttributeType::kNominal, categories});
    columns.push_back({0, 1});
  }
  return Dataset(schema, columns);
}

TEST(DomainGuardTest, CheckedSizeMatchesDomainSizeInRange) {
  Dataset data = WideDataset(3, 5);
  auto size = Domain::CheckedSizeForAttributes(data, {0, 1, 2});
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), Domain::ForAttributes(data, {0, 1, 2}).size());
  EXPECT_EQ(size.value(), 125u);
}

TEST(DomainGuardTest, CheckedSizeDetectsUint64Overflow) {
  // 8 attributes of cardinality 2^13: the product is 2^104, which wraps
  // a uint64 accumulator to a small number long before any "> 2^31"
  // comparison could fire.
  Dataset data = WideDataset(8, 1u << 13);
  std::vector<size_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  auto size = Domain::CheckedSizeForAttributes(data, all);
  ASSERT_FALSE(size.ok());
  EXPECT_EQ(size.status().code(), StatusCode::kInvalidArgument);
}

TEST(DomainGuardTest, RunRrJointRejectsOverflowingDomainGracefully) {
  Dataset data = WideDataset(8, 1u << 13);
  std::vector<size_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  Rng rng(71);
  auto result = RunRrJoint(data, all, 1.0, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DomainGuardTest, RunRrJointStillRejectsOversizedButRepresentable) {
  // 4 x 2^13 = 2^52: representable in 64 bits but far over the 2^31
  // materialization cap -- the existing OutOfRange contract.
  Dataset data = WideDataset(4, 1u << 13);
  std::vector<size_t> all = {0, 1, 2, 3};
  Rng rng(73);
  auto result = RunRrJoint(data, all, 1.0, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

// --- Bugfix: ConditionNumber convergence (regression pins) ---

TEST(ConditionNumberRegressionTest, StructuredClosedFormPin) {
  // KeepUniform(4, 0.6): a = 0.6, principal = 1.0 -> kappa = 1/0.6.
  EXPECT_NEAR(RrMatrix::KeepUniform(4, 0.6).ConditionNumber(), 1.0 / 0.6,
              1e-12);
}

TEST(ConditionNumberRegressionTest, DensePowerIterationPin) {
  // P = [[0.8, 0.2], [0.4, 0.6]]: PtP has eigenvalues
  // (1.2 +- sqrt(0.8)) / 2, so kappa = sqrt of their ratio.
  linalg::Matrix p(2, 2);
  p(0, 0) = 0.8;
  p(0, 1) = 0.2;
  p(1, 0) = 0.4;
  p(1, 1) = 0.6;
  auto m = RrMatrix::FromDense(p);
  ASSERT_TRUE(m.ok());
  ASSERT_FALSE(m.value().is_structured());
  double expected =
      std::sqrt((1.2 + std::sqrt(0.8)) / (1.2 - std::sqrt(0.8)));
  EXPECT_NEAR(m.value().ConditionNumber(), expected, 1e-9);
}

TEST(ConditionNumberRegressionTest, GeometricOrdinalIsFiniteAndStable) {
  // The early exit must not change the converged value: two evaluations
  // agree exactly, and the value is a sane finite conditioning estimate.
  RrMatrix m = DenseRrMatrix(8, 2.0);
  double first = m.ConditionNumber();
  double second = m.ConditionNumber();
  EXPECT_EQ(first, second);
  EXPECT_GT(first, 1.0);
  EXPECT_LT(first, 1e6);
}

// --- The split joint frame: perturb + estimate == run ---

TEST(JointSplitTest, PerturbThenEstimateMatchesRunRrJoint) {
  Dataset data = WideDataset(2, 3);
  std::vector<size_t> attrs = {0, 1};
  Rng run_rng(97);
  auto combined = RunRrJoint(data, attrs, 1.5, run_rng);
  ASSERT_TRUE(combined.ok());

  Rng split_rng(97);
  auto perturbation =
      PerturbRrJoint(data, attrs, 1.5, SequentialPerturber(split_rng));
  ASSERT_TRUE(perturbation.ok());
  for (size_t threads : {1u, 4u}) {
    RrJointPerturbation copy = perturbation.value();
    auto estimated =
        EstimateRrJoint(std::move(copy), EstimationOptions{threads});
    ASSERT_TRUE(estimated.ok());
    EXPECT_EQ(estimated.value().randomized_codes,
              combined.value().randomized_codes);
    EXPECT_EQ(estimated.value().lambda, combined.value().lambda);
    EXPECT_EQ(estimated.value().raw_estimated,
              combined.value().raw_estimated);
    EXPECT_EQ(estimated.value().estimated, combined.value().estimated);
    EXPECT_EQ(estimated.value().epsilon, combined.value().epsilon);
  }
}

}  // namespace
}  // namespace mdrr
