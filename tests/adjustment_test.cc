#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/adjustment.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

// The paper's Example 1 (Section 5): n = 10, two binary attributes,
// randomized data Y with records
//   (a11, a21) x4, (a12, a21) x2, (a11, a22) x0, (a12, a22) x4
// and target marginals (1/2, 1/2) for both attributes. Algorithm 2 must
// converge to joint weights Pr(a11,a21)=1/2, Pr(a12,a22)=1/2, rest 0.
TEST(AdjustmentTest, PaperExampleOne) {
  std::vector<AdjustmentGroup> groups(2);
  groups[0].codes = {0, 0, 0, 0, 1, 1, 1, 1, 1, 1};  // Attribute 1.
  groups[0].target = {0.5, 0.5};
  groups[1].codes = {0, 0, 0, 0, 0, 0, 1, 1, 1, 1};  // Attribute 2.
  groups[1].target = {0.5, 0.5};

  AdjustmentOptions options;
  options.max_iterations = 2000;
  options.tolerance = 1e-12;
  auto result = RunRrAdjustment(groups, 10, options);
  ASSERT_TRUE(result.ok());

  // IPF converges towards this limit only sublinearly here (the vanishing
  // cell (a12, a21) decays like 1/iterations, a classic property of IPF
  // with zero-mass limit cells), so assert proximity, not exactness.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.value().weights[i], 0.125, 2e-3) << "record " << i;
  }
  EXPECT_NEAR(result.value().weights[4], 0.0, 2e-3);
  EXPECT_NEAR(result.value().weights[5], 0.0, 2e-3);
  for (int i = 6; i < 10; ++i) {
    EXPECT_NEAR(result.value().weights[i], 0.125, 2e-3) << "record " << i;
  }

  // The paper's point in Example 1: the adjusted joint (-> (1/2, 0, 0,
  // 1/2)) is far more faithful to Y than the product-of-marginals
  // estimate (1/4 in every cell). Check cell (a11, a22), truly absent
  // from Y: adjustment sends it to ~0 while independence claims 1/4.
  double cell_a11_a22 = 0.0;
  for (int i = 0; i < 10; ++i) {
    if (groups[0].codes[i] == 0 && groups[1].codes[i] == 1) {
      cell_a11_a22 += result.value().weights[i];
    }
  }
  EXPECT_LT(cell_a11_a22, 0.01);
}

TEST(AdjustmentTest, WeightsAlwaysSumToOne) {
  std::vector<AdjustmentGroup> groups(1);
  groups[0].codes = {0, 1, 2, 0, 1, 2, 0};
  groups[0].target = {0.6, 0.3, 0.1};
  auto result = RunRrAdjustment(groups, 7);
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (double w : result.value().weights) {
    EXPECT_GE(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(AdjustmentTest, SingleGroupMatchesExactlyInOneSweep) {
  // With a single marginal constraint, IPF is exact after one sweep.
  std::vector<AdjustmentGroup> groups(1);
  groups[0].codes = {0, 0, 0, 1};
  groups[0].target = {0.25, 0.75};
  auto result = RunRrAdjustment(groups, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().converged);
  // Implied marginal: category 0 has 3 records sharing mass 0.25.
  EXPECT_NEAR(result.value().weights[0], 0.25 / 3, 1e-12);
  EXPECT_NEAR(result.value().weights[3], 0.75, 1e-12);
}

TEST(AdjustmentTest, ConsistentTargetsConvergeToExactMarginals) {
  // Two overlapping constraints over 3-category codes.
  Rng rng(5);
  const size_t n = 5000;
  std::vector<AdjustmentGroup> groups(2);
  groups[0].target = {0.5, 0.3, 0.2};
  groups[1].target = {0.4, 0.6};
  for (size_t i = 0; i < n; ++i) {
    groups[0].codes.push_back(static_cast<uint32_t>(rng.UniformInt(3)));
    groups[1].codes.push_back(static_cast<uint32_t>(rng.UniformInt(2)));
  }
  AdjustmentOptions options;
  options.max_iterations = 300;
  options.tolerance = 1e-12;
  auto result = RunRrAdjustment(groups, n, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().converged);
  EXPECT_LT(result.value().max_marginal_gap, 1e-11);

  // Verify one implied marginal explicitly.
  std::vector<double> implied(3, 0.0);
  for (size_t i = 0; i < n; ++i) {
    implied[groups[0].codes[i]] += result.value().weights[i];
  }
  EXPECT_NEAR(implied[0], 0.5, 1e-10);
  EXPECT_NEAR(implied[1], 0.3, 1e-10);
  EXPECT_NEAR(implied[2], 0.2, 1e-10);
}

TEST(AdjustmentTest, UnreachableTargetReportsGap) {
  // A category with target mass but no records can never be matched.
  std::vector<AdjustmentGroup> groups(1);
  groups[0].codes = {0, 0, 0, 0};  // Category 1 absent.
  groups[0].target = {0.7, 0.3};
  auto result = RunRrAdjustment(groups, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().converged);
  EXPECT_NEAR(result.value().max_marginal_gap, 0.3, 1e-9);
}

TEST(AdjustmentTest, InputValidation) {
  EXPECT_FALSE(RunRrAdjustment({}, 5).ok());

  std::vector<AdjustmentGroup> wrong_size(1);
  wrong_size[0].codes = {0, 1};
  wrong_size[0].target = {0.5, 0.5};
  EXPECT_FALSE(RunRrAdjustment(wrong_size, 5).ok());

  std::vector<AdjustmentGroup> bad_target(1);
  bad_target[0].codes = {0, 1, 0};
  bad_target[0].target = {0.9, 0.9};  // Sums to 1.8.
  EXPECT_FALSE(RunRrAdjustment(bad_target, 3).ok());

  std::vector<AdjustmentGroup> negative_target(1);
  negative_target[0].codes = {0, 1, 0};
  negative_target[0].target = {1.2, -0.2};
  EXPECT_FALSE(RunRrAdjustment(negative_target, 3).ok());

  std::vector<AdjustmentGroup> out_of_range(1);
  out_of_range[0].codes = {0, 5, 0};
  out_of_range[0].target = {0.5, 0.5};
  EXPECT_FALSE(RunRrAdjustment(out_of_range, 3).ok());

  // A target that gives no mass to any category the records reach fails
  // with a Status instead of aborting.
  std::vector<AdjustmentGroup> unreachable_mass(1);
  unreachable_mass[0].codes = {0, 0, 0};
  unreachable_mass[0].target = {0.0, 1.0};
  EXPECT_EQ(RunRrAdjustment(unreachable_mass, 3).status().code(),
            StatusCode::kFailedPrecondition);

  // The same when an earlier group's target zeroed every record a later
  // group's target still gives mass to.
  std::vector<AdjustmentGroup> zeroed(2);
  zeroed[0].codes = {0, 0, 1};
  zeroed[0].target = {0.0, 1.0};
  zeroed[1].codes = {0, 0, 1};
  zeroed[1].target = {1.0, 0.0};
  EXPECT_EQ(RunRrAdjustment(zeroed, 3).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AdjustmentTest, GroupsFromIndependentShapes) {
  std::vector<Attribute> schema = {
      Attribute{"A", AttributeType::kNominal, {"0", "1", "2"}},
      Attribute{"B", AttributeType::kNominal, {"0", "1"}},
  };
  Rng data_rng(7);
  std::vector<std::vector<uint32_t>> cols(2);
  for (int i = 0; i < 3000; ++i) {
    cols[0].push_back(static_cast<uint32_t>(data_rng.UniformInt(3)));
    cols[1].push_back(static_cast<uint32_t>(data_rng.UniformInt(2)));
  }
  Dataset ds(schema, std::move(cols));
  Rng rng(11);
  auto rr = RunRrIndependent(ds, RrIndependentOptions{0.7}, rng);
  ASSERT_TRUE(rr.ok());

  std::vector<AdjustmentGroup> groups = GroupsFromIndependent(*rr);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].codes.size(), ds.num_rows());
  EXPECT_EQ(groups[0].target.size(), 3u);
  EXPECT_EQ(groups[1].target.size(), 2u);

  auto adjusted = MakeAdjustedEstimate(*rr);
  ASSERT_TRUE(adjusted.ok());
  // Marginal queries through the adjusted estimate match the RR-Ind
  // estimated marginal by construction (IPF fixes marginals).
  CountQuery query;
  query.attributes = {0};
  query.tuples = {{1}};
  double expected = rr.value().estimated[0][1] * ds.num_rows();
  EXPECT_NEAR(adjusted.value().EstimateCount(query), expected,
              1e-6 * ds.num_rows());
}

}  // namespace
}  // namespace mdrr
