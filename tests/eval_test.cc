#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/eval/experiment.h"
#include "mdrr/eval/metrics.h"
#include "mdrr/eval/subset_query.h"
#include "mdrr/rng/rng.h"

namespace mdrr::eval {
namespace {

TEST(MetricsTest, AbsoluteError) {
  EXPECT_DOUBLE_EQ(AbsoluteError(10.0, 7.0), 3.0);
  EXPECT_DOUBLE_EQ(AbsoluteError(7.0, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(AbsoluteError(5.0, 5.0), 0.0);
}

TEST(MetricsTest, RelativeError) {
  EXPECT_DOUBLE_EQ(RelativeError(12.0, 10.0), 0.2);
  EXPECT_DOUBLE_EQ(RelativeError(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(RelativeError(1.0, 0.0)));
}

TEST(SubsetQueryTest, CoverageProportionRespected) {
  Dataset ds = SynthesizeAdult(100, 3);
  Rng rng(5);
  CountQuery query = GenerateCoverageQueryForAttributes(
      ds, {kAdultMaritalStatus, kAdultRelationship}, 0.5, rng);
  // |domain| = 7 * 6 = 42; sigma = 0.5 -> 21 combinations.
  EXPECT_EQ(query.tuples.size(), 21u);
}

TEST(SubsetQueryTest, TuplesAreDistinctAndInRange) {
  Dataset ds = SynthesizeAdult(100, 7);
  Rng rng(11);
  CountQuery query = GenerateCoverageQueryForAttributes(
      ds, {kAdultWorkclass, kAdultRace}, 0.3, rng);
  Domain domain({9, 5});
  std::set<uint64_t> seen;
  for (const auto& tuple : query.tuples) {
    ASSERT_EQ(tuple.size(), 2u);
    EXPECT_LT(tuple[0], 9u);
    EXPECT_LT(tuple[1], 5u);
    EXPECT_TRUE(seen.insert(domain.Encode(tuple)).second)
        << "duplicate tuple";
  }
}

TEST(SubsetQueryTest, MinimumOneTuple) {
  Dataset ds = SynthesizeAdult(50, 13);
  Rng rng(17);
  CountQuery query = GenerateCoverageQueryForAttributes(
      ds, {kAdultSex, kAdultIncome}, 0.01, rng);
  EXPECT_EQ(query.tuples.size(), 1u);
}

TEST(SubsetQueryTest, FullCoverageTakesWholeDomain) {
  Dataset ds = SynthesizeAdult(50, 19);
  Rng rng(23);
  CountQuery query = GenerateCoverageQueryForAttributes(
      ds, {kAdultSex, kAdultIncome}, 1.0, rng);
  EXPECT_EQ(query.tuples.size(), 4u);
}

TEST(SubsetQueryTest, RandomAttributesAreDistinctAndSorted) {
  Dataset ds = SynthesizeAdult(50, 29);
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    CountQuery query = GenerateCoverageQuery(ds, 0.1, 2, rng);
    ASSERT_EQ(query.attributes.size(), 2u);
    EXPECT_LT(query.attributes[0], query.attributes[1]);
    EXPECT_LT(query.attributes[1], ds.num_attributes());
  }
}

TEST(RangeQueryTest, BuildsInclusiveRange) {
  Dataset ds = SynthesizeAdult(100, 3);
  CountQuery query = MakeRangeQuery(ds, kAdultEducation, 8, 11);
  ASSERT_EQ(query.attributes, (std::vector<size_t>{kAdultEducation}));
  ASSERT_EQ(query.tuples.size(), 4u);
  EXPECT_EQ(query.tuples.front()[0], 8u);
  EXPECT_EQ(query.tuples.back()[0], 11u);
}

TEST(RangeQueryTest, SingleCategoryRange) {
  Dataset ds = SynthesizeAdult(100, 5);
  CountQuery query = MakeRangeQuery(ds, kAdultIncome, 1, 1);
  ASSERT_EQ(query.tuples.size(), 1u);
}

TEST(RangeQueryTest, CountsMatchManualScan) {
  Dataset ds = SynthesizeAdult(5000, 7);
  CountQuery query = MakeRangeQuery(ds, kAdultEducation, 12, 15);
  EmpiricalCounts counts(ds);
  double manual = 0.0;
  for (uint32_t code : ds.column(kAdultEducation)) {
    if (code >= 12 && code <= 15) manual += 1.0;
  }
  EXPECT_DOUBLE_EQ(counts.EstimateCount(query), manual);
}

TEST(ExperimentTest, RejectsNonPositiveRuns) {
  Dataset ds = SynthesizeAdult(100, 37);
  ExperimentConfig config;
  config.runs = 0;
  EXPECT_FALSE(RunCountQueryExperiment(ds, config).ok());
}

TEST(ExperimentTest, DeterministicInSeedAcrossThreadCounts) {
  Dataset ds = SynthesizeAdult(2000, 41);
  ExperimentConfig config;
  config.method = Method::kRrIndependent;
  config.keep_probability = 0.7;
  config.sigma = 0.2;
  config.runs = 8;
  config.seed = 99;

  config.threads = 1;
  auto serial = RunCountQueryExperiment(ds, config);
  ASSERT_TRUE(serial.ok());
  config.threads = 8;
  auto parallel = RunCountQueryExperiment(ds, config);
  ASSERT_TRUE(parallel.ok());
  EXPECT_DOUBLE_EQ(serial.value().median_absolute_error,
                   parallel.value().median_absolute_error);
  EXPECT_DOUBLE_EQ(serial.value().median_relative_error,
                   parallel.value().median_relative_error);
}

TEST(ExperimentTest, StrongRandomizationHurtsAccuracy) {
  // Figure 3's basic monotonicity: p = 0.1 gives worse RR-Ind relative
  // error than p = 0.9 at small coverage.
  Dataset ds = SynthesizeAdult(8000, 43);
  ExperimentConfig config;
  config.method = Method::kRrIndependent;
  config.sigma = 0.1;
  config.runs = 15;
  config.seed = 7;

  config.keep_probability = 0.1;
  auto weak = RunCountQueryExperiment(ds, config);
  ASSERT_TRUE(weak.ok());
  config.keep_probability = 0.9;
  auto strong = RunCountQueryExperiment(ds, config);
  ASSERT_TRUE(strong.ok());
  EXPECT_GT(weak.value().median_relative_error,
            strong.value().median_relative_error);
}

TEST(ExperimentTest, AllMethodsRunOnAdultSample) {
  Dataset ds = SynthesizeAdult(3000, 47);
  for (Method method :
       {Method::kRandomized, Method::kRrIndependent,
        Method::kRrIndependentAdjusted, Method::kRrClusters,
        Method::kRrClustersAdjusted}) {
    ExperimentConfig config;
    config.method = method;
    config.keep_probability = 0.7;
    config.clustering = ClusteringOptions{50.0, 0.1};
    config.adjustment.max_iterations = 20;
    config.sigma = 0.2;
    config.runs = 4;
    config.seed = 11;
    auto result = RunCountQueryExperiment(ds, config);
    ASSERT_TRUE(result.ok()) << "method " << static_cast<int>(method)
                             << ": " << result.status().ToString();
    EXPECT_EQ(result.value().runs, 4);
    EXPECT_GE(result.value().median_absolute_error, 0.0);
  }
}

}  // namespace
}  // namespace mdrr::eval
