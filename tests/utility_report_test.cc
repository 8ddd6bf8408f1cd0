#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/synthetic.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/eval/utility_report.h"
#include "mdrr/rng/rng.h"

namespace mdrr::eval {
namespace {

TEST(UtilityReportTest, IdenticalDataScoresPerfectly) {
  Dataset ds = SynthesizeAdult(3000, 3);
  UtilityReportOptions options;
  options.queries_per_sigma = 10;
  auto report = BuildUtilityReport(ds, ds, options);
  ASSERT_TRUE(report.ok());
  for (double tv : report.value().marginal_tv) {
    EXPECT_DOUBLE_EQ(tv, 0.0);
  }
  EXPECT_DOUBLE_EQ(report.value().max_dependence_shift, 0.0);
  for (double err : report.value().median_relative_error) {
    EXPECT_DOUBLE_EQ(err, 0.0);
  }
}

TEST(UtilityReportTest, ShuffledColumnsLoseDependenceNotMarginals) {
  Dataset ds = SynthesizeAdult(8000, 5);
  // Independently shuffle every column: marginals identical, joint
  // structure destroyed.
  Dataset shuffled = ds;
  Rng rng(7);
  for (size_t j = 0; j < ds.num_attributes(); ++j) {
    std::vector<uint32_t> column = ds.column(j);
    std::shuffle(column.begin(), column.end(), rng.engine());
    shuffled.SetColumn(j, std::move(column));
  }
  UtilityReportOptions options;
  options.queries_per_sigma = 10;
  auto report = BuildUtilityReport(ds, shuffled, options);
  ASSERT_TRUE(report.ok());
  for (double tv : report.value().marginal_tv) {
    EXPECT_DOUBLE_EQ(tv, 0.0);  // Marginals untouched.
  }
  // The Relationship <-> Sex dependence (~0.67) is gone.
  EXPECT_GT(report.value().max_dependence_shift, 0.5);
}

TEST(UtilityReportTest, ClusterSyntheticReleaseScoresWell) {
  Dataset ds = SynthesizeAdult(20000, 11);
  RrClustersOptions options;
  options.keep_probability = 0.8;
  options.clustering = ClusteringOptions{100.0, 0.1};
  Rng rng(13);
  auto protocol = RunRrClusters(ds, options, rng);
  ASSERT_TRUE(protocol.ok());
  Rng synth_rng(17);
  auto synthetic =
      SynthesizeFromClusters(*protocol, 20000, synth_rng);
  ASSERT_TRUE(synthetic.ok());

  UtilityReportOptions report_options;
  report_options.queries_per_sigma = 15;
  auto report = BuildUtilityReport(ds, synthetic.value(), report_options);
  ASSERT_TRUE(report.ok());
  // Marginals survive well at p = 0.8.
  for (double tv : report.value().marginal_tv) {
    EXPECT_LT(tv, 0.06);
  }
  // The report renders every attribute name.
  std::string text = report.value().ToString(ds);
  EXPECT_NE(text.find("Relationship"), std::string::npos);
  EXPECT_NE(text.find("dependence shift"), std::string::npos);
}

TEST(UtilityReportTest, ScalesDifferentlySizedReleases) {
  Dataset ds = SynthesizeAdult(4000, 19);
  // The release is the same data tiled 3x: counts triple, but after
  // scaling the report must see a perfect match.
  Dataset release = ds.Tiled(3);
  UtilityReportOptions options;
  options.queries_per_sigma = 10;
  auto report = BuildUtilityReport(ds, release, options);
  ASSERT_TRUE(report.ok());
  for (double err : report.value().median_relative_error) {
    EXPECT_NEAR(err, 0.0, 1e-12);
  }
}

TEST(UtilityReportTest, InputValidation) {
  Dataset ds = SynthesizeAdult(100, 23);
  Dataset other = ds.Project({0, 1});
  UtilityReportOptions options;
  EXPECT_FALSE(BuildUtilityReport(ds, other, options).ok());

  options.queries_per_sigma = 0;
  EXPECT_FALSE(BuildUtilityReport(ds, ds, options).ok());

  Dataset empty(ds.schema(),
                std::vector<std::vector<uint32_t>>(ds.num_attributes()));
  options.queries_per_sigma = 5;
  EXPECT_FALSE(BuildUtilityReport(ds, empty, options).ok());
}

}  // namespace
}  // namespace mdrr::eval
