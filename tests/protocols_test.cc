#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/estimator.h"
#include "mdrr/core/privacy.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

Dataset MakeCorrelatedDataset(size_t n, uint64_t seed) {
  std::vector<Attribute> schema = {
      Attribute{"A", AttributeType::kNominal, {"0", "1", "2"}},
      Attribute{"B", AttributeType::kNominal, {"0", "1", "2"}},
      Attribute{"C", AttributeType::kNominal, {"0", "1"}},
  };
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> cols(3);
  for (size_t i = 0; i < n; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.Discrete({0.5, 0.3, 0.2}));
    uint32_t b =
        rng.Bernoulli(0.85) ? a : static_cast<uint32_t>(rng.UniformInt(3));
    uint32_t c = static_cast<uint32_t>(rng.UniformInt(2));
    cols[0].push_back(a);
    cols[1].push_back(b);
    cols[2].push_back(c);
  }
  return Dataset(schema, std::move(cols));
}

// --- RR-Independent ---

TEST(RrIndependentTest, MarginalsRecoverTruth) {
  Dataset ds = MakeCorrelatedDataset(100000, 3);
  Rng rng(5);
  RrIndependentOptions options{0.6};
  auto result = RunRrIndependent(ds, options, rng);
  ASSERT_TRUE(result.ok());

  for (size_t j = 0; j < ds.num_attributes(); ++j) {
    std::vector<double> truth = EmpiricalDistribution(
        ds.column(j), ds.attribute(j).cardinality());
    for (size_t v = 0; v < truth.size(); ++v) {
      EXPECT_NEAR(result.value().estimated[j][v], truth[v], 0.02)
          << "attribute " << j << " category " << v;
    }
  }
}

TEST(RrIndependentTest, EpsilonAccounting) {
  Dataset ds = MakeCorrelatedDataset(100, 7);
  Rng rng(9);
  RrIndependentOptions options{0.5};
  auto result = RunRrIndependent(ds, options, rng);
  ASSERT_TRUE(result.ok());
  double expected = KeepUniformEpsilon(3, 0.5) * 2 + KeepUniformEpsilon(2, 0.5);
  EXPECT_NEAR(result.value().total_epsilon, expected, 1e-9);
}

TEST(RrIndependentTest, RandomizedDataHasSameShape) {
  Dataset ds = MakeCorrelatedDataset(500, 11);
  Rng rng(13);
  auto result = RunRrIndependent(ds, RrIndependentOptions{0.7}, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().randomized.num_rows(), ds.num_rows());
  EXPECT_EQ(result.value().randomized.num_attributes(), ds.num_attributes());
}

TEST(RrIndependentTest, EmptyDatasetFails) {
  Dataset empty({Attribute{"A", AttributeType::kNominal, {"x", "y"}}},
                {std::vector<uint32_t>()});
  Rng rng(1);
  EXPECT_FALSE(RunRrIndependent(empty, RrIndependentOptions{}, rng).ok());
}

TEST(RrIndependentTest, EstimateAnswersMarginalQuery) {
  Dataset ds = MakeCorrelatedDataset(50000, 17);
  Rng rng(19);
  auto result = RunRrIndependent(ds, RrIndependentOptions{0.8}, rng);
  ASSERT_TRUE(result.ok());
  IndependentMarginalsEstimate estimate = MakeIndependentEstimate(*result);

  CountQuery query;
  query.attributes = {0};
  query.tuples = {{0}};
  double truth = 0.0;
  for (uint32_t v : ds.column(0)) {
    if (v == 0) truth += 1.0;
  }
  EXPECT_NEAR(estimate.EstimateCount(query), truth, 0.05 * ds.num_rows());
}

// --- RR-Joint ---

TEST(RrJointTest, RecoversJointDistribution) {
  Dataset ds = MakeCorrelatedDataset(150000, 23);
  Rng rng(29);
  std::vector<size_t> attrs = {0, 1};
  double budget = ClusterEpsilonBudget(ds, attrs, 0.8);
  auto result = RunRrJoint(ds, attrs, budget, rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().estimated.size(), 9u);

  // True joint.
  std::vector<double> truth(9, 0.0);
  for (size_t i = 0; i < ds.num_rows(); ++i) {
    truth[ds.at(i, 0) * 3 + ds.at(i, 1)] += 1.0 / ds.num_rows();
  }
  for (size_t k = 0; k < 9; ++k) {
    EXPECT_NEAR(result.value().estimated[k], truth[k], 0.02)
        << "cell " << k;
  }
}

TEST(RrJointTest, EpsilonMatchesBudget) {
  Dataset ds = MakeCorrelatedDataset(1000, 31);
  Rng rng(37);
  auto result = RunRrJoint(ds, {0, 2}, 2.0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().epsilon, 2.0, 1e-9);
}

TEST(RrJointTest, RejectsEmptyAttributeSet) {
  Dataset ds = MakeCorrelatedDataset(10, 41);
  Rng rng(43);
  EXPECT_FALSE(RunRrJoint(ds, {}, 1.0, rng).ok());
}

TEST(RrJointTest, RejectsOversizedDomain) {
  // 40 binary attributes: domain 2^40 > 2^31 must be rejected, echoing
  // the Section 3.2 infeasibility discussion.
  std::vector<Attribute> schema;
  std::vector<std::vector<uint32_t>> cols;
  for (int j = 0; j < 40; ++j) {
    schema.push_back(
        Attribute{"b" + std::to_string(j), AttributeType::kNominal,
                  {"0", "1"}});
    cols.push_back({0, 1});
  }
  Dataset wide(schema, cols);
  std::vector<size_t> all;
  for (size_t j = 0; j < 40; ++j) all.push_back(j);
  Rng rng(47);
  auto result = RunRrJoint(wide, all, 1.0, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(ClusterEpsilonBudgetTest, SumsPerAttributeEpsilons) {
  Dataset ds = MakeCorrelatedDataset(10, 53);
  double expected = KeepUniformEpsilon(3, 0.5) + KeepUniformEpsilon(2, 0.5);
  EXPECT_NEAR(ClusterEpsilonBudget(ds, {0, 2}, 0.5), expected, 1e-12);
  double paper = PaperKeepUniformEpsilon(3, 0.5) +
                 PaperKeepUniformEpsilon(2, 0.5);
  EXPECT_NEAR(ClusterEpsilonBudget(ds, {0, 2}, 0.5, true), paper, 1e-12);
}

// --- RR-Clusters ---

TEST(RrClustersTest, ClustersCorrelatedPairTogether) {
  Dataset ds = MakeCorrelatedDataset(30000, 59);
  Rng rng(61);
  RrClustersOptions options;
  options.keep_probability = 0.7;
  options.clustering = ClusteringOptions{20.0, 0.1};
  options.dependence_source = DependenceSource::kOracle;
  auto result = RunRrClusters(ds, options, rng);
  ASSERT_TRUE(result.ok());

  // A and B (9 combinations <= 20) must share a cluster; C stays alone
  // (its dependence on A/B is ~0 < Td).
  ASSERT_EQ(result.value().clusters.size(), 2u);
  EXPECT_EQ(result.value().clusters[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(result.value().clusters[1], (std::vector<size_t>{2}));
}

TEST(RrClustersTest, JointWithinClusterBeatsIndependenceAssumption) {
  Dataset ds = MakeCorrelatedDataset(100000, 67);
  Rng rng(71);
  RrClustersOptions options;
  options.keep_probability = 0.8;
  options.clustering = ClusteringOptions{20.0, 0.1};
  auto clusters_result = RunRrClusters(ds, options, rng);
  ASSERT_TRUE(clusters_result.ok());

  Rng rng2(73);
  auto independent_result =
      RunRrIndependent(ds, RrIndependentOptions{0.8}, rng2);
  ASSERT_TRUE(independent_result.ok());

  // Query the strongly-correlated diagonal cell (A=0, B=0).
  CountQuery query;
  query.attributes = {0, 1};
  query.tuples = {{0, 0}};
  double truth = 0.0;
  for (size_t i = 0; i < ds.num_rows(); ++i) {
    if (ds.at(i, 0) == 0 && ds.at(i, 1) == 0) truth += 1.0;
  }

  ClusterFactorizationEstimate cluster_estimate =
      MakeClusterEstimate(*clusters_result);
  IndependentMarginalsEstimate independent_estimate =
      MakeIndependentEstimate(*independent_result);

  double cluster_error =
      std::fabs(cluster_estimate.EstimateCount(query) - truth);
  double independent_error =
      std::fabs(independent_estimate.EstimateCount(query) - truth);
  // The diagonal cell is heavily underestimated under independence; the
  // cluster joint captures it.
  EXPECT_LT(cluster_error, independent_error);
}

TEST(RrClustersTest, ReleaseEpsilonIsSumOfClusterBudgets) {
  Dataset ds = MakeCorrelatedDataset(5000, 79);
  Rng rng(83);
  RrClustersOptions options;
  options.keep_probability = 0.5;
  options.clustering = ClusteringOptions{20.0, 0.1};
  auto result = RunRrClusters(ds, options, rng);
  ASSERT_TRUE(result.ok());

  double expected = 0.0;
  for (const auto& cluster : result.value().clusters) {
    expected += ClusterEpsilonBudget(ds, cluster, 0.5);
  }
  EXPECT_NEAR(result.value().release_epsilon, expected, 1e-9);
  // Oracle dependences are free.
  EXPECT_DOUBLE_EQ(result.value().dependence_epsilon, 0.0);
}

TEST(RrClustersTest, ProvidedDependencesAreUsed) {
  Dataset ds = MakeCorrelatedDataset(2000, 89);
  // Claim C is strongly dependent on A (contradicting the data):
  // clustering must follow the provided matrix, not the data.
  linalg::Matrix fake(3, 3, 0.0);
  for (size_t i = 0; i < 3; ++i) fake(i, i) = 1.0;
  fake(0, 2) = fake(2, 0) = 0.9;
  RrClustersOptions options;
  options.clustering = ClusteringOptions{10.0, 0.5};
  options.dependence_source = DependenceSource::kProvided;
  options.provided_dependences = &fake;
  Rng rng(97);
  auto result = RunRrClusters(ds, options, rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().clusters.size(), 2u);
  EXPECT_EQ(result.value().clusters[0], (std::vector<size_t>{0, 2}));
}

TEST(RrClustersTest, ProvidedWithoutMatrixFails) {
  Dataset ds = MakeCorrelatedDataset(100, 101);
  RrClustersOptions options;
  options.dependence_source = DependenceSource::kProvided;
  Rng rng(103);
  EXPECT_FALSE(RunRrClusters(ds, options, rng).ok());
}

TEST(RrClustersTest, InProtocolDependenceSourceSpendsEpsilon) {
  Dataset ds = MakeCorrelatedDataset(5000, 107);
  RrClustersOptions options;
  options.dependence_source = DependenceSource::kRandomizedResponse;
  options.dependence_keep_probability = 0.6;
  Rng rng(109);
  auto result = RunRrClusters(ds, options, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().dependence_epsilon, 0.0);
}

TEST(RrClustersTest, RandomizedDatasetDecodesConsistently) {
  Dataset ds = MakeCorrelatedDataset(1000, 113);
  Rng rng(127);
  RrClustersOptions options;
  options.clustering = ClusteringOptions{20.0, 0.1};
  auto result = RunRrClusters(ds, options, rng);
  ASSERT_TRUE(result.ok());

  // The decoded per-attribute columns must re-encode to the published
  // composite codes.
  for (size_t c = 0; c < result.value().clusters.size(); ++c) {
    const auto& cluster = result.value().clusters[c];
    const RrJointResult& joint = result.value().cluster_results[c];
    std::vector<uint32_t> recomposed = joint.domain.ComposeColumns(
        result.value().randomized, cluster);
    EXPECT_EQ(recomposed, joint.randomized_codes) << "cluster " << c;
  }
}

}  // namespace
}  // namespace mdrr
