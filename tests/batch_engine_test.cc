#include "mdrr/core/batch_engine.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/adjustment.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/core/synthetic.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/attribute.h"
#include "mdrr/dataset/dataset.h"

namespace mdrr {
namespace {

BatchPerturbationEngine MakeEngine(size_t num_threads, size_t shard_size,
                                   uint64_t seed = 42) {
  BatchPerturbationOptions options;
  options.seed = seed;
  options.num_threads = num_threads;
  options.shard_size = shard_size;
  return BatchPerturbationEngine(options);
}

Dataset SmallData(size_t n = 2000) { return SynthesizeAdult(n, 2020); }

void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    EXPECT_EQ(a.column(j), b.column(j)) << "column " << j;
  }
}

TEST(BatchEngineTest, IndependentIsBitIdenticalAcrossThreadCounts) {
  Dataset data = SmallData();
  RrIndependentOptions options{0.7};
  auto baseline = MakeEngine(1, 256).RunIndependent(data, options);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {2u, 3u, 8u}) {
    auto run = MakeEngine(threads, 256).RunIndependent(data, options);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    ExpectSameDataset(baseline.value().randomized, run.value().randomized);
    EXPECT_EQ(baseline.value().lambda, run.value().lambda);
    EXPECT_EQ(baseline.value().estimated, run.value().estimated);
    EXPECT_EQ(baseline.value().total_epsilon, run.value().total_epsilon);
  }
}

TEST(BatchEngineTest, JointIsBitIdenticalAcrossThreadCounts) {
  Dataset data = SmallData();
  std::vector<size_t> attributes = {1, 3};
  auto baseline = MakeEngine(1, 128).RunJoint(data, attributes, 4.0);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {2u, 5u}) {
    auto run = MakeEngine(threads, 128).RunJoint(data, attributes, 4.0);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(baseline.value().randomized_codes,
              run.value().randomized_codes);
    EXPECT_EQ(baseline.value().estimated, run.value().estimated);
  }
}

TEST(BatchEngineTest, ClustersIsBitIdenticalAcrossThreadCounts) {
  Dataset data = SmallData();
  RrClustersOptions options;
  options.keep_probability = 0.7;
  // In-protocol dependence assessment exercises the serial stream too.
  options.dependence_source = DependenceSource::kRandomizedResponse;
  auto baseline = MakeEngine(1, 200).RunClusters(data, options);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {2u, 7u}) {
    auto run = MakeEngine(threads, 200).RunClusters(data, options);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(baseline.value().clusters, run.value().clusters);
    ExpectSameDataset(baseline.value().randomized, run.value().randomized);
    EXPECT_EQ(baseline.value().release_epsilon, run.value().release_epsilon);
    EXPECT_EQ(baseline.value().dependence_epsilon,
              run.value().dependence_epsilon);
    ASSERT_EQ(baseline.value().cluster_results.size(),
              run.value().cluster_results.size());
    for (size_t c = 0; c < baseline.value().cluster_results.size(); ++c) {
      EXPECT_EQ(baseline.value().cluster_results[c].estimated,
                run.value().cluster_results[c].estimated);
    }
  }
}

TEST(BatchEngineTest, EmptyDatasetFails) {
  Dataset empty({Attribute{"a", AttributeType::kNominal, {"0", "1"}}},
                {std::vector<uint32_t>()});
  BatchPerturbationEngine engine = MakeEngine(4, 64);
  EXPECT_FALSE(engine.RunIndependent(empty, RrIndependentOptions{0.7}).ok());
  EXPECT_FALSE(engine.RunJoint(empty, {0}, 1.0).ok());
  EXPECT_FALSE(engine.RunClusters(empty, RrClustersOptions{}).ok());
}

TEST(BatchEngineTest, ShardCountExceedingRecordCountWorks) {
  Dataset data = SmallData(7);
  // shard_size 1 => 7 shards; more threads than shards and more shards
  // than any thread will claim.
  auto tiny_shards = MakeEngine(16, 1).RunIndependent(data, {0.7});
  ASSERT_TRUE(tiny_shards.ok());
  auto same = MakeEngine(1, 1).RunIndependent(data, {0.7});
  ASSERT_TRUE(same.ok());
  ExpectSameDataset(tiny_shards.value().randomized, same.value().randomized);
}

TEST(BatchEngineTest, SingleShardWhenShardSizeExceedsRecords) {
  Dataset data = SmallData(100);
  BatchPerturbationEngine engine = MakeEngine(4, 1 << 20);
  EXPECT_EQ(engine.NumShards(data.num_rows()), 1u);
  EXPECT_TRUE(engine.RunIndependent(data, {0.7}).ok());
}

TEST(BatchEngineTest, ZeroShardSizeIsClampedToOne) {
  BatchPerturbationEngine engine = MakeEngine(2, 0);
  EXPECT_EQ(engine.options().shard_size, 1u);
  EXPECT_EQ(engine.NumShards(5), 5u);
}

TEST(BatchEngineTest, HardwareThreadCountRuns) {
  Dataset data = SmallData(500);
  auto run = MakeEngine(0, 64).RunIndependent(data, {0.7});
  ASSERT_TRUE(run.ok());
  auto baseline = MakeEngine(1, 64).RunIndependent(data, {0.7});
  ASSERT_TRUE(baseline.ok());
  ExpectSameDataset(run.value().randomized, baseline.value().randomized);
}

TEST(BatchEngineTest, LambdaMatchesRandomizedColumnScan) {
  Dataset data = SmallData(1234);
  auto run = MakeEngine(3, 100).RunIndependent(data, {0.6});
  ASSERT_TRUE(run.ok());
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    std::vector<double> rescanned =
        EmpiricalDistribution(run.value().randomized.column(j),
                              data.attribute(j).cardinality());
    ASSERT_EQ(run.value().lambda[j].size(), rescanned.size());
    for (size_t v = 0; v < rescanned.size(); ++v) {
      // The engine divides counts by n; EmpiricalDistribution multiplies
      // by 1/n -- equal up to rounding, not bitwise.
      EXPECT_DOUBLE_EQ(run.value().lambda[j][v], rescanned[v])
          << "attribute " << j << " category " << v;
    }
  }
}

TEST(BatchEngineTest, DifferentSeedsGiveDifferentReleases) {
  Dataset data = SmallData(500);
  auto a = MakeEngine(2, 64, 1).RunIndependent(data, {0.7});
  auto b = MakeEngine(2, 64, 2).RunIndependent(data, {0.7});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bool any_difference = false;
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    if (a.value().randomized.column(j) != b.value().randomized.column(j)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(BatchEngineTest, MatchesSequentialMatrixDesign) {
  // Same matrices as the sequential protocol => identical epsilons.
  Dataset data = SmallData(300);
  Rng rng(9);
  auto sequential = RunRrIndependent(data, {0.7}, rng);
  ASSERT_TRUE(sequential.ok());
  auto batched = MakeEngine(2, 64).RunIndependent(data, {0.7});
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(sequential.value().epsilons, batched.value().epsilons);
  EXPECT_EQ(sequential.value().total_epsilon,
            batched.value().total_epsilon);
}

// A sequential engine draws every stage from its one Rng(seed) in call
// order: two mechanisms in a row on one engine, with adjustment and
// synthesis between them, equal the stage functions driven by one Rng
// in the same order.
TEST(BatchEngineTest, SequentialEngineDrawsEveryStageFromOneStream) {
  Dataset data = SmallData(1500);
  const std::vector<size_t> joint_attributes = {1, 3};
  RrClustersOptions clusters_options;
  clusters_options.keep_probability = 0.7;
  const int64_t n = 900;

  BatchPerturbationEngine engine = BatchPerturbationEngine::Sequential(11);
  auto joint = engine.RunJoint(data, joint_attributes, 4.0);
  ASSERT_TRUE(joint.ok());
  auto clusters = engine.RunClusters(data, clusters_options);
  ASSERT_TRUE(clusters.ok());
  auto adjusted = engine.RunAdjustment(GroupsFromClusters(clusters.value()),
                                       data.num_rows());
  ASSERT_TRUE(adjusted.ok());
  auto clusters_synthetic = engine.SynthesizeClusters(clusters.value(), n);
  ASSERT_TRUE(clusters_synthetic.ok());
  auto independent = engine.RunIndependent(data, {0.6});
  ASSERT_TRUE(independent.ok());
  auto independent_synthetic =
      engine.SynthesizeIndependent(independent.value(), n);
  ASSERT_TRUE(independent_synthetic.ok());

  Rng rng(11);
  auto joint_ref = RunRrJoint(data, joint_attributes, 4.0, rng);
  ASSERT_TRUE(joint_ref.ok());
  auto clusters_ref = RunRrClusters(data, clusters_options, rng);
  ASSERT_TRUE(clusters_ref.ok());
  auto adjusted_ref = RunRrAdjustment(
      GroupsFromClusters(clusters_ref.value()), data.num_rows());
  ASSERT_TRUE(adjusted_ref.ok());
  auto clusters_synthetic_ref =
      SynthesizeFromClusters(clusters_ref.value(), n, rng);
  ASSERT_TRUE(clusters_synthetic_ref.ok());
  auto independent_ref = RunRrIndependent(data, {0.6}, rng);
  ASSERT_TRUE(independent_ref.ok());
  auto independent_synthetic_ref =
      SynthesizeFromIndependent(independent_ref.value(), n, rng);
  ASSERT_TRUE(independent_synthetic_ref.ok());

  EXPECT_EQ(joint.value().randomized_codes, joint_ref.value().randomized_codes);
  EXPECT_EQ(joint.value().estimated, joint_ref.value().estimated);

  ASSERT_EQ(clusters.value().clusters, clusters_ref.value().clusters);
  EXPECT_TRUE(clusters.value().dependences ==
              clusters_ref.value().dependences);
  ExpectSameDataset(clusters.value().randomized,
                    clusters_ref.value().randomized);
  for (size_t c = 0; c < clusters.value().cluster_results.size(); ++c) {
    EXPECT_EQ(clusters.value().cluster_results[c].estimated,
              clusters_ref.value().cluster_results[c].estimated);
  }
  EXPECT_EQ(adjusted.value().weights, adjusted_ref.value().weights);
  EXPECT_EQ(adjusted.value().iterations, adjusted_ref.value().iterations);
  ExpectSameDataset(clusters_synthetic.value(),
                    clusters_synthetic_ref.value());

  ExpectSameDataset(independent.value().randomized,
                    independent_ref.value().randomized);
  EXPECT_EQ(independent.value().estimated, independent_ref.value().estimated);
  ExpectSameDataset(independent_synthetic.value(),
                    independent_synthetic_ref.value());
}

}  // namespace
}  // namespace mdrr
