// The frequency-oracle seam, end to end: the direct-encoding reference
// instance must reproduce the engine's RR transcript bit for bit under
// both RNG policies and any thread count, the spec's frequency_oracle
// section must round-trip and validate, and the OUE/OLH backends must
// run through the release facade with deterministic, thread-invariant
// closed-form marginals.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/batch_engine.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/core/joint_estimate.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/release/artifacts.h"
#include "mdrr/release/planner.h"
#include "mdrr/release/serialization.h"
#include "mdrr/release/spec.h"

namespace mdrr {
namespace {

using release::FrequencyOracleSpec;
using release::ParseReleaseSpec;
using release::PrintReleaseSpec;
using release::ReleasePlanner;
using release::ReleaseSpec;
using release::ValidateReleaseSpec;

Dataset SmallData(size_t n = 3000) { return SynthesizeAdult(n, 2020); }

BatchPerturbationOptions EngineOptions(size_t threads, RngKind kind) {
  BatchPerturbationOptions options;
  options.seed = 7;
  options.num_threads = threads;
  options.shard_size = 256;
  options.rng = kind;
  return options;
}

// The tentpole's bit-identity pin at the engine layer: routing a column
// through RunOracle with the direct-encoding oracle over the SAME
// design matrix reproduces RunIndependent's randomized codes exactly,
// under both RNG policies.
TEST(OracleSeamTest, DirectOracleMatchesIndependentColumnsBitwise) {
  const Dataset data = SmallData();
  const RrIndependentOptions design;  // KeepUniform(0.7), the default.

  for (RngKind kind : {RngKind::kMt19937, RngKind::kPhilox}) {
    BatchPerturbationEngine engine(EngineOptions(3, kind));
    auto independent = engine.RunIndependent(data, design);
    ASSERT_TRUE(independent.ok());

    for (size_t j = 0; j < data.num_attributes(); ++j) {
      const size_t r = data.attribute(j).cardinality();
      const DirectEncodingOracle oracle(MakeIndependentMatrix(r, design));
      OracleColumnResult column =
          engine.RunOracle(oracle, data.column(j), j);
      EXPECT_EQ(column.codes,
                independent.value().randomized.column(j))
          << "rng=" << (kind == RngKind::kPhilox ? "philox" : "mt19937")
          << " attribute " << j;
      ASSERT_EQ(column.lambda.size(), independent.value().lambda[j].size());
      for (size_t v = 0; v < column.lambda.size(); ++v) {
        EXPECT_DOUBLE_EQ(column.lambda[v],
                         independent.value().lambda[j][v]);
      }
    }
  }
}

// RunOracle is bit-identical for any thread count at fixed (seed,
// shard_size) for every backend, under both RNG policies.
TEST(OracleSeamTest, RunOracleIsThreadInvariant) {
  const Dataset data = SmallData();
  const std::vector<uint32_t>& column = data.column(1);
  const size_t r = data.attribute(1).cardinality();

  for (OracleBackend backend :
       {OracleBackend::kDirect, OracleBackend::kOptimizedUnary,
        OracleBackend::kLocalHashing}) {
    auto oracle = MakeFrequencyOracle(backend, r, 1.5);
    ASSERT_TRUE(oracle.ok());
    for (RngKind kind : {RngKind::kMt19937, RngKind::kPhilox}) {
      BatchPerturbationEngine one(EngineOptions(1, kind));
      BatchPerturbationEngine four(EngineOptions(4, kind));
      OracleColumnResult a = one.RunOracle(*oracle.value(), column, 1);
      OracleColumnResult b = four.RunOracle(*oracle.value(), column, 1);
      EXPECT_EQ(a.codes, b.codes) << ToString(backend);
      EXPECT_EQ(a.counts, b.counts) << ToString(backend);
    }
  }
}

TEST(OracleSpecTest, DefaultSectionPrintsNothing) {
  ReleaseSpec spec;
  EXPECT_TRUE(spec.frequency_oracle.is_default());
  const std::string text = PrintReleaseSpec(spec);
  EXPECT_EQ(text.find("frequency_oracle"), std::string::npos);
}

TEST(OracleSpecTest, NonDefaultSectionRoundTrips) {
  ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kIndependent;
  spec.frequency_oracle.backend = OracleBackend::kLocalHashing;
  spec.frequency_oracle.epsilon = 2.5;
  auto parsed = ParseReleaseSpec(PrintReleaseSpec(spec));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value() == spec);
  EXPECT_EQ(parsed.value().frequency_oracle.backend,
            OracleBackend::kLocalHashing);
  EXPECT_EQ(parsed.value().frequency_oracle.epsilon, 2.5);
}

TEST(OracleSpecTest, ValidationPinsContradictions) {
  ReleaseSpec base;
  base.mechanism.kind = release::MechanismKind::kIndependent;
  base.frequency_oracle.backend = OracleBackend::kOptimizedUnary;
  ASSERT_TRUE(ValidateReleaseSpec(base, 0).ok());

  {  // Oracle backends apply per attribute only.
    ReleaseSpec spec = base;
    spec.mechanism.kind = release::MechanismKind::kClusters;
    EXPECT_FALSE(ValidateReleaseSpec(spec, 0).ok());
  }
  {  // Streaming ingest stays on the default RR path.
    ReleaseSpec spec = base;
    spec.streaming.enabled = true;
    spec.streaming.window_size = 100;
    EXPECT_FALSE(ValidateReleaseSpec(spec, 0).ok());
  }
  {  // The distributed wire protocol serves RR shard kernels only.
    ReleaseSpec spec = base;
    spec.execution.kind = release::PolicyKind::kDistributed;
    spec.execution.num_workers = 1;
    EXPECT_FALSE(ValidateReleaseSpec(spec, 0).ok());
  }
  {  // No microdata means no adjustment groups.
    ReleaseSpec spec = base;
    spec.adjustment.enabled = true;
    EXPECT_FALSE(ValidateReleaseSpec(spec, 0).ok());
  }
  {  // ... and no synthetic release.
    ReleaseSpec spec = base;
    spec.synthetic.enabled = true;
    EXPECT_FALSE(ValidateReleaseSpec(spec, 0).ok());
  }
  {  // ... and no randomized CSV output.
    ReleaseSpec spec = base;
    spec.output.randomized_csv = "y.csv";
    EXPECT_FALSE(ValidateReleaseSpec(spec, 0).ok());
  }
  {  // Negative epsilon never validates.
    ReleaseSpec spec = base;
    spec.frequency_oracle.epsilon = -1.0;
    EXPECT_FALSE(ValidateReleaseSpec(spec, 0).ok());
  }
}

// The direct backend at an explicit epsilon releases microdata and ships
// an RR matrix, so every stage that reads them validates; only streaming
// (per-report RR codes at the design's own budget) stays closed.
TEST(OracleSpecTest, DirectBackendAtExplicitEpsilonValidatesMicrodataStages) {
  ReleaseSpec base;
  base.mechanism.kind = release::MechanismKind::kIndependent;
  base.frequency_oracle.backend = OracleBackend::kDirect;
  base.frequency_oracle.epsilon = 1.0;
  ASSERT_FALSE(base.frequency_oracle.is_default());

  ReleaseSpec spec = base;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  spec.output.randomized_csv = "y.csv";
  EXPECT_TRUE(ValidateReleaseSpec(spec, 0).ok());
  spec.execution.kind = release::PolicyKind::kDistributed;
  spec.execution.num_workers = 2;
  EXPECT_TRUE(ValidateReleaseSpec(spec, 0).ok());
  spec.mechanism.kind = release::MechanismKind::kGeometricOrdinal;
  EXPECT_TRUE(ValidateReleaseSpec(spec, 0).ok());

  spec = base;
  spec.streaming.enabled = true;
  spec.streaming.window_size = 100;
  EXPECT_FALSE(ValidateReleaseSpec(spec, 0).ok());
}

ReleaseSpec OracleReleaseSpec(OracleBackend backend, double epsilon) {
  ReleaseSpec spec;
  spec.dataset.source = release::DatasetSpec::Source::kSyntheticAdult;
  spec.dataset.synthetic_records = 2000;
  spec.mechanism.kind = release::MechanismKind::kIndependent;
  spec.frequency_oracle.backend = backend;
  spec.frequency_oracle.epsilon = epsilon;
  return spec;
}

// OUE and OLH run end to end through the release facade: closed-form
// marginals on the full schema, exact per-attribute epsilon accounting,
// and no microdata.
TEST(OracleReleaseTest, FrequencyOnlyBackendsReleaseClosedFormMarginals) {
  for (OracleBackend backend :
       {OracleBackend::kOptimizedUnary, OracleBackend::kLocalHashing}) {
    auto plan = ReleasePlanner::Plan(OracleReleaseSpec(backend, 1.0));
    ASSERT_TRUE(plan.ok()) << ToString(backend);
    auto artifacts = plan.value().Run();
    ASSERT_TRUE(artifacts.ok()) << ToString(backend);

    const Dataset& data = plan.value().dataset();
    ASSERT_EQ(artifacts.value().marginal_estimates.size(),
              data.num_attributes());
    for (size_t j = 0; j < data.num_attributes(); ++j) {
      const std::vector<double>& marginal =
          artifacts.value().marginal_estimates[j];
      ASSERT_EQ(marginal.size(), data.attribute(j).cardinality());
      double total = 0.0;
      for (double x : marginal) {
        EXPECT_GE(x, 0.0);
        total += x;
      }
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
    // One epsilon per attribute, composed sequentially.
    EXPECT_DOUBLE_EQ(artifacts.value().release_epsilon,
                     static_cast<double>(data.num_attributes()));
    // Frequency-only backends publish no microdata.
    EXPECT_EQ(artifacts.value().randomized.num_attributes(), 0u);
  }
}

// The direct backend with an explicit epsilon still releases microdata
// through the oracle mechanism.
TEST(OracleReleaseTest, DirectBackendWithExplicitEpsilonKeepsMicrodata) {
  ReleaseSpec spec = OracleReleaseSpec(OracleBackend::kDirect, 2.0);
  ASSERT_FALSE(spec.frequency_oracle.is_default());
  auto plan = ReleasePlanner::Plan(spec);
  ASSERT_TRUE(plan.ok());
  auto artifacts = plan.value().Run();
  ASSERT_TRUE(artifacts.ok());
  const Dataset& data = plan.value().dataset();
  EXPECT_EQ(artifacts.value().randomized.num_rows(), data.num_rows());
  EXPECT_EQ(artifacts.value().randomized.num_attributes(),
            data.num_attributes());
  EXPECT_DOUBLE_EQ(artifacts.value().release_epsilon,
                   2.0 * static_cast<double>(data.num_attributes()));
}

// Sharded oracle releases are bit-identical for any thread count, and
// deterministic run to run, under both RNG policies.
TEST(OracleReleaseTest, ShardedReleaseIsThreadInvariant) {
  for (const char* rng : {"mt19937", "philox"}) {
    ReleaseSpec spec = OracleReleaseSpec(OracleBackend::kLocalHashing, 1.5);
    spec.execution.kind = release::PolicyKind::kSharded;
    spec.execution.shard_size = 128;
    auto parsed_rng = release::RngKindFromString(rng);
    ASSERT_TRUE(parsed_rng.ok());
    spec.execution.rng = parsed_rng.value();

    std::vector<std::vector<std::vector<double>>> runs;
    for (size_t threads : {1, 4}) {
      spec.execution.num_threads = threads;
      auto plan = ReleasePlanner::Plan(spec);
      ASSERT_TRUE(plan.ok());
      auto artifacts = plan.value().Run();
      ASSERT_TRUE(artifacts.ok());
      runs.push_back(artifacts.value().marginal_estimates);
    }
    EXPECT_EQ(runs[0], runs[1]) << rng;
  }
}

// Every oracle release carries the per-attribute payload, so each one
// answers count queries through the independent-marginals product.
TEST(OracleReleaseTest, JointEstimateAnswersQueriesForEveryBackend) {
  for (OracleBackend backend :
       {OracleBackend::kDirect, OracleBackend::kSymmetricUnary,
        OracleBackend::kOptimizedUnary, OracleBackend::kLocalHashing}) {
    auto plan = ReleasePlanner::Plan(OracleReleaseSpec(backend, 1.0));
    ASSERT_TRUE(plan.ok()) << ToString(backend);
    auto artifacts = plan.value().Run();
    ASSERT_TRUE(artifacts.ok()) << ToString(backend);

    auto estimate = release::MakeJointEstimate(artifacts.value());
    ASSERT_TRUE(estimate.ok())
        << ToString(backend) << ": " << estimate.status().ToString();
    const std::vector<std::vector<double>>& marginals =
        artifacts.value().marginal_estimates;
    const double n = static_cast<double>(plan.value().dataset().num_rows());
    const CountQuery pair{{0, 1}, {{0, 0}}};
    EXPECT_NEAR(estimate.value()->EstimateCount(pair),
                n * marginals[0][0] * marginals[1][0], 1e-9 * n)
        << ToString(backend);
  }
}

// A single-category attribute has nothing to protect: every backend
// publishes its only value at epsilon 0, under both policies, while the
// other attributes keep the backend (and its microdata rule).
TEST(OracleReleaseTest, SingleCategoryAttributeIsPublishedAtEpsilonZero) {
  const std::vector<uint32_t> varied = {0, 1, 2, 1, 0, 2, 2, 1, 0, 0};
  const Dataset data(
      {Attribute{"constant", AttributeType::kNominal, {"only"}},
       Attribute{"varied", AttributeType::kNominal, {"a", "b", "c"}}},
      {std::vector<uint32_t>(varied.size(), 0), varied});

  for (OracleBackend backend :
       {OracleBackend::kDirect, OracleBackend::kSymmetricUnary,
        OracleBackend::kOptimizedUnary, OracleBackend::kLocalHashing}) {
    for (release::PolicyKind policy :
         {release::PolicyKind::kSequential, release::PolicyKind::kSharded}) {
      ReleaseSpec spec;
      spec.dataset.source = release::DatasetSpec::Source::kProvided;
      spec.mechanism.kind = release::MechanismKind::kIndependent;
      spec.frequency_oracle.backend = backend;
      spec.frequency_oracle.epsilon = 1.0;
      spec.execution.kind = policy;
      auto plan = ReleasePlanner::Plan(spec, &data);
      ASSERT_TRUE(plan.ok()) << ToString(backend);
      auto artifacts = plan.value().Run();
      ASSERT_TRUE(artifacts.ok())
          << ToString(backend) << ": " << artifacts.status().ToString();

      const release::ReleaseArtifacts& a = artifacts.value();
      EXPECT_EQ(a.marginal_estimates[0], std::vector<double>{1.0})
          << ToString(backend);
      ASSERT_TRUE(a.independent.has_value());
      EXPECT_EQ(a.independent->epsilons[0], 0.0) << ToString(backend);
      EXPECT_DOUBLE_EQ(a.release_epsilon, 1.0) << ToString(backend);
      EXPECT_EQ(a.randomized.num_attributes(),
                backend == OracleBackend::kDirect ? 2u : 0u)
          << ToString(backend);
    }
  }
}

}  // namespace
}  // namespace mdrr
