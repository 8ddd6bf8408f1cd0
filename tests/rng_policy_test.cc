// The RNG-policy contract: philox runs are bit-identical at any thread
// count AND any shard grain (batch engine, streaming ingest); mt19937
// stays the default; both policies' committed transcripts are pinned by
// content hash; the fused perturb+count paths agree with a post-hoc
// histogram; spec validation and serialization round-trip the new
// execution.rng field.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/batch_engine.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/perturber.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/protocol/session.h"
#include "mdrr/protocol/stream_ingest.h"
#include "mdrr/release/serialization.h"
#include "mdrr/release/spec.h"
#include "mdrr/rng/rng.h"
#include "mdrr/stats/frequency.h"

namespace mdrr {
namespace {

namespace release = mdrr::release;
namespace protocol = mdrr::protocol;

// A small four-attribute population, deterministic in `seed`, with enough
// dependence between attributes 0 and 1 that the clusters mechanism has
// something to find.
Dataset MakeSurvey(size_t rows, uint64_t seed) {
  std::vector<Attribute> schema(4);
  schema[0].name = "a";
  schema[0].categories = {"a0", "a1", "a2"};
  schema[1].name = "b";
  schema[1].categories = {"b0", "b1", "b2"};
  schema[2].name = "c";
  schema[2].categories = {"c0", "c1"};
  schema[3].name = "d";
  schema[3].categories = {"d0", "d1", "d2", "d3"};
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> columns(4);
  for (size_t row = 0; row < rows; ++row) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(3));
    columns[0].push_back(a);
    // b copies a most of the time: a strong pairwise dependence.
    columns[1].push_back(rng.Bernoulli(0.8)
                             ? a
                             : static_cast<uint32_t>(rng.UniformInt(3)));
    columns[2].push_back(static_cast<uint32_t>(rng.Bernoulli(0.3) ? 1 : 0));
    columns[3].push_back(static_cast<uint32_t>(rng.UniformInt(4)));
  }
  return Dataset(std::move(schema), std::move(columns));
}

BatchPerturbationEngine MakeEngine(RngKind rng, size_t num_threads,
                                   size_t shard_size, uint64_t seed = 42) {
  BatchPerturbationOptions options;
  options.seed = seed;
  options.num_threads = num_threads;
  options.shard_size = shard_size;
  options.rng = rng;
  return BatchPerturbationEngine(options);
}

void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    EXPECT_EQ(a.column(j), b.column(j)) << "column " << j;
  }
}

// FNV-1a over raw bytes: the pinned-transcript fingerprint.
uint64_t HashBytes(uint64_t h, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t HashU32s(uint64_t h, const std::vector<uint32_t>& values) {
  return HashBytes(h, values.data(), values.size() * sizeof(uint32_t));
}

uint64_t HashDoubles(uint64_t h, const std::vector<double>& values) {
  return HashBytes(h, values.data(), values.size() * sizeof(double));
}

uint64_t HashDataset(uint64_t h, const Dataset& data) {
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    h = HashU32s(h, data.column(j));
  }
  return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

// ---------------------------------------------------------------------------
// Philox batch releases: bit-identical across threads AND shard grains.
// ---------------------------------------------------------------------------

TEST(RngPolicyTest, PhiloxIndependentInvariantAcrossThreadsAndShards) {
  Dataset data = MakeSurvey(3000, 7);
  RrIndependentOptions options{0.7};
  auto baseline =
      MakeEngine(RngKind::kPhilox, 1, 64).RunIndependent(data, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    for (size_t shard : {64u, 1024u, 65536u}) {
      auto run = MakeEngine(RngKind::kPhilox, threads, shard)
                     .RunIndependent(data, options);
      ASSERT_TRUE(run.ok()) << "threads=" << threads << " shard=" << shard;
      ExpectSameDataset(baseline.value().randomized, run.value().randomized);
      EXPECT_EQ(baseline.value().lambda, run.value().lambda);
      EXPECT_EQ(baseline.value().estimated, run.value().estimated);
    }
  }
}

TEST(RngPolicyTest, PhiloxJointInvariantAcrossThreadsAndShards) {
  Dataset data = MakeSurvey(2000, 9);
  std::vector<size_t> attributes = {0, 1};
  auto baseline =
      MakeEngine(RngKind::kPhilox, 1, 128).RunJoint(data, attributes, 4.0);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (size_t threads : {2u, 4u, 8u}) {
    for (size_t shard : {64u, 1024u, 65536u}) {
      auto run = MakeEngine(RngKind::kPhilox, threads, shard)
                     .RunJoint(data, attributes, 4.0);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(baseline.value().randomized_codes,
                run.value().randomized_codes);
      EXPECT_EQ(baseline.value().estimated, run.value().estimated);
    }
  }
}

TEST(RngPolicyTest, PhiloxClustersInvariantAcrossThreadsAndShards) {
  Dataset data = MakeSurvey(2500, 11);
  RrClustersOptions options;
  auto baseline =
      MakeEngine(RngKind::kPhilox, 1, 256).RunClusters(data, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (size_t threads : {2u, 4u, 8u}) {
    for (size_t shard : {128u, 1024u, 65536u}) {
      auto run =
          MakeEngine(RngKind::kPhilox, threads, shard).RunClusters(data, options);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(baseline.value().clusters, run.value().clusters);
      ExpectSameDataset(baseline.value().randomized, run.value().randomized);
      EXPECT_EQ(baseline.value().release_epsilon,
                run.value().release_epsilon);
    }
  }
}

TEST(RngPolicyTest, PhiloxDiffersFromMtButAgreesStatistically) {
  Dataset data = MakeSurvey(20000, 13);
  RrIndependentOptions options{0.7};
  auto mt = MakeEngine(RngKind::kMt19937, 2, 1024).RunIndependent(data,
                                                                  options);
  auto philox =
      MakeEngine(RngKind::kPhilox, 2, 1024).RunIndependent(data, options);
  ASSERT_TRUE(mt.ok());
  ASSERT_TRUE(philox.ok());
  // Different transcripts...
  EXPECT_NE(mt.value().randomized.column(0),
            philox.value().randomized.column(0));
  // ...same design, so the estimates agree statistically.
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    ASSERT_EQ(mt.value().estimated[j].size(),
              philox.value().estimated[j].size());
    for (size_t v = 0; v < mt.value().estimated[j].size(); ++v) {
      EXPECT_NEAR(mt.value().estimated[j][v], philox.value().estimated[j][v],
                  0.05);
    }
  }
}

// ---------------------------------------------------------------------------
// mt19937 golden transcripts: the default policy's committed randomness,
// pinned by content hash. These fail if ANY change perturbs the mt19937
// draw sequence -- which is exactly the event that would invalidate every
// transcript committed before the counter backend existed.
// ---------------------------------------------------------------------------

TEST(RngPolicyTest, MtBatchTranscriptIsPinned) {
  Dataset data = MakeSurvey(1000, 3);
  RrIndependentOptions options{0.7};
  auto run =
      MakeEngine(RngKind::kMt19937, 2, 256, 5).RunIndependent(data, options);
  ASSERT_TRUE(run.ok());
  uint64_t h = HashDataset(kFnvOffset, run.value().randomized);
  for (const std::vector<double>& lambda : run.value().lambda) {
    h = HashDoubles(h, lambda);
  }
  EXPECT_EQ(h, 0x2eb7fcd45336a5acull);
}

TEST(RngPolicyTest, MtSequentialTranscriptIsPinned) {
  Dataset data = MakeSurvey(1000, 3);
  Rng rng(5);
  auto run = RunRrIndependent(data, RrIndependentOptions{0.7}, rng);
  ASSERT_TRUE(run.ok());
  uint64_t h = HashDataset(kFnvOffset, run.value().randomized);
  for (const std::vector<double>& lambda : run.value().lambda) {
    h = HashDoubles(h, lambda);
  }
  EXPECT_EQ(h, 0x0e2b5b9803622480ull);
}

TEST(RngPolicyTest, MtSessionTranscriptIsPinned) {
  Dataset data = MakeSurvey(600, 29);
  protocol::SessionOptions options;
  options.seed = 17;
  options.num_threads = 2;
  options.shard_size = 128;
  auto run = protocol::RunDistributedSession(data, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  uint64_t h = HashDataset(kFnvOffset, run.value().randomized);
  for (const std::vector<double>& joint : run.value().cluster_joints) {
    h = HashDoubles(h, joint);
  }
  EXPECT_EQ(h, 0x371472c90e44c1d6ull);
}

TEST(RngPolicyTest, MtStreamingTranscriptIsPinned) {
  Dataset data = MakeSurvey(700, 31);
  release::ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kIndependent;
  spec.budget.keep_probability = 0.6;
  spec.streaming.enabled = true;
  spec.streaming.window_size = 500;
  spec.execution.seed = 21;
  protocol::StreamingReplayOptions options;
  options.total_reports = 1500;
  auto run = protocol::RunStreamingReplay(spec, data, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().windows.size(), 3u);
  uint64_t h = kFnvOffset;
  for (const release::StreamWindow& window : run.value().windows) {
    for (const std::vector<double>& estimate :
         window.artifacts.marginal_estimates) {
      h = HashDoubles(h, estimate);
    }
  }
  EXPECT_EQ(h, 0xd8676064d682ab91ull);
}

// ---------------------------------------------------------------------------
// Philox golden transcripts. Thread/shard invariance only says a philox
// run agrees with itself; these pins catch a change to the draws
// themselves (stream numbering, element addressing, the counter kernel).
// ---------------------------------------------------------------------------

TEST(RngPolicyTest, PhiloxBatchTranscriptIsPinned) {
  Dataset data = MakeSurvey(1000, 3);
  RrIndependentOptions options{0.7};
  auto run =
      MakeEngine(RngKind::kPhilox, 2, 256, 5).RunIndependent(data, options);
  ASSERT_TRUE(run.ok());
  uint64_t h = HashDataset(kFnvOffset, run.value().randomized);
  for (const std::vector<double>& lambda : run.value().lambda) {
    h = HashDoubles(h, lambda);
  }
  EXPECT_EQ(h, 0x90d50b939e80286full);
}

TEST(RngPolicyTest, PhiloxStreamingTranscriptIsPinned) {
  Dataset data = MakeSurvey(700, 31);
  release::ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kIndependent;
  spec.budget.keep_probability = 0.6;
  spec.streaming.enabled = true;
  spec.streaming.window_size = 500;
  spec.execution.seed = 21;
  spec.execution.rng = RngKind::kPhilox;
  protocol::StreamingReplayOptions options;
  options.total_reports = 1500;
  auto run = protocol::RunStreamingReplay(spec, data, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().windows.size(), 3u);
  uint64_t h = kFnvOffset;
  for (const release::StreamWindow& window : run.value().windows) {
    for (const std::vector<double>& estimate :
         window.artifacts.marginal_estimates) {
      h = HashDoubles(h, estimate);
    }
  }
  EXPECT_EQ(h, 0x91bd97351e9c08f7ull);
}

// ---------------------------------------------------------------------------
// Fused perturb+count: the single-pass counts equal a post-hoc histogram
// of the published column, and the λ̂ arithmetic is unchanged.
// ---------------------------------------------------------------------------

TEST(RngPolicyTest, SequentialFusedLambdaMatchesPosthocHistogram) {
  Dataset data = MakeSurvey(1500, 37);
  Rng rng(11);
  ColumnPerturber perturber = SequentialPerturber(rng);
  RrMatrix matrix = RrMatrix::KeepUniform(3, 0.7);
  StatusOr<PerturbedColumn> perturbed = perturber(matrix, data.column(0), 0);
  ASSERT_TRUE(perturbed.ok()) << perturbed.status().ToString();
  const PerturbedColumn& column = perturbed.value();
  ASSERT_EQ(column.codes.size(), data.num_rows());

  // Bit-identical to the unfused EmpiricalDistribution arithmetic.
  EXPECT_EQ(column.lambda, EmpiricalDistribution(column.codes, matrix.size()));

  // And the counts it encodes match a post-hoc integer histogram.
  std::vector<int64_t> histogram(matrix.size(), 0);
  for (uint32_t code : column.codes) ++histogram[code];
  const double inv_n = 1.0 / static_cast<double>(column.codes.size());
  for (size_t v = 0; v < histogram.size(); ++v) {
    EXPECT_EQ(column.lambda[v], static_cast<double>(histogram[v]) * inv_n);
  }
}

TEST(RngPolicyTest, ShardedFusedLambdaMatchesPosthocHistogram) {
  Dataset data = MakeSurvey(2000, 41);
  for (RngKind kind : {RngKind::kMt19937, RngKind::kPhilox}) {
    auto run = MakeEngine(kind, 4, 128).RunIndependent(
        data, RrIndependentOptions{0.7});
    ASSERT_TRUE(run.ok());
    for (size_t j = 0; j < data.num_attributes(); ++j) {
      const std::vector<uint32_t>& column = run.value().randomized.column(j);
      std::vector<int64_t> histogram(data.attribute(j).cardinality(), 0);
      for (uint32_t code : column) ++histogram[code];
      EXPECT_EQ(run.value().lambda[j],
                stats::FrequencyTable(std::move(histogram)).Proportions());
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming ingest under philox.
// ---------------------------------------------------------------------------

TEST(RngPolicyTest, PhiloxStreamingInvariantAcrossIngestThreads) {
  Dataset data = MakeSurvey(700, 53);
  release::ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kIndependent;
  spec.budget.keep_probability = 0.6;
  spec.streaming.enabled = true;
  spec.streaming.window_size = 400;
  spec.execution.seed = 21;
  spec.execution.rng = RngKind::kPhilox;

  protocol::StreamingReplayOptions base;
  base.total_reports = 1600;
  auto baseline = protocol::RunStreamingReplay(spec, data, base);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline.value().windows.size(), 4u);

  for (size_t threads : {2u, 4u, 8u}) {
    protocol::StreamingReplayOptions options;
    options.total_reports = 1600;
    options.num_ingest_threads = threads;
    options.collector.num_shards = threads;
    auto run = protocol::RunStreamingReplay(spec, data, options);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run.value().windows.size(), baseline.value().windows.size());
    for (size_t w = 0; w < run.value().windows.size(); ++w) {
      EXPECT_EQ(run.value().windows[w].artifacts.marginal_estimates,
                baseline.value().windows[w].artifacts.marginal_estimates);
    }
  }

  // Per-report regeneration: report s = philox stream s, attribute j =
  // element j, independent of arrival interleaving.
  RrIndependentOptions design;
  design.keep_probability = spec.budget.keep_probability;
  std::vector<RrMatrix> matrices;
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    matrices.push_back(
        MakeIndependentMatrix(data.attribute(j).cardinality(), design));
  }
  const release::StreamWindow& window = baseline.value().windows[0];
  std::vector<std::vector<uint64_t>> tallies;
  for (size_t j = 0; j < matrices.size(); ++j) {
    tallies.emplace_back(data.attribute(j).cardinality(), 0);
  }
  for (uint64_t s = window.begin_sequence; s < window.end_sequence; ++s) {
    const size_t row = static_cast<size_t>(s % data.num_rows());
    for (size_t j = 0; j < matrices.size(); ++j) {
      ++tallies[j][matrices[j].RandomizeCounter(data.at(row, j),
                                                spec.execution.seed, s, j)];
    }
  }
  for (size_t j = 0; j < matrices.size(); ++j) {
    std::vector<double> lambda(tallies[j].size());
    for (size_t v = 0; v < lambda.size(); ++v) {
      lambda[v] = static_cast<double>(tallies[j][v]) /
                  static_cast<double>(window.num_reports);
    }
    auto expected = EstimateProjectedDistribution(matrices[j], lambda);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(window.artifacts.marginal_estimates[j], expected.value());
  }
}

// ---------------------------------------------------------------------------
// Spec surface: validation and serialization.
// ---------------------------------------------------------------------------

TEST(RngPolicyTest, ValidationRejectsPhiloxOnSequentialBatchPlans) {
  release::ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kIndependent;
  spec.execution.rng = RngKind::kPhilox;
  // Sequential batch plan: rejected.
  auto status = release::ValidateReleaseSpec(spec, 0);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Sharded: fine.
  spec.execution.kind = release::PolicyKind::kSharded;
  EXPECT_TRUE(release::ValidateReleaseSpec(spec, 0).ok());
  // Sequential + streaming: fine (the collector ignores execution.kind).
  spec.execution.kind = release::PolicyKind::kSequential;
  spec.streaming.enabled = true;
  spec.streaming.window_size = 100;
  EXPECT_TRUE(release::ValidateReleaseSpec(spec, 0).ok());
}

TEST(RngPolicyTest, ExecutionRngRoundTripsThroughText) {
  release::ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kIndependent;
  spec.execution.kind = release::PolicyKind::kSharded;
  spec.execution.rng = RngKind::kPhilox;
  const std::string text = release::PrintReleaseSpec(spec);
  EXPECT_NE(text.find("execution.rng philox"), std::string::npos);
  auto parsed = release::ParseReleaseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
  EXPECT_TRUE(parsed.value().execution.rng == RngKind::kPhilox);
}

TEST(RngPolicyTest, SpecsWithoutRngKeyParseAsMt19937) {
  // A pre-philox spec file has no execution.rng line; it must keep
  // parsing, with the mt19937 default.
  release::ReleaseSpec modern;
  std::string text = release::PrintReleaseSpec(modern);
  const size_t at = text.find("execution.rng");
  ASSERT_NE(at, std::string::npos);
  const size_t line_end = text.find('\n', at);
  text.erase(at, line_end - at + 1);
  auto parsed = release::ParseReleaseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().execution.rng == RngKind::kMt19937);
  EXPECT_TRUE(parsed.value() == modern);
}

}  // namespace
}  // namespace mdrr
