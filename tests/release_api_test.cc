// Golden equivalence and round-trip tests for the declarative release
// API: for every mechanism, the façade's output is bit-identical to the
// corresponding direct stage-function / BatchPerturbationEngine
// composition at the same seed, under both execution policies; specs
// serialize losslessly; the artifacts summary prints every double
// exactly; the budget cap and estimator builders behave.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/adjustment.h"
#include "mdrr/core/batch_engine.h"
#include "mdrr/core/pram.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/core/synthetic.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/release/planner.h"
#include "mdrr/release/serialization.h"
#include "mdrr/rng/rng.h"
#include "spec_fixtures.h"

namespace mdrr {
namespace {

namespace release = ::mdrr::release;

constexpr uint64_t kSeed = 11;
constexpr size_t kRecords = 2500;
constexpr size_t kShard = 512;  // Small enough for real sharding at 2500.

Dataset TestData() { return SynthesizeAdult(kRecords, /*seed=*/9); }

void ExpectSameData(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    EXPECT_EQ(a.column(j), b.column(j)) << "column " << j;
  }
}

void ExpectSameMatrix(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "entry (" << i << "," << j << ")";
    }
  }
}

release::ReleaseSpec BaseSpec(release::MechanismKind kind,
                              release::PolicyKind policy) {
  release::ReleaseSpec spec;
  spec.mechanism.kind = kind;
  spec.execution.kind = policy;
  spec.execution.seed = kSeed;
  spec.execution.num_threads = 4;
  spec.execution.shard_size = kShard;
  return spec;
}

release::ReleaseArtifacts MustRun(const release::ReleaseSpec& spec,
                                  const Dataset& data) {
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto artifacts = plan.value().Run();
  EXPECT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  return std::move(artifacts).value();
}

AdjustmentOptions DefaultAdjustment() {
  AdjustmentOptions options;  // max_iterations 100, tolerance 1e-9.
  return options;
}

// --- Independent: façade == RunRrIndependent / engine.RunIndependent. ---

TEST(ReleaseApiGolden, IndependentSequential) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kIndependent,
                                       release::PolicyKind::kSequential);
  spec.budget.keep_probability = 0.6;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  // The direct composition: one Rng threaded through the stages in
  // order (mechanism, then synthesis; adjustment draws no randomness).
  Rng rng(kSeed);
  auto direct = RunRrIndependent(data, RrIndependentOptions{0.6}, rng);
  ASSERT_TRUE(direct.ok());
  auto adjusted = RunRrAdjustment(GroupsFromIndependent(*direct),
                                  data.num_rows(), DefaultAdjustment());
  ASSERT_TRUE(adjusted.ok());
  auto synthetic = SynthesizeFromIndependent(
      *direct, static_cast<int64_t>(data.num_rows()), rng);
  ASSERT_TRUE(synthetic.ok());

  ExpectSameData(facade.randomized, direct.value().randomized);
  EXPECT_EQ(facade.marginal_estimates, direct.value().estimated);
  EXPECT_EQ(facade.independent->lambda, direct.value().lambda);
  EXPECT_EQ(facade.independent->raw_estimated, direct.value().raw_estimated);
  EXPECT_EQ(facade.release_epsilon, direct.value().total_epsilon);
  EXPECT_EQ(facade.adjustment->weights, adjusted.value().weights);
  EXPECT_EQ(facade.adjustment->iterations, adjusted.value().iterations);
  ExpectSameData(*facade.synthetic, synthetic.value());
}

TEST(ReleaseApiGolden, IndependentSharded) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kIndependent,
                                       release::PolicyKind::kSharded);
  spec.budget.keep_probability = 0.6;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  BatchPerturbationOptions engine_options;
  engine_options.seed = kSeed;
  engine_options.num_threads = 4;
  engine_options.shard_size = kShard;
  BatchPerturbationEngine engine(engine_options);
  auto direct = engine.RunIndependent(data, RrIndependentOptions{0.6});
  ASSERT_TRUE(direct.ok());
  auto adjusted = engine.RunAdjustment(GroupsFromIndependent(*direct),
                                       data.num_rows(), DefaultAdjustment());
  ASSERT_TRUE(adjusted.ok());
  auto synthetic = engine.SynthesizeIndependent(
      *direct, static_cast<int64_t>(data.num_rows()));
  ASSERT_TRUE(synthetic.ok());

  ExpectSameData(facade.randomized, direct.value().randomized);
  EXPECT_EQ(facade.marginal_estimates, direct.value().estimated);
  EXPECT_EQ(facade.adjustment->weights, adjusted.value().weights);
  ExpectSameData(*facade.synthetic, synthetic.value());
}

// --- Joint: façade == RunRrJoint / engine.RunJoint. ---

TEST(ReleaseApiGolden, JointSequential) {
  Dataset data = TestData();
  const std::vector<size_t> attrs = {kAdultMaritalStatus,
                                     kAdultRelationship, kAdultSex};
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kJoint,
                                       release::PolicyKind::kSequential);
  spec.budget.keep_probability = 0.7;
  spec.mechanism.joint_attributes = attrs;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  Rng rng(kSeed);
  double budget = ClusterEpsilonBudget(data, attrs, 0.7);
  auto direct = RunRrJoint(data, attrs, budget, rng);
  ASSERT_TRUE(direct.ok());

  EXPECT_EQ(facade.joint->randomized_codes, direct.value().randomized_codes);
  EXPECT_EQ(facade.joint->estimated, direct.value().estimated);
  EXPECT_EQ(facade.release_epsilon, direct.value().epsilon);
  // The façade's released columns are the decode of the direct codes.
  ASSERT_EQ(facade.randomized.num_attributes(), attrs.size());
  for (size_t position = 0; position < attrs.size(); ++position) {
    for (size_t row = 0; row < data.num_rows(); ++row) {
      ASSERT_EQ(facade.randomized.at(row, position),
                direct.value().domain.DecodeAt(
                    direct.value().randomized_codes[row], position));
    }
  }
}

TEST(ReleaseApiGolden, JointSharded) {
  Dataset data = TestData();
  const std::vector<size_t> attrs = {kAdultEducation, kAdultSex};
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kJoint,
                                       release::PolicyKind::kSharded);
  spec.budget.keep_probability = 0.7;
  spec.mechanism.joint_attributes = attrs;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  BatchPerturbationOptions engine_options;
  engine_options.seed = kSeed;
  engine_options.num_threads = 4;
  engine_options.shard_size = kShard;
  BatchPerturbationEngine engine(engine_options);
  auto direct =
      engine.RunJoint(data, attrs, ClusterEpsilonBudget(data, attrs, 0.7));
  ASSERT_TRUE(direct.ok());

  EXPECT_EQ(facade.joint->randomized_codes, direct.value().randomized_codes);
  EXPECT_EQ(facade.joint->estimated, direct.value().estimated);
  EXPECT_EQ(facade.release_epsilon, direct.value().epsilon);
}

// --- Clusters: façade == RunRrClusters / engine.RunClusters. ---

RrClustersOptions ClustersOptions() {
  RrClustersOptions options;
  options.keep_probability = 0.7;
  options.clustering = ClusteringOptions{50.0, 0.1};
  options.dependence_source = DependenceSource::kRandomizedResponse;
  options.dependence_keep_probability = 0.7;
  return options;
}

void ExpectSameClustersResult(const release::ReleaseArtifacts& facade,
                              const RrClustersResult& direct) {
  EXPECT_EQ(facade.clustering, direct.clusters);
  ExpectSameData(facade.randomized, direct.randomized);
  ExpectSameMatrix(facade.dependences, direct.dependences);
  EXPECT_EQ(facade.release_epsilon, direct.release_epsilon);
  EXPECT_EQ(facade.dependence_epsilon, direct.dependence_epsilon);
  ASSERT_EQ(facade.clusters->cluster_results.size(),
            direct.cluster_results.size());
  for (size_t c = 0; c < direct.cluster_results.size(); ++c) {
    EXPECT_EQ(facade.clusters->cluster_results[c].randomized_codes,
              direct.cluster_results[c].randomized_codes);
    EXPECT_EQ(facade.clusters->cluster_results[c].estimated,
              direct.cluster_results[c].estimated);
  }
}

TEST(ReleaseApiGolden, ClustersSequential) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kClusters,
                                       release::PolicyKind::kSequential);
  spec.budget.keep_probability = 0.7;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  Rng rng(kSeed);
  auto direct = RunRrClusters(data, ClustersOptions(), rng);
  ASSERT_TRUE(direct.ok());
  auto adjusted = RunRrAdjustment(GroupsFromClusters(*direct),
                                  data.num_rows(), DefaultAdjustment());
  ASSERT_TRUE(adjusted.ok());
  auto synthetic = SynthesizeFromClusters(
      *direct, static_cast<int64_t>(data.num_rows()), rng);
  ASSERT_TRUE(synthetic.ok());

  ExpectSameClustersResult(facade, direct.value());
  EXPECT_EQ(facade.adjustment->weights, adjusted.value().weights);
  ExpectSameData(*facade.synthetic, synthetic.value());
}

TEST(ReleaseApiGolden, ClustersSharded) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kClusters,
                                       release::PolicyKind::kSharded);
  spec.budget.keep_probability = 0.7;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  BatchPerturbationOptions engine_options;
  engine_options.seed = kSeed;
  engine_options.num_threads = 4;
  engine_options.shard_size = kShard;
  BatchPerturbationEngine engine(engine_options);
  auto direct = engine.RunClusters(data, ClustersOptions());
  ASSERT_TRUE(direct.ok());
  auto adjusted = engine.RunAdjustment(GroupsFromClusters(*direct),
                                       data.num_rows(), DefaultAdjustment());
  ASSERT_TRUE(adjusted.ok());
  auto synthetic = engine.SynthesizeClusters(
      *direct, static_cast<int64_t>(data.num_rows()));
  ASSERT_TRUE(synthetic.ok());

  ExpectSameClustersResult(facade, direct.value());
  EXPECT_EQ(facade.adjustment->weights, adjusted.value().weights);
  ExpectSameData(*facade.synthetic, synthetic.value());
}

// --- PRAM: façade == ApplyPram under either policy. ---

TEST(ReleaseApiGolden, PramBothPolicies) {
  Dataset data = TestData();
  Rng rng(kSeed);
  auto direct = ApplyPram(data, 0.8, rng);
  ASSERT_TRUE(direct.ok());

  for (release::PolicyKind policy :
       {release::PolicyKind::kSequential, release::PolicyKind::kSharded}) {
    release::ReleaseSpec spec =
        BaseSpec(release::MechanismKind::kPram, policy);
    spec.budget.keep_probability = 0.8;
    release::ReleaseArtifacts facade = MustRun(spec, data);
    ExpectSameData(facade.randomized, direct.value().randomized);
    EXPECT_EQ(facade.marginal_estimates, direct.value().estimated);
  }
}

// --- One policy, many thread counts: artifacts are invariant. ---

TEST(ReleaseApiGolden, ShardedThreadSweep) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kClusters,
                                       release::PolicyKind::kSharded);
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;

  spec.execution.num_threads = 1;
  release::ReleaseArtifacts reference = MustRun(spec, data);
  for (size_t threads : {2u, 4u, 8u}) {
    spec.execution.num_threads = threads;
    release::ReleaseArtifacts artifacts = MustRun(spec, data);
    ExpectSameData(artifacts.randomized, reference.randomized);
    EXPECT_EQ(artifacts.marginal_estimates, reference.marginal_estimates);
    EXPECT_EQ(artifacts.adjustment->weights, reference.adjustment->weights);
    ExpectSameData(*artifacts.synthetic, *reference.synthetic);
  }
}

// --- Spec serialization round-trips. ---

TEST(ReleaseSpecSerialization, DefaultSpecRoundTrips) {
  release::ReleaseSpec spec;
  auto parsed =
      release::ParseReleaseSpec(release::PrintReleaseSpec(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
}

TEST(ReleaseSpecSerialization, FullyPopulatedSpecRoundTrips) {
  release::ReleaseSpec spec;
  spec.dataset.source = release::DatasetSpec::Source::kCsvFile;
  spec.dataset.csv_path = "/tmp/data.csv";
  spec.dataset.csv_has_header = false;
  spec.dataset.synthetic_records = 777;
  spec.dataset.synthetic_seed = 123456789;
  spec.budget.keep_probability = 0.55;
  spec.budget.dependence_keep_probability = 0.91;
  spec.budget.max_total_epsilon = 12.75;
  spec.mechanism.kind = release::MechanismKind::kJoint;
  spec.mechanism.joint_attributes = {4, 6, 7};
  spec.mechanism.clustering = ClusteringOptions{123.0, 0.25};
  spec.mechanism.dependence_source = DependenceSource::kPairwiseRr;
  spec.mechanism.use_paper_epsilon_formula = true;
  spec.adjustment.enabled = true;
  spec.adjustment.max_iterations = 17;
  spec.adjustment.tolerance = 1e-7;
  spec.adjustment.groups = {{0}, {3}};
  spec.synthetic.enabled = true;
  spec.synthetic.records = 4096;
  spec.evaluation.utility_report = true;
  spec.evaluation.sigmas = {0.2, 0.4};
  spec.evaluation.queries_per_sigma = 9;
  spec.evaluation.seed = 99;
  spec.execution.kind = release::PolicyKind::kSharded;
  spec.execution.seed = 31337;
  spec.execution.num_threads = 6;
  spec.execution.shard_size = 4096;
  spec.execution.rng = RngKind::kPhilox;
  spec.output.randomized_csv = "/tmp/y.csv";
  spec.output.synthetic_csv = "/tmp/s.csv";
  spec.output.artifacts_path = "/tmp/a.txt";

  std::string text = release::PrintReleaseSpec(spec);
  auto parsed = release::ParseReleaseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
  // Printing the parse reproduces the text exactly.
  EXPECT_EQ(release::PrintReleaseSpec(parsed.value()), text);
}

// Byte-exact goldens of the printer: key order, print-if rules and
// number formatting are part of the spec file format.
TEST(ReleaseSpecSerialization, DefaultSpecPrintsGolden) {
  const std::string golden =
      "mdrr-release-spec v1\n"
      "dataset.source provided\n"
      "dataset.csv_has_header 1\n"
      "dataset.synthetic_records 32561\n"
      "dataset.synthetic_seed 42\n"
      "budget.keep_probability 0.69999999999999996\n"
      "budget.dependence_keep_probability 0.69999999999999996\n"
      "budget.max_total_epsilon inf\n"
      "mechanism.kind clusters\n"
      "mechanism.joint_attributes\n"
      "mechanism.clustering.max_combinations 50\n"
      "mechanism.clustering.min_dependence 0.10000000000000001\n"
      "mechanism.dependence_source rr\n"
      "mechanism.use_paper_epsilon_formula 0\n"
      "mechanism.geometric_epsilon 1\n"
      "adjustment.enabled 0\n"
      "adjustment.max_iterations 100\n"
      "adjustment.tolerance 1.0000000000000001e-09\n"
      "synthetic.enabled 0\n"
      "synthetic.records 0\n"
      "evaluation.utility_report 0\n"
      "evaluation.sigmas 0.10000000000000001 0.29999999999999999 0.5 "
      "0.69999999999999996 0.90000000000000002\n"
      "evaluation.queries_per_sigma 25\n"
      "evaluation.seed 1\n"
      "streaming.enabled 0\n"
      "streaming.window_kind tumbling\n"
      "streaming.window_size 0\n"
      "streaming.window_stride 0\n"
      "streaming.window_epsilon 0\n"
      "streaming.max_windows 0\n"
      "execution.policy sequential\n"
      "execution.seed 1\n"
      "execution.num_threads 0\n"
      "execution.shard_size 65536\n"
      "execution.rng mt19937\n";
  EXPECT_EQ(release::PrintReleaseSpec(release::ReleaseSpec{}), golden);
}

TEST(ReleaseSpecSerialization, FullyPrintedSpecPrintsGolden) {
  const std::string golden =
      "mdrr-release-spec v1\n"
      "dataset.source csv\n"
      "dataset.csv_path /data/adult census.csv\n"
      "dataset.csv_has_header 0\n"
      "dataset.synthetic_records 777\n"
      "dataset.synthetic_seed 123456789\n"
      "budget.keep_probability 0.55000000000000004\n"
      "budget.dependence_keep_probability 0.91000000000000003\n"
      "budget.max_total_epsilon 12.75\n"
      "mechanism.kind geometric-ordinal\n"
      "mechanism.joint_attributes 4 6 7\n"
      "mechanism.clustering.max_combinations 123\n"
      "mechanism.clustering.min_dependence 0.25\n"
      "mechanism.dependence_source pairwise\n"
      "mechanism.use_paper_epsilon_formula 1\n"
      "mechanism.geometric_epsilon 0.80000000000000004\n"
      "frequency_oracle.backend olh\n"
      "frequency_oracle.epsilon 1.5\n"
      "adjustment.enabled 1\n"
      "adjustment.max_iterations -3\n"
      "adjustment.tolerance 9.9999999999999995e-08\n"
      "adjustment.group 0\n"
      "adjustment.group 3 1\n"
      "synthetic.enabled 1\n"
      "synthetic.records -5\n"
      "evaluation.utility_report 1\n"
      "evaluation.sigmas 0.20000000000000001 0.40000000000000002\n"
      "evaluation.queries_per_sigma -9\n"
      "evaluation.seed 99\n"
      "streaming.enabled 1\n"
      "streaming.window_kind sliding\n"
      "streaming.window_size 400\n"
      "streaming.window_stride 200\n"
      "streaming.window_epsilon 2.5\n"
      "streaming.max_windows 12\n"
      "execution.policy distributed\n"
      "execution.seed 31337\n"
      "execution.num_threads 6\n"
      "execution.shard_size 4096\n"
      "execution.rng philox\n"
      "execution.num_workers 3\n"
      "execution.listen_port 7117\n"
      "execution.worker_deadline_ms -250\n"
      "output.randomized_csv /out/y.csv\n"
      "output.synthetic_csv /out/s.csv\n"
      "output.artifacts /out/a.txt\n";
  const release::ReleaseSpec spec = FullyPrintedSpec();
  EXPECT_EQ(release::PrintReleaseSpec(spec), golden);
  auto parsed = release::ParseReleaseSpec(golden);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
}

TEST(ReleaseSpecSerialization, SignedFieldsRoundTripEvenWhenInvalid) {
  // A spec that validation would reject must still round-trip, so the
  // rejection can happen after a re-read too.
  release::ReleaseSpec spec;
  spec.synthetic.records = -5;
  spec.adjustment.max_iterations = -1;
  auto parsed = release::ParseReleaseSpec(release::PrintReleaseSpec(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
}

TEST(ReleaseSpecSerialization, CommentsAndUnknownKeys) {
  release::ReleaseSpec spec;
  std::string text = release::PrintReleaseSpec(spec);
  auto with_comment =
      release::ParseReleaseSpec(text + "\n# trailing comment\n\n");
  ASSERT_TRUE(with_comment.ok());
  EXPECT_TRUE(with_comment.value() == spec);
  EXPECT_FALSE(release::ParseReleaseSpec(text + "no.such.key 1\n").ok());
  EXPECT_FALSE(release::ParseReleaseSpec("not a spec at all").ok());

  // A repeated key is rejected, naming the key, instead of the last
  // value silently winning. adjustment.group is the one repeatable key.
  auto repeated =
      release::ParseReleaseSpec(text + "budget.keep_probability 0.2\n");
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(repeated.status().message().find("budget.keep_probability"),
            std::string::npos)
      << repeated.status().ToString();
  auto groups = release::ParseReleaseSpec(
      text + "adjustment.group 0\nadjustment.group 1 2\n");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  EXPECT_EQ(groups.value().adjustment.groups,
            (std::vector<std::vector<size_t>>{{0}, {1, 2}}));
}

// Each integer key parses over exactly its field's range: no wrap-around
// of signed fields, and the whole unsigned 64-bit range for seeds.
TEST(ReleaseSpecSerialization, IntegerKeysHonourTheirTypeRange) {
  release::ReleaseSpec spec = FullyPrintedSpec();
  spec.execution.seed = 18446744073709551615ULL;  // 2^64 - 1
  spec.dataset.synthetic_seed = 9223372036854775808ULL;  // 2^63
  spec.evaluation.seed = 9223372036854775808ULL;
  const std::string text = release::PrintReleaseSpec(spec);
  auto parsed = release::ParseReleaseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
  EXPECT_EQ(release::PrintReleaseSpec(parsed.value()), text);

  const std::string base = release::PrintReleaseSpec(release::ReleaseSpec{});
  auto with = [&base](const std::string& from, const std::string& to) {
    std::string edited = base;
    edited.replace(edited.find(from), from.size(), to);
    return release::ParseReleaseSpec(edited);
  };
  auto max_int = with("adjustment.max_iterations 100",
                      "adjustment.max_iterations 2147483647");
  ASSERT_TRUE(max_int.ok()) << max_int.status().ToString();
  EXPECT_EQ(max_int.value().adjustment.max_iterations, 2147483647);
  auto min_int = with("adjustment.max_iterations 100",
                      "adjustment.max_iterations -2147483648");
  ASSERT_TRUE(min_int.ok()) << min_int.status().ToString();
  EXPECT_EQ(min_int.value().adjustment.max_iterations, -2147483647 - 1);

  const std::vector<std::pair<std::string, std::string>> out_of_range = {
      {"adjustment.max_iterations 100", "adjustment.max_iterations 4294967297"},
      {"evaluation.queries_per_sigma 25",
       "evaluation.queries_per_sigma -4294967290"},
      {"execution.seed 1", "execution.seed 18446744073709551616"},
      {"execution.seed 1", "execution.seed -1"},
      {"execution.num_threads 0", "execution.num_threads -1"}};
  for (const auto& [from, to] : out_of_range) {
    auto rejected = with(from, to);
    ASSERT_FALSE(rejected.ok()) << to;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << to;
  }
}

// --- The artifacts summary prints every section, each double exactly. ---

// Bit patterns, so -0.0 vs 0.0 and NaN payloads count as differences.
std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

// Reads tokens [skip, end) back through std::strtod; each token must be
// consumed whole.
std::vector<double> ReadDoubles(const std::vector<std::string>& tokens,
                                size_t skip = 0) {
  std::vector<double> values;
  for (size_t t = skip; t < tokens.size(); ++t) {
    char* end = nullptr;
    values.push_back(std::strtod(tokens[t].c_str(), &end));
    EXPECT_EQ(*end, '\0') << tokens[t];
  }
  return values;
}

TEST(ReleaseArtifactsSerialization, SummaryPrintsEverySectionBitExact) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kClusters,
                                       release::PolicyKind::kSequential);
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  spec.evaluation.utility_report = true;
  spec.evaluation.queries_per_sigma = 4;
  spec.evaluation.sigmas = {0.3};
  release::ReleaseArtifacts artifacts = MustRun(spec, data);
  ASSERT_FALSE(artifacts.clustering.empty());
  ASSERT_GT(artifacts.dependences.rows(), 0u);
  ASSERT_TRUE(artifacts.adjustment.has_value());
  ASSERT_TRUE(artifacts.utility.has_value());
  ASSERT_FALSE(artifacts.timings.empty());

  // Each line's value tokens, grouped by key in print order.
  std::istringstream text(release::PrintReleaseArtifacts(artifacts));
  std::string line;
  ASSERT_TRUE(std::getline(text, line));
  EXPECT_EQ(line, "mdrr-release-artifacts v1");
  std::map<std::string, std::vector<std::vector<std::string>>> lines;
  while (std::getline(text, line)) {
    std::istringstream tokens(line);
    std::string key;
    tokens >> key;
    std::vector<std::string>& values = lines[key].emplace_back();
    for (std::string token; tokens >> token;) values.push_back(token);
  }
  const std::set<std::string> expected_keys = {
      "records", "release_epsilon", "dependence_epsilon", "marginals",
      "marginal", "clusters", "cluster", "dependences", "deprow",
      "adjustment", "weights", "utility.marginal_tv",
      "utility.median_relative_error", "utility.max_dependence_shift",
      "timing"};
  std::set<std::string> keys;
  for (const auto& [key, unused] : lines) keys.insert(key);
  ASSERT_EQ(keys, expected_keys);

  // A key printed once with exactly these doubles.
  auto expect_doubles = [&lines](const std::string& key,
                                 const std::vector<double>& values) {
    ASSERT_EQ(lines[key].size(), 1u) << key;
    EXPECT_EQ(Bits(ReadDoubles(lines[key][0])), Bits(values)) << key;
  };
  expect_doubles("records", {artifacts.num_records});
  expect_doubles("release_epsilon", {artifacts.release_epsilon});
  expect_doubles("dependence_epsilon", {artifacts.dependence_epsilon});
  expect_doubles("utility.marginal_tv", artifacts.utility->marginal_tv);
  expect_doubles("utility.median_relative_error",
                 artifacts.utility->median_relative_error);
  expect_doubles("utility.max_dependence_shift",
                 {artifacts.utility->max_dependence_shift});
  expect_doubles("weights", artifacts.adjustment->weights);

  // "marginal <len> <p...>", one line per attribute.
  const size_t m = artifacts.marginal_estimates.size();
  EXPECT_EQ(lines["marginals"], (std::vector<std::vector<std::string>>{
                                    {std::to_string(m)}}));
  ASSERT_EQ(lines["marginal"].size(), m);
  for (size_t i = 0; i < m; ++i) {
    const std::vector<double>& marginal = artifacts.marginal_estimates[i];
    EXPECT_EQ(lines["marginal"][i][0], std::to_string(marginal.size()));
    EXPECT_EQ(Bits(ReadDoubles(lines["marginal"][i], 1)), Bits(marginal));
  }

  const size_t k = artifacts.clustering.size();
  EXPECT_EQ(lines["clusters"], (std::vector<std::vector<std::string>>{
                                   {std::to_string(k)}}));
  ASSERT_EQ(lines["cluster"].size(), k);
  for (size_t c = 0; c < k; ++c) {
    std::vector<std::string> attributes;
    for (size_t j : artifacts.clustering[c]) {
      attributes.push_back(std::to_string(j));
    }
    EXPECT_EQ(lines["cluster"][c], attributes);
  }

  const linalg::Matrix& dependences = artifacts.dependences;
  EXPECT_EQ(lines["dependences"],
            (std::vector<std::vector<std::string>>{
                {std::to_string(dependences.rows())}}));
  ASSERT_EQ(lines["deprow"].size(), dependences.rows());
  for (size_t i = 0; i < dependences.rows(); ++i) {
    std::vector<double> row(dependences.cols());
    for (size_t j = 0; j < row.size(); ++j) row[j] = dependences(i, j);
    EXPECT_EQ(Bits(ReadDoubles(lines["deprow"][i])), Bits(row));
  }

  // "adjustment <iterations> <converged 0|1> <max_marginal_gap>".
  ASSERT_EQ(lines["adjustment"].size(), 1u);
  const std::vector<std::string>& adjustment = lines["adjustment"][0];
  ASSERT_EQ(adjustment.size(), 3u);
  EXPECT_EQ(adjustment[0], std::to_string(artifacts.adjustment->iterations));
  EXPECT_EQ(adjustment[1], artifacts.adjustment->converged ? "1" : "0");
  EXPECT_EQ(Bits(ReadDoubles(adjustment, 2)),
            Bits({artifacts.adjustment->max_marginal_gap}));

  // "timing <stage> <seconds>", one line per stage in run order.
  ASSERT_EQ(lines["timing"].size(), artifacts.timings.size());
  for (size_t t = 0; t < artifacts.timings.size(); ++t) {
    ASSERT_EQ(lines["timing"][t].size(), 2u);
    EXPECT_EQ(lines["timing"][t][0], artifacts.timings[t].stage);
    EXPECT_EQ(Bits(ReadDoubles(lines["timing"][t], 1)),
              Bits({artifacts.timings[t].seconds}));
  }
}

// --- Budget cap and estimator builder. ---

TEST(ReleaseApi, BudgetCapFailsClosed) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kIndependent,
                                       release::PolicyKind::kSequential);
  spec.budget.max_total_epsilon = 0.5;  // Far below the realized cost.
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  ASSERT_TRUE(plan.ok());
  auto artifacts = plan.value().Run();
  ASSERT_FALSE(artifacts.ok());
  EXPECT_EQ(artifacts.status().code(), StatusCode::kFailedPrecondition);
}

// mechanism.use_paper_epsilon_formula is read by the joint and clusters
// mechanisms only. Elsewhere, streaming included, it would be accepted
// and change nothing, so validation refuses it by name.
TEST(ReleaseApi, PaperEpsilonFormulaOnlyWhereAMechanismReadsIt) {
  for (release::MechanismKind kind :
       {release::MechanismKind::kIndependent, release::MechanismKind::kPram,
        release::MechanismKind::kGeometricOrdinal}) {
    release::ReleaseSpec spec =
        BaseSpec(kind, release::PolicyKind::kSequential);
    spec.mechanism.use_paper_epsilon_formula = true;
    Status status = release::ValidateReleaseSpec(spec, 0);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << release::ToString(kind);
    EXPECT_NE(status.message().find("mechanism.use_paper_epsilon_formula"),
              std::string::npos)
        << status.ToString();
    if (kind != release::MechanismKind::kPram) {
      spec.streaming.enabled = true;
      spec.streaming.window_size = 100;
      EXPECT_EQ(release::ValidateReleaseSpec(spec, 0).code(),
                StatusCode::kInvalidArgument);
      spec.mechanism.use_paper_epsilon_formula = false;
      EXPECT_TRUE(release::ValidateReleaseSpec(spec, 0).ok());
    }
  }
  release::ReleaseSpec joint = BaseSpec(release::MechanismKind::kJoint,
                                        release::PolicyKind::kSequential);
  joint.mechanism.joint_attributes = {0, 1};
  joint.mechanism.use_paper_epsilon_formula = true;
  EXPECT_TRUE(release::ValidateReleaseSpec(joint, 0).ok());

  // Under clusters the key moves the released epsilon.
  Dataset data = TestData();
  release::ReleaseSpec clusters = BaseSpec(release::MechanismKind::kClusters,
                                           release::PolicyKind::kSequential);
  const double derived = MustRun(clusters, data).release_epsilon;
  clusters.mechanism.use_paper_epsilon_formula = true;
  EXPECT_NE(MustRun(clusters, data).release_epsilon, derived);
}

TEST(ReleaseApi, MakeJointEstimateAnswersQueries) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kClusters,
                                       release::PolicyKind::kSequential);
  spec.adjustment.enabled = true;
  release::ReleaseArtifacts artifacts = MustRun(spec, data);
  auto estimate = release::MakeJointEstimate(artifacts);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  CountQuery everything{{kAdultSex}, {{0}, {1}}};
  EXPECT_NEAR(estimate.value()->EstimateCount(everything),
              static_cast<double>(data.num_rows()),
              0.02 * static_cast<double>(data.num_rows()));
}

TEST(ReleaseApi, RepeatedRunsAreIdentical) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kIndependent,
                                       release::PolicyKind::kSequential);
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  ASSERT_TRUE(plan.ok());
  auto first = plan.value().Run();
  auto second = plan.value().Run();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameData(first.value().randomized, second.value().randomized);
  EXPECT_EQ(first.value().marginal_estimates,
            second.value().marginal_estimates);
}

}  // namespace
}  // namespace mdrr
