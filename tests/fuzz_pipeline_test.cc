// Randomized full-pipeline sweep: random schemas and datasets pushed
// through every protocol stage, asserting structural invariants only (no
// crashes, proper distributions, weight normalization, partition
// correctness). Catches interaction bugs that targeted unit tests miss.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/common/string_util.h"
#include "mdrr/core/adjustment.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/core/synthetic.h"
#include "mdrr/eval/experiment.h"
#include "mdrr/eval/utility_report.h"
#include "mdrr/protocol/session.h"
#include "mdrr/release/planner.h"
#include "mdrr/release/serialization.h"
#include "mdrr/rng/rng.h"
#include "spec_fixtures.h"

namespace mdrr {
namespace {

// Builds a random schema (2-6 attributes, cardinalities 2-12, random
// types) and a random dataset with some injected pairwise couplings.
Dataset RandomDataset(uint64_t seed) {
  Rng rng(seed);
  const size_t m = 2 + rng.UniformInt(5);
  const size_t n = 500 + rng.UniformInt(3000);
  std::vector<Attribute> schema(m);
  for (size_t j = 0; j < m; ++j) {
    size_t cardinality = 2 + rng.UniformInt(11);
    schema[j].name = "attr" + std::to_string(j);
    schema[j].type = rng.Bernoulli(0.5) ? AttributeType::kOrdinal
                                        : AttributeType::kNominal;
    for (size_t v = 0; v < cardinality; ++v) {
      schema[j].categories.push_back("v" + std::to_string(v));
    }
  }
  std::vector<std::vector<uint32_t>> columns(m);
  for (size_t i = 0; i < n; ++i) {
    uint32_t previous = 0;
    for (size_t j = 0; j < m; ++j) {
      size_t cardinality = schema[j].cardinality();
      uint32_t value;
      if (j > 0 && rng.Bernoulli(0.5)) {
        // Couple to the previous attribute.
        value = previous % static_cast<uint32_t>(cardinality);
      } else {
        value = static_cast<uint32_t>(rng.UniformInt(cardinality));
      }
      columns[j].push_back(value);
      previous = value;
    }
  }
  return Dataset(std::move(schema), std::move(columns));
}

void ExpectProperDistribution(const std::vector<double>& dist) {
  double total = 0.0;
  for (double v : dist) {
    EXPECT_GE(v, -1e-12);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

class FuzzPipeline : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzPipeline, FullStackInvariantsHold) {
  const uint64_t seed = GetParam();
  Dataset ds = RandomDataset(seed);
  Rng rng(seed ^ 0xabcdef);

  // Protocol 1 + adjustment.
  double p = 0.2 + 0.7 * Rng(seed).UniformDouble();
  auto independent = RunRrIndependent(ds, RrIndependentOptions{p}, rng);
  ASSERT_TRUE(independent.ok()) << independent.status().ToString();
  for (const auto& marginal : independent.value().estimated) {
    ExpectProperDistribution(marginal);
  }
  auto adjustment = RunRrAdjustment(GroupsFromIndependent(*independent),
                                    ds.num_rows());
  ASSERT_TRUE(adjustment.ok());
  double weight_total = 0.0;
  for (double w : adjustment.value().weights) {
    EXPECT_GE(w, 0.0);
    weight_total += w;
  }
  EXPECT_NEAR(weight_total, 1.0, 1e-9);

  // RR-Clusters end to end with in-protocol dependence assessment.
  RrClustersOptions cluster_options;
  cluster_options.keep_probability = p;
  cluster_options.clustering =
      ClusteringOptions{20.0 + Rng(seed + 1).UniformInt(200) * 1.0, 0.1};
  cluster_options.dependence_source =
      DependenceSource::kRandomizedResponse;
  auto clusters = RunRrClusters(ds, cluster_options, rng);
  ASSERT_TRUE(clusters.ok()) << clusters.status().ToString();
  std::vector<int> seen(ds.num_attributes(), 0);
  for (const auto& cluster : clusters.value().clusters) {
    for (size_t j : cluster) ++seen[j];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  for (const auto& joint : clusters.value().cluster_results) {
    ExpectProperDistribution(joint.estimated);
  }

  // Synthetic release + utility report round trip.
  Rng synth_rng(seed + 2);
  auto synthetic = SynthesizeFromClusters(
      *clusters, static_cast<int64_t>(ds.num_rows()), synth_rng);
  ASSERT_TRUE(synthetic.ok());
  eval::UtilityReportOptions report_options;
  report_options.queries_per_sigma = 4;
  report_options.sigmas = {0.3};
  auto report = eval::BuildUtilityReport(ds, synthetic.value(),
                                         report_options);
  ASSERT_TRUE(report.ok());
  for (double tv : report.value().marginal_tv) {
    EXPECT_GE(tv, 0.0);
    EXPECT_LE(tv, 1.0);
  }

  // Party-level session agrees structurally.
  protocol::SessionOptions session_options;
  session_options.keep_probability = p;
  session_options.clustering = cluster_options.clustering;
  session_options.seed = seed + 3;
  auto session = protocol::RunDistributedSession(ds, session_options);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value().messages_round1, ds.num_rows());
  for (const auto& joint : session.value().cluster_joints) {
    ExpectProperDistribution(joint);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Release-spec validator fuzzing: malformed and contradictory specs must
// come back as Status errors -- never crash, never run.
// ---------------------------------------------------------------------------

// Plans (and, when planning succeeds, runs) a spec against a small
// dataset and requires a non-OK status somewhere.
void ExpectSpecRejected(const release::ReleaseSpec& spec,
                        const Dataset& data) {
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  if (!plan.ok()) return;
  auto artifacts = plan.value().Run();
  EXPECT_FALSE(artifacts.ok())
      << "contradictory spec was accepted: "
      << release::PrintReleaseSpec(spec);
}

TEST(FuzzReleaseSpec, ContradictorySpecsAreRejected) {
  Dataset ds = RandomDataset(3);
  const size_t m = ds.num_attributes();
  std::vector<release::ReleaseSpec> bad;

  {  // Epsilon cap <= 0 (and NaN).
    release::ReleaseSpec spec;
    spec.budget.max_total_epsilon = 0.0;
    bad.push_back(spec);
    spec.budget.max_total_epsilon = -3.0;
    bad.push_back(spec);
    spec.budget.max_total_epsilon = std::nan("");
    bad.push_back(spec);
  }
  {  // Keep probabilities outside (0, 1].
    release::ReleaseSpec spec;
    spec.budget.keep_probability = 0.0;
    bad.push_back(spec);
    spec.budget.keep_probability = 1.5;
    bad.push_back(spec);
    spec.budget.keep_probability = 0.7;
    spec.budget.dependence_keep_probability = -0.2;
    bad.push_back(spec);
  }
  {  // Joint mechanism with an empty / duplicated / absent attribute set.
    release::ReleaseSpec spec;
    spec.mechanism.kind = release::MechanismKind::kJoint;
    bad.push_back(spec);  // Empty cluster set.
    spec.mechanism.joint_attributes = {0, 0};
    bad.push_back(spec);
    spec.mechanism.joint_attributes = {m + 5};
    bad.push_back(spec);
  }
  {  // Clustering knobs out of range; provided source without a matrix.
    release::ReleaseSpec spec;
    spec.mechanism.clustering.max_combinations = 0.0;
    bad.push_back(spec);
    spec.mechanism.clustering = ClusteringOptions{50.0, 2.0};
    bad.push_back(spec);
    spec.mechanism.clustering = ClusteringOptions{50.0, 0.1};
    spec.mechanism.dependence_source = DependenceSource::kProvided;
    bad.push_back(spec);
  }
  {  // The paper's epsilon formula under a mechanism that never reads it.
    release::ReleaseSpec spec;
    spec.mechanism.use_paper_epsilon_formula = true;
    spec.mechanism.kind = release::MechanismKind::kIndependent;
    bad.push_back(spec);
    spec.mechanism.kind = release::MechanismKind::kPram;
    bad.push_back(spec);
    spec.mechanism.kind = release::MechanismKind::kGeometricOrdinal;
    bad.push_back(spec);
  }
  {  // Adjustment groups referencing absent attributes, duplicates,
     // empty groups, non-singletons under independent, groups while
     // disabled, and nonsense iteration knobs.
    release::ReleaseSpec spec;
    spec.mechanism.kind = release::MechanismKind::kIndependent;
    spec.adjustment.enabled = true;
    spec.adjustment.groups = {{m + 1}};
    bad.push_back(spec);
    spec.adjustment.groups = {{0, 0}};
    bad.push_back(spec);
    spec.adjustment.groups = {{}};
    bad.push_back(spec);
    spec.adjustment.groups = {{0, 1}};  // Non-singleton for independent.
    bad.push_back(spec);
    spec.adjustment.groups.clear();
    spec.adjustment.max_iterations = 0;
    bad.push_back(spec);
    spec.adjustment.max_iterations = 100;
    spec.adjustment.tolerance = 0.0;
    bad.push_back(spec);
    spec.adjustment.tolerance = 1e-9;
    spec.adjustment.enabled = false;
    spec.adjustment.groups = {{0}};
    bad.push_back(spec);
  }
  {  // Adjustment / synthesis on mechanisms that cannot support them.
    release::ReleaseSpec spec;
    spec.mechanism.kind = release::MechanismKind::kJoint;
    spec.mechanism.joint_attributes = {0};
    spec.adjustment.enabled = true;
    bad.push_back(spec);
    spec.adjustment.enabled = false;
    spec.synthetic.enabled = true;
    bad.push_back(spec);
    spec.mechanism.kind = release::MechanismKind::kPram;
    bad.push_back(spec);
  }
  {  // A clusters adjustment group that cannot match any realized
     // cluster: Tv=1 forbids every merge, so clusters are singletons and
     // a two-attribute group necessarily spans clusters.
    release::ReleaseSpec spec;
    spec.mechanism.kind = release::MechanismKind::kClusters;
    spec.mechanism.dependence_source = DependenceSource::kOracle;
    spec.mechanism.clustering.max_combinations = 1.0;
    spec.adjustment.enabled = true;
    spec.adjustment.groups = {{0, 1}};
    bad.push_back(spec);
  }
  {  // Evaluation without synthetic output; bad sigmas; bad queries.
    release::ReleaseSpec spec;
    spec.evaluation.utility_report = true;
    bad.push_back(spec);
    spec.mechanism.kind = release::MechanismKind::kIndependent;
    spec.synthetic.enabled = true;
    spec.evaluation.sigmas = {0.0};
    bad.push_back(spec);
    spec.evaluation.sigmas = {0.3};
    spec.evaluation.queries_per_sigma = 0;
    bad.push_back(spec);
    spec.evaluation.utility_report = false;
    spec.synthetic.enabled = true;
    spec.synthetic.records = -5;
    bad.push_back(spec);
  }
  {  // Contradictory frequency_oracle sections: per-attribute backends
     // never combine with joint/clusters/pram mechanisms, streaming,
     // the distributed policy, adjustment, synthesis, microdata output,
     // or a malformed epsilon.
    release::ReleaseSpec spec;
    spec.mechanism.kind = release::MechanismKind::kIndependent;
    spec.frequency_oracle.backend = OracleBackend::kOptimizedUnary;
    spec.frequency_oracle.epsilon = -2.0;
    bad.push_back(spec);
    spec.frequency_oracle.epsilon = std::nan("");
    bad.push_back(spec);
    spec.frequency_oracle.epsilon = 1.0;
    spec.mechanism.kind = release::MechanismKind::kPram;
    bad.push_back(spec);
    spec.mechanism.kind = release::MechanismKind::kClusters;
    bad.push_back(spec);
    spec.mechanism.kind = release::MechanismKind::kJoint;
    spec.mechanism.joint_attributes = {0};
    bad.push_back(spec);
    spec.mechanism.joint_attributes.clear();
    spec.mechanism.kind = release::MechanismKind::kIndependent;
    spec.adjustment.enabled = true;
    bad.push_back(spec);
    spec.adjustment.enabled = false;
    spec.synthetic.enabled = true;
    bad.push_back(spec);
    spec.synthetic.enabled = false;
    spec.frequency_oracle.backend = OracleBackend::kLocalHashing;
    spec.output.randomized_csv = "/tmp/y.csv";  // No microdata to write.
    bad.push_back(spec);
    spec.output.randomized_csv.clear();
    spec.execution.kind = release::PolicyKind::kDistributed;
    spec.execution.num_workers = 1;
    bad.push_back(spec);
  }
  {  // Execution / dataset / output contradictions.
    release::ReleaseSpec spec;
    spec.execution.shard_size = 0;
    bad.push_back(spec);
    spec.execution.shard_size = 1 << 16;
    spec.dataset.source = release::DatasetSpec::Source::kCsvFile;
    bad.push_back(spec);  // Empty csv_path.
    spec.dataset.source = release::DatasetSpec::Source::kSyntheticAdult;
    spec.dataset.synthetic_records = 0;
    bad.push_back(spec);
    spec.dataset = release::DatasetSpec{};
    spec.output.synthetic_csv = "/tmp/x.csv";  // Synthetic disabled.
    bad.push_back(spec);
  }

  // Streaming contradictions (validator-level: the batch planner refuses
  // ALL streaming specs, so rejection through ExpectSpecRejected alone
  // would not prove the streaming rules fire; assert on the validator).
  std::vector<release::ReleaseSpec> bad_streaming;
  {
    release::ReleaseSpec spec;
    spec.mechanism.kind = release::MechanismKind::kIndependent;
    spec.streaming.enabled = true;
    bad_streaming.push_back(spec);  // No window size.
    spec.streaming.window_size = 100;
    spec.streaming.window_stride = 40;  // Tumbling stride != size.
    bad_streaming.push_back(spec);
    spec.streaming.window_kind = release::WindowKind::kSliding;
    spec.streaming.window_stride = 0;  // Sliding needs a stride...
    bad_streaming.push_back(spec);
    spec.streaming.window_stride = 100;  // ...strictly below the size...
    bad_streaming.push_back(spec);
    spec.streaming.window_stride = 30;  // ...that divides it.
    bad_streaming.push_back(spec);
    spec.streaming.window_stride = 50;
    spec.streaming.window_epsilon = -1.0;  // Negative charge.
    bad_streaming.push_back(spec);
    spec.streaming.window_epsilon = std::nan("");
    bad_streaming.push_back(spec);
    spec.streaming.window_epsilon = 0.0;
    spec.adjustment.enabled = true;  // Batch-only stage.
    bad_streaming.push_back(spec);
    spec.adjustment.enabled = false;
    spec.mechanism.kind = release::MechanismKind::kClusters;
    bad_streaming.push_back(spec);  // Streaming is per-attribute marginals only.
    spec = release::ReleaseSpec{};
    spec.streaming.max_windows = 3;  // Knobs without streaming.enabled.
    bad_streaming.push_back(spec);
    spec = release::ReleaseSpec{};
    spec.mechanism.kind = release::MechanismKind::kIndependent;
    spec.streaming.enabled = true;
    spec.streaming.window_size = 100;
    spec.mechanism.use_paper_epsilon_formula = true;  // Nothing reads it.
    bad_streaming.push_back(spec);
  }

  for (const release::ReleaseSpec& spec : bad) {
    ExpectSpecRejected(spec, ds);
  }
  for (const release::ReleaseSpec& spec : bad_streaming) {
    EXPECT_FALSE(release::ValidateReleaseSpec(spec, ds.num_attributes()).ok())
        << release::PrintReleaseSpec(spec);
  }

  // kProvided source without a dataset pointer.
  release::ReleaseSpec provided;
  EXPECT_FALSE(release::ReleasePlanner::Plan(provided, nullptr).ok());
}

// Random mutations of a printed spec: the parser and validator must
// return a status (any status) without crashing. The seed text carries a
// non-default frequency_oracle section so its keys and tokens are in the
// mutation alphabet.
TEST(FuzzReleaseSpec, MutatedSpecTextNeverCrashes) {
  release::ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kJoint;
  spec.mechanism.joint_attributes = {0, 1};
  spec.adjustment.groups = {{0}, {1, 2}};
  spec.adjustment.enabled = true;
  spec.frequency_oracle.backend = OracleBackend::kLocalHashing;
  spec.frequency_oracle.epsilon = 1.25;
  const std::string text = release::PrintReleaseSpec(spec);
  ASSERT_NE(text.find("frequency_oracle.backend olh"), std::string::npos);

  Rng rng(2026);
  const char garbage[] = "#\n \t-eXz0987.,;inf nan 1e999";
  for (int round = 0; round < 500; ++round) {
    std::string mutated = text;
    switch (rng.UniformInt(4)) {
      case 0: {  // Flip a byte.
        size_t at = rng.UniformInt(mutated.size());
        mutated[at] = garbage[rng.UniformInt(sizeof(garbage) - 1)];
        break;
      }
      case 1: {  // Delete a chunk.
        size_t at = rng.UniformInt(mutated.size());
        mutated.erase(at, 1 + rng.UniformInt(40));
        break;
      }
      case 2: {  // Duplicate a suffix (repeated keys are rejected).
        size_t at = rng.UniformInt(mutated.size());
        mutated += mutated.substr(at);
        break;
      }
      default: {  // Insert noise.
        size_t at = rng.UniformInt(mutated.size());
        mutated.insert(at, &garbage[rng.UniformInt(sizeof(garbage) - 1)]);
        break;
      }
    }
    auto parsed = release::ParseReleaseSpec(mutated);
    if (parsed.ok()) {
      // Whatever parsed must validate cleanly or fail with a status.
      release::ValidateReleaseSpec(parsed.value(), 8);
    }
  }
}

// Key-aware mutations: every line of a spec that prints all keys gets
// each wrong value in turn. The parser must answer with a status, and any
// text it accepts must print back to a fixed point.
TEST(FuzzReleaseSpec, WrongValuePerKeyIsParsedOrRejected) {
  const std::string text = release::PrintReleaseSpec(FullyPrintedSpec());
  const std::vector<std::string> lines = Split(text, '\n');
  const char* const wrong_values[] = {
      "",  "1 2", "x", "-1", "nan", "4294967297", "18446744073709551616"};
  size_t accepted = 0;
  size_t rejected = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const std::string key = lines[i].substr(0, lines[i].find(' '));
    for (const char* value : wrong_values) {
      std::string mutated;
      for (size_t j = 0; j < lines.size(); ++j) {
        if (j == i) {
          mutated += *value == '\0' ? key : key + " " + value;
        } else {
          mutated += lines[j];
        }
        mutated += '\n';
      }
      auto parsed = release::ParseReleaseSpec(mutated);
      if (!parsed.ok()) {
        ++rejected;
        EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
        continue;
      }
      ++accepted;
      const std::string printed = release::PrintReleaseSpec(parsed.value());
      auto reparsed = release::ParseReleaseSpec(printed);
      ASSERT_TRUE(reparsed.ok()) << key << " " << value << ": "
                                 << reparsed.status().ToString();
      EXPECT_EQ(release::PrintReleaseSpec(reparsed.value()), printed)
          << key << " " << value;
    }
  }
  // Both outcomes occur: e.g. "-1" fits the signed keys, "x" fits none
  // but the paths.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// Same for the streaming-snapshot parser: a corrupted resume file must
// come back as a status (or parse into something Resume rejects), never
// crash the collector.
TEST(FuzzReleaseSpec, MutatedSnapshotTextNeverCrashes) {
  const std::string text =
      "mdrr-streaming-snapshot v1\n"
      "next_sequence 1130\n"
      "next_window 4\n"
      "epsilon_spent 5.3\n"
      "window_epsilons 2.65 0 2.65 0\n"
      "cardinalities 3 2 4\n"
      "bucket 5 200 60 70 70 140 60 50 50 50 50\n"
      "bucket 6 130 40 45 45 91 39 33 33 32 32\n";
  ASSERT_TRUE(release::ParseStreamingSnapshot(text).ok());

  Rng rng(2028);
  const char garbage[] = "#\n \t-eXz0987.,;inf nan 1e999";
  for (int round = 0; round < 500; ++round) {
    std::string mutated = text;
    switch (rng.UniformInt(3)) {
      case 0: {
        size_t at = rng.UniformInt(mutated.size());
        mutated[at] = garbage[rng.UniformInt(sizeof(garbage) - 1)];
        break;
      }
      case 1: {
        size_t at = rng.UniformInt(mutated.size());
        mutated.erase(at, 1 + rng.UniformInt(40));
        break;
      }
      default: {
        size_t at = rng.UniformInt(mutated.size());
        mutated.insert(at, &garbage[rng.UniformInt(sizeof(garbage) - 1)]);
        break;
      }
    }
    auto parsed = release::ParseStreamingSnapshot(mutated);
    if (parsed.ok()) {
      // Whatever parsed must be either resumable or cleanly refused.
      release::ReleaseSpec spec;
      spec.mechanism.kind = release::MechanismKind::kIndependent;
      spec.streaming.enabled = true;
      spec.streaming.window_size = 400;
      spec.streaming.window_kind = release::WindowKind::kSliding;
      spec.streaming.window_stride = 200;
      release::StreamingCollector::Resume(
          spec, {3, 2, 4}, release::StreamingCollectorOptions{},
          parsed.value());
    }
  }
}

// Valid random specs through the whole façade: every combination of
// mechanism x policy x toggles that validates must also execute.
class FuzzReleasePlan : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzReleasePlan, ValidSpecsAlwaysExecute) {
  const uint64_t seed = GetParam();
  Dataset ds = RandomDataset(seed);
  Rng rng(seed ^ 0x5eedf00d);

  release::ReleaseSpec spec;
  const release::MechanismKind kinds[] = {
      release::MechanismKind::kIndependent, release::MechanismKind::kJoint,
      release::MechanismKind::kClusters, release::MechanismKind::kPram};
  spec.mechanism.kind = kinds[rng.UniformInt(4)];
  spec.budget.keep_probability = 0.3 + 0.6 * rng.UniformDouble();
  spec.budget.dependence_keep_probability =
      0.3 + 0.6 * rng.UniformDouble();
  if (spec.mechanism.kind == release::MechanismKind::kJoint) {
    // A random non-empty subset of up to 3 attributes (keeps the
    // product domain small).
    for (size_t j = 0; j < ds.num_attributes() &&
                       spec.mechanism.joint_attributes.size() < 3;
         ++j) {
      if (rng.Bernoulli(0.5)) spec.mechanism.joint_attributes.push_back(j);
    }
    if (spec.mechanism.joint_attributes.empty()) {
      spec.mechanism.joint_attributes.push_back(0);
    }
  }
  spec.mechanism.clustering =
      ClusteringOptions{20.0 + rng.UniformInt(200) * 1.0, 0.1};
  spec.mechanism.dependence_source =
      rng.Bernoulli(0.5) ? DependenceSource::kOracle
                         : DependenceSource::kRandomizedResponse;
  const bool adjustable =
      spec.mechanism.kind != release::MechanismKind::kJoint;
  const bool synthesizable =
      spec.mechanism.kind == release::MechanismKind::kIndependent ||
      spec.mechanism.kind == release::MechanismKind::kClusters;
  spec.adjustment.enabled = adjustable && rng.Bernoulli(0.5);
  spec.synthetic.enabled = synthesizable && rng.Bernoulli(0.5);
  if (rng.Bernoulli(0.5)) {
    spec.execution.kind = release::PolicyKind::kSharded;
    spec.execution.num_threads = 1 + rng.UniformInt(4);
    spec.execution.shard_size = 64 + rng.UniformInt(2000);
  }
  spec.execution.seed = seed;

  // A non-default frequency-oracle backend rides along when nothing it
  // forbids is enabled. Epsilon 0 inherits the design's per-attribute
  // budget, so the total spend matches the plain independent release.
  if (spec.mechanism.kind == release::MechanismKind::kIndependent &&
      !spec.adjustment.enabled && !spec.synthetic.enabled &&
      rng.Bernoulli(0.5)) {
    const OracleBackend backends[] = {OracleBackend::kSymmetricUnary,
                                      OracleBackend::kOptimizedUnary,
                                      OracleBackend::kLocalHashing};
    spec.frequency_oracle.backend = backends[rng.UniformInt(3)];
  }
  // `de` at an explicit epsilon releases microdata, so it also rides
  // along with adjustment and synthesis.
  if (spec.mechanism.kind == release::MechanismKind::kIndependent &&
      spec.frequency_oracle.is_default() && rng.Bernoulli(0.5)) {
    spec.frequency_oracle.epsilon = 0.5 + 2.0 * rng.UniformDouble();
  }

  auto plan = release::ReleasePlanner::Plan(spec, &ds);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto artifacts = plan.value().Run();
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString()
                              << "\nspec:\n"
                              << release::PrintReleaseSpec(spec);
  for (const auto& marginal : artifacts.value().marginal_estimates) {
    ExpectProperDistribution(marginal);
  }
  if (artifacts.value().adjustment.has_value()) {
    double total = 0.0;
    for (double w : artifacts.value().adjustment->weights) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  if (artifacts.value().synthetic.has_value()) {
    EXPECT_EQ(artifacts.value().synthetic->num_rows(), ds.num_rows());
  }
  // The spec reproduces itself through serialization and re-execution.
  auto reparsed =
      release::ParseReleaseSpec(release::PrintReleaseSpec(spec));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed.value() == spec);
}

// Seeds 14 and 17 draw `de` at an explicit epsilon with synthesis (and
// adjustment), seed 15 draws OUE.
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzReleasePlan,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace mdrr
