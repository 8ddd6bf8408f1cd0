#include "mdrr/release/mechanism.h"

#include <algorithm>
#include <string>
#include <utility>

namespace mdrr::release {

namespace {

std::string GroupToString(const std::vector<size_t>& group) {
  std::string out = "{";
  for (size_t i = 0; i < group.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(group[i]);
  }
  return out + "}";
}

// Selects `requested` groups out of the mechanism's per-unit group list,
// where unit u constrains the attribute set `units[u]` (sorted). An
// empty request keeps every unit.
StatusOr<std::vector<AdjustmentGroup>> SelectGroups(
    std::vector<AdjustmentGroup> all,
    const std::vector<std::vector<size_t>>& units,
    const std::vector<std::vector<size_t>>& requested) {
  if (requested.empty()) return all;
  std::vector<AdjustmentGroup> selected;
  selected.reserve(requested.size());
  for (const std::vector<size_t>& group : requested) {
    std::vector<size_t> sorted = group;
    std::sort(sorted.begin(), sorted.end());
    auto it = std::find(units.begin(), units.end(), sorted);
    if (it == units.end()) {
      return Status::InvalidArgument(
          "adjustment group " + GroupToString(group) +
          " does not match a unit of this release (the mechanism "
          "constrains " +
          std::to_string(units.size()) + " units)");
    }
    selected.push_back(all[static_cast<size_t>(it - units.begin())]);
  }
  return selected;
}

std::vector<std::vector<size_t>> SingletonUnits(size_t m) {
  std::vector<std::vector<size_t>> units(m);
  for (size_t j = 0; j < m; ++j) units[j] = {j};
  return units;
}

// ---------------------------------------------------------------------------
// Protocol 1, over every frequency-oracle backend.
// ---------------------------------------------------------------------------

// Serves both per-attribute spec mechanisms (the design difference lives
// in the options) and every frequency_oracle section: the oracles come
// from MakeIndependentOracles, and RunRrIndependentWith is the one column
// loop, perturbing through the engine. Only the direct backend releases
// microdata.
class IndependentMechanism : public Mechanism {
 public:
  IndependentMechanism(const RrIndependentOptions& design,
                       const FrequencyOracleSpec& oracle, const char* name)
      : design_(design), oracle_(oracle), name_(name) {}

  const char* name() const override { return name_; }

  StatusOr<MechanismOutput> Run(
      const Dataset& dataset,
      const BatchPerturbationEngine& engine) const override {
    MDRR_ASSIGN_OR_RETURN(
        std::vector<std::unique_ptr<FrequencyOracle>> oracles,
        MakeIndependentOracles(dataset, design_, oracle_.backend,
                               oracle_.epsilon));
    MDRR_ASSIGN_OR_RETURN(
        RrIndependentResult result,
        RunRrIndependentWith(
            dataset, oracles, oracle_.backend == OracleBackend::kDirect,
            [&engine](const FrequencyOracle& oracle,
                      const std::vector<uint32_t>& codes,
                      size_t column_index) {
              return engine.PerturbColumn(oracle, codes, column_index);
            }));
    MechanismOutput output;
    output.marginal_estimates = result.estimated;
    output.release_epsilon = result.total_epsilon;
    output.independent = std::move(result);
    return output;
  }

  StatusOr<Dataset> Synthesize(
      const MechanismOutput& output, int64_t n,
      const BatchPerturbationEngine& engine) const override {
    return engine.SynthesizeIndependent(*output.independent, n);
  }

  StatusOr<std::vector<AdjustmentGroup>> AdjustmentGroupsFor(
      const MechanismOutput& output,
      const std::vector<std::vector<size_t>>& requested) const override {
    return SelectGroups(
        GroupsFromIndependent(*output.independent),
        SingletonUnits(output.independent->randomized.num_attributes()),
        requested);
  }

 private:
  RrIndependentOptions design_;
  FrequencyOracleSpec oracle_;
  const char* name_;
};

// ---------------------------------------------------------------------------
// Protocol 2.
// ---------------------------------------------------------------------------

class JointMechanism : public Mechanism {
 public:
  JointMechanism(std::vector<size_t> attributes, double keep_probability,
                 bool use_paper_epsilon_formula)
      : attributes_(std::move(attributes)),
        keep_probability_(keep_probability),
        use_paper_epsilon_formula_(use_paper_epsilon_formula) {}

  const char* name() const override { return "joint"; }

  StatusOr<MechanismOutput> Run(
      const Dataset& dataset,
      const BatchPerturbationEngine& engine) const override {
    MDRR_ASSIGN_OR_RETURN(RrJointResult result,
                          engine.RunJoint(dataset, attributes_,
                                          Budget(dataset)));
    // The composite-code decode is deterministic at any thread count, so
    // it rides the engine's workers.
    return FromResult(dataset, std::move(result),
                      engine.options().num_threads);
  }

 private:
  double Budget(const Dataset& dataset) const {
    // The Section 6.3.2 calibration: the joint matrix gets the summed
    // per-attribute KeepUniform epsilons.
    return ClusterEpsilonBudget(dataset, attributes_, keep_probability_,
                                use_paper_epsilon_formula_);
  }

  static MechanismOutput FromResult(const Dataset& dataset,
                                    RrJointResult result,
                                    size_t decode_threads) {
    // The joint release publishes composite codes over the selected
    // attributes only; decode them into a dataset over that sub-schema.
    // Rows are independent, so the decode shards freely (bit-identical
    // at any thread count).
    std::vector<Attribute> schema;
    schema.reserve(result.attributes.size());
    for (size_t j : result.attributes) schema.push_back(dataset.attribute(j));
    std::vector<std::vector<uint32_t>> columns(result.attributes.size());
    for (size_t position = 0; position < result.attributes.size();
         ++position) {
      columns[position] =
          DecodeColumnSharded(result.domain, result.randomized_codes,
                              position, /*chunk_size=*/1 << 16,
                              decode_threads);
    }

    MechanismOutput output;
    output.randomized = Dataset(std::move(schema), std::move(columns));
    output.marginal_estimates.reserve(result.attributes.size());
    for (size_t position = 0; position < result.attributes.size();
         ++position) {
      output.marginal_estimates.push_back(
          result.domain.MarginalizeTo(result.estimated, position));
    }
    output.release_epsilon = result.epsilon;
    output.joint = std::move(result);
    return output;
  }

  std::vector<size_t> attributes_;
  double keep_probability_;
  bool use_paper_epsilon_formula_;
};

// ---------------------------------------------------------------------------
// RR-Clusters.
// ---------------------------------------------------------------------------

class ClustersMechanism : public Mechanism {
 public:
  explicit ClustersMechanism(const RrClustersOptions& options)
      : options_(options) {}

  const char* name() const override { return "clusters"; }

  StatusOr<MechanismOutput> Run(
      const Dataset& dataset,
      const BatchPerturbationEngine& engine) const override {
    MDRR_ASSIGN_OR_RETURN(RrClustersResult result,
                          engine.RunClusters(dataset, options_));
    return FromResult(std::move(result));
  }

  StatusOr<Dataset> Synthesize(
      const MechanismOutput& output, int64_t n,
      const BatchPerturbationEngine& engine) const override {
    return engine.SynthesizeClusters(*output.clusters, n);
  }

  StatusOr<std::vector<AdjustmentGroup>> AdjustmentGroupsFor(
      const MechanismOutput& output,
      const std::vector<std::vector<size_t>>& requested) const override {
    // Units are the realized clusters (members already sorted).
    return SelectGroups(GroupsFromClusters(*output.clusters),
                        output.clustering, requested);
  }

 private:
  static MechanismOutput FromResult(RrClustersResult result) {
    MechanismOutput output;
    output.dependences = result.dependences;
    output.clustering = result.clusters;
    output.release_epsilon = result.release_epsilon;
    output.dependence_epsilon = result.dependence_epsilon;
    output.marginal_estimates.resize(result.randomized.num_attributes());
    for (size_t c = 0; c < result.clusters.size(); ++c) {
      const std::vector<size_t>& members = result.clusters[c];
      const RrJointResult& joint = result.cluster_results[c];
      for (size_t position = 0; position < members.size(); ++position) {
        output.marginal_estimates[members[position]] =
            joint.domain.MarginalizeTo(joint.estimated, position);
      }
    }
    output.clusters = std::move(result);
    return output;
  }

  RrClustersOptions options_;
};

// ---------------------------------------------------------------------------
// PRAM.
// ---------------------------------------------------------------------------

class PramMechanism : public Mechanism {
 public:
  explicit PramMechanism(double keep_probability)
      : keep_probability_(keep_probability) {}

  const char* name() const override { return "pram"; }

  StatusOr<MechanismOutput> Run(
      const Dataset& dataset,
      const BatchPerturbationEngine& engine) const override {
    // PRAM is applied by the controller in one pass over the collected
    // file and has no sharded perturbation path; every policy produces
    // the sequential transcript at the policy seed.
    Rng rng(engine.options().seed);
    MDRR_ASSIGN_OR_RETURN(PramResult result,
                          ApplyPram(dataset, keep_probability_, rng));
    return FromResult(std::move(result));
  }

  StatusOr<std::vector<AdjustmentGroup>> AdjustmentGroupsFor(
      const MechanismOutput& output,
      const std::vector<std::vector<size_t>>& requested) const override {
    const PramResult& pram = *output.pram;
    std::vector<AdjustmentGroup> all;
    all.reserve(pram.randomized.num_attributes());
    for (size_t j = 0; j < pram.randomized.num_attributes(); ++j) {
      all.push_back(AdjustmentGroup{pram.randomized.column(j),
                                    pram.estimated[j]});
    }
    return SelectGroups(std::move(all),
                        SingletonUnits(pram.randomized.num_attributes()),
                        requested);
  }

 private:
  static MechanismOutput FromResult(PramResult result) {
    MechanismOutput output;
    output.marginal_estimates = result.estimated;
    // The published file is protected by the sequential composition of
    // the per-attribute matrices.
    for (double epsilon : result.epsilons) {
      output.release_epsilon += epsilon;
    }
    output.pram = std::move(result);
    return output;
  }

  double keep_probability_;
};

}  // namespace

StatusOr<Dataset> Mechanism::Synthesize(
    const MechanismOutput& /*output*/, int64_t /*n*/,
    const BatchPerturbationEngine& /*engine*/) const {
  return Status::Unimplemented(std::string(name()) +
                               " does not support synthetic output");
}

StatusOr<std::vector<AdjustmentGroup>> Mechanism::AdjustmentGroupsFor(
    const MechanismOutput& /*output*/,
    const std::vector<std::vector<size_t>>& /*requested*/) const {
  return Status::Unimplemented(std::string(name()) +
                               " does not support adjustment");
}

std::unique_ptr<Mechanism> MakeMechanism(const ReleaseSpec& spec) {
  switch (spec.mechanism.kind) {
    case MechanismKind::kIndependent:
    case MechanismKind::kGeometricOrdinal: {
      RrIndependentOptions design{spec.budget.keep_probability};
      if (spec.mechanism.kind == MechanismKind::kGeometricOrdinal) {
        design.design = IndependentDesign::kGeometricOrdinal;
        design.geometric_epsilon = spec.mechanism.geometric_epsilon;
      }
      return std::make_unique<IndependentMechanism>(
          design, spec.frequency_oracle, ToString(spec.mechanism.kind));
    }
    case MechanismKind::kJoint:
      return std::make_unique<JointMechanism>(
          spec.mechanism.joint_attributes, spec.budget.keep_probability,
          spec.mechanism.use_paper_epsilon_formula);
    case MechanismKind::kClusters: {
      RrClustersOptions options;
      options.keep_probability = spec.budget.keep_probability;
      options.clustering = spec.mechanism.clustering;
      options.dependence_source = spec.mechanism.dependence_source;
      options.dependence_keep_probability =
          spec.budget.dependence_keep_probability;
      options.use_paper_epsilon_formula =
          spec.mechanism.use_paper_epsilon_formula;
      return std::make_unique<ClustersMechanism>(options);
    }
    case MechanismKind::kPram:
      return std::make_unique<PramMechanism>(spec.budget.keep_probability);
  }
  return nullptr;
}

}  // namespace mdrr::release
