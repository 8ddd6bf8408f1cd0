#include "mdrr/release/spec.h"

#include <cmath>
#include <set>
#include <string>

#include "mdrr/common/enum_tokens.h"

namespace mdrr::release {

namespace {

constexpr EnumToken<MechanismKind> kMechanismKindTokens[] = {
    {MechanismKind::kIndependent, "independent"},
    {MechanismKind::kJoint, "joint"},
    {MechanismKind::kClusters, "clusters"},
    {MechanismKind::kPram, "pram"},
    {MechanismKind::kGeometricOrdinal, "geometric-ordinal"},
};

constexpr EnumToken<PolicyKind> kPolicyKindTokens[] = {
    {PolicyKind::kSequential, "sequential"},
    {PolicyKind::kSharded, "sharded"},
    {PolicyKind::kDistributed, "distributed"},
};

constexpr EnumToken<RngKind> kRngKindTokens[] = {
    {RngKind::kMt19937, "mt19937"},
    {RngKind::kPhilox, "philox"},
};

constexpr EnumToken<DatasetSpec::Source> kDatasetSourceTokens[] = {
    {DatasetSpec::Source::kProvided, "provided"},
    {DatasetSpec::Source::kCsvFile, "csv"},
    {DatasetSpec::Source::kSyntheticAdult, "synthetic-adult"},
};

constexpr EnumToken<DependenceSource> kDependenceSourceTokens[] = {
    {DependenceSource::kOracle, "oracle"},
    {DependenceSource::kRandomizedResponse, "rr"},
    {DependenceSource::kSecureSum, "securesum"},
    {DependenceSource::kPairwiseRr, "pairwise"},
    {DependenceSource::kProvided, "provided"},
};

constexpr EnumToken<WindowKind> kWindowKindTokens[] = {
    {WindowKind::kTumbling, "tumbling"},
    {WindowKind::kSliding, "sliding"},
};

}  // namespace

const char* ToString(MechanismKind kind) {
  return TokenOf(kMechanismKindTokens, kind);
}
const char* ToString(PolicyKind kind) {
  return TokenOf(kPolicyKindTokens, kind);
}
const char* ToString(RngKind kind) { return TokenOf(kRngKindTokens, kind); }
const char* ToString(DatasetSpec::Source source) {
  return TokenOf(kDatasetSourceTokens, source);
}
const char* ToString(DependenceSource source) {
  return TokenOf(kDependenceSourceTokens, source);
}
const char* ToString(WindowKind kind) {
  return TokenOf(kWindowKindTokens, kind);
}

StatusOr<MechanismKind> MechanismKindFromString(std::string_view token) {
  return ValueOf(kMechanismKindTokens, token, "mechanism kind");
}
StatusOr<PolicyKind> PolicyKindFromString(std::string_view token) {
  return ValueOf(kPolicyKindTokens, token, "execution policy");
}
StatusOr<RngKind> RngKindFromString(std::string_view token) {
  return ValueOf(kRngKindTokens, token, "rng policy");
}
StatusOr<DatasetSpec::Source> DatasetSourceFromString(std::string_view token) {
  return ValueOf(kDatasetSourceTokens, token, "dataset source");
}
StatusOr<DependenceSource> DependenceSourceFromString(std::string_view token) {
  return ValueOf(kDependenceSourceTokens, token, "dependence source");
}
StatusOr<WindowKind> WindowKindFromString(std::string_view token) {
  return ValueOf(kWindowKindTokens, token, "window kind");
}

namespace {

bool IsProbability(double p) { return std::isfinite(p) && p > 0.0 && p <= 1.0; }

Status ValidateGroups(const AdjustmentSpec& adjustment, MechanismKind kind,
                      size_t num_attributes) {
  for (const std::vector<size_t>& group : adjustment.groups) {
    if (group.empty()) {
      return Status::InvalidArgument("adjustment group is empty");
    }
    std::set<size_t> seen;
    for (size_t j : group) {
      if (num_attributes > 0 && j >= num_attributes) {
        return Status::InvalidArgument(
            "adjustment group references absent attribute " +
            std::to_string(j) + " (schema has " +
            std::to_string(num_attributes) + ")");
      }
      if (!seen.insert(j).second) {
        return Status::InvalidArgument(
            "adjustment group lists attribute " + std::to_string(j) +
            " twice");
      }
    }
    if ((kind == MechanismKind::kIndependent ||
         kind == MechanismKind::kGeometricOrdinal ||
         kind == MechanismKind::kPram) &&
        group.size() != 1) {
      return Status::InvalidArgument(
          "per-attribute mechanisms only constrain single-attribute "
          "marginals; got a group of " +
          std::to_string(group.size()) + " attributes");
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateReleaseSpec(const ReleaseSpec& spec, size_t num_attributes) {
  // Dataset binding.
  if (spec.dataset.source == DatasetSpec::Source::kCsvFile &&
      spec.dataset.csv_path.empty()) {
    return Status::InvalidArgument(
        "dataset.source is csv but csv_path is empty");
  }
  if (spec.dataset.source == DatasetSpec::Source::kSyntheticAdult &&
      spec.dataset.synthetic_records == 0) {
    return Status::InvalidArgument("dataset.synthetic_records must be > 0");
  }

  // Budget.
  if (!IsProbability(spec.budget.keep_probability)) {
    return Status::InvalidArgument("budget.keep_probability must be in (0, 1]");
  }
  if (!IsProbability(spec.budget.dependence_keep_probability)) {
    return Status::InvalidArgument(
        "budget.dependence_keep_probability must be in (0, 1]");
  }
  if (std::isnan(spec.budget.max_total_epsilon) ||
      spec.budget.max_total_epsilon <= 0.0) {
    return Status::InvalidArgument(
        "budget.max_total_epsilon must be > 0 (omit it to disable the cap)");
  }

  // Mechanism.
  if (spec.mechanism.use_paper_epsilon_formula &&
      spec.mechanism.kind != MechanismKind::kJoint &&
      spec.mechanism.kind != MechanismKind::kClusters) {
    // Only the joint and clusters mechanisms read it; anywhere else it
    // would be accepted and change nothing.
    return Status::InvalidArgument(
        std::string("mechanism.use_paper_epsilon_formula applies to the "
                    "joint and clusters mechanisms only; mechanism.kind ") +
        ToString(spec.mechanism.kind) + " ignores it");
  }
  switch (spec.mechanism.kind) {
    case MechanismKind::kJoint: {
      if (spec.mechanism.joint_attributes.empty()) {
        return Status::InvalidArgument(
            "the joint mechanism needs a non-empty attribute set");
      }
      std::set<size_t> seen;
      for (size_t j : spec.mechanism.joint_attributes) {
        if (num_attributes > 0 && j >= num_attributes) {
          return Status::InvalidArgument(
              "joint attribute " + std::to_string(j) +
              " is absent (schema has " + std::to_string(num_attributes) +
              ")");
        }
        if (!seen.insert(j).second) {
          return Status::InvalidArgument("joint attribute " +
                                         std::to_string(j) + " listed twice");
        }
      }
      break;
    }
    case MechanismKind::kClusters:
      if (!(spec.mechanism.clustering.max_combinations >= 1.0)) {
        return Status::InvalidArgument(
            "mechanism.clustering.max_combinations (Tv) must be >= 1");
      }
      if (std::isnan(spec.mechanism.clustering.min_dependence) ||
          spec.mechanism.clustering.min_dependence < 0.0 ||
          spec.mechanism.clustering.min_dependence > 1.0) {
        return Status::InvalidArgument(
            "mechanism.clustering.min_dependence (Td) must be in [0, 1]");
      }
      if (spec.mechanism.dependence_source == DependenceSource::kProvided) {
        return Status::InvalidArgument(
            "dependence source 'provided' cannot appear in a spec (a spec "
            "carries no matrix); use RunRrClustersWith directly");
      }
      break;
    case MechanismKind::kGeometricOrdinal:
      if (std::isnan(spec.mechanism.geometric_epsilon) ||
          !std::isfinite(spec.mechanism.geometric_epsilon) ||
          spec.mechanism.geometric_epsilon <= 0.0) {
        return Status::InvalidArgument(
            "mechanism.geometric_epsilon must be > 0 and finite");
      }
      break;
    case MechanismKind::kIndependent:
    case MechanismKind::kPram:
      break;
  }

  // Frequency oracle.
  if (std::isnan(spec.frequency_oracle.epsilon) ||
      !std::isfinite(spec.frequency_oracle.epsilon) ||
      spec.frequency_oracle.epsilon < 0.0) {
    return Status::InvalidArgument(
        "frequency_oracle.epsilon must be >= 0 and finite (0 derives the "
        "per-attribute epsilons from the design)");
  }
  if (!spec.frequency_oracle.is_default()) {
    if (spec.mechanism.kind != MechanismKind::kIndependent &&
        spec.mechanism.kind != MechanismKind::kGeometricOrdinal) {
      return Status::InvalidArgument(
          "frequency_oracle backends apply per attribute; use the "
          "independent or geometric-ordinal mechanism");
    }
    if (spec.streaming.enabled) {
      return Status::InvalidArgument(
          "streaming ingest carries per-report RR codes; the oracle "
          "backend must stay the default RR path");
    }
  }
  if (spec.frequency_oracle.backend != OracleBackend::kDirect) {
    // These read the released microdata, and the distributed wire ships
    // RR matrices; frequency-only backends have neither.
    const char* needs_microdata = nullptr;
    if (spec.execution.kind == PolicyKind::kDistributed) {
      needs_microdata = "execution.policy distributed";
    }
    if (spec.adjustment.enabled) needs_microdata = "adjustment";
    if (spec.synthetic.enabled) needs_microdata = "synthetic output";
    if (!spec.output.randomized_csv.empty()) {
      needs_microdata = "output.randomized_csv";
    }
    if (needs_microdata != nullptr) {
      return Status::InvalidArgument(
          std::string("frequency-only oracle backends (sue|oue|olh) release "
                      "no microdata; drop ") +
          needs_microdata);
    }
  }

  // Adjustment.
  if (spec.adjustment.enabled) {
    if (spec.mechanism.kind == MechanismKind::kJoint) {
      return Status::InvalidArgument(
          "adjustment needs at least two marginal constraints; the joint "
          "mechanism releases one joint distribution");
    }
    if (spec.adjustment.max_iterations <= 0) {
      return Status::InvalidArgument("adjustment.max_iterations must be > 0");
    }
    if (!(spec.adjustment.tolerance > 0.0)) {
      return Status::InvalidArgument("adjustment.tolerance must be > 0");
    }
    MDRR_RETURN_IF_ERROR(ValidateGroups(spec.adjustment, spec.mechanism.kind,
                                        num_attributes));
  } else if (!spec.adjustment.groups.empty()) {
    return Status::InvalidArgument(
        "adjustment.groups given but adjustment is disabled");
  }

  // Synthetic output.
  if (spec.synthetic.enabled) {
    if (spec.mechanism.kind == MechanismKind::kJoint ||
        spec.mechanism.kind == MechanismKind::kPram) {
      return Status::InvalidArgument(
          "synthetic output is supported for the independent and clusters "
          "mechanisms only");
    }
    if (spec.synthetic.records < 0) {
      return Status::InvalidArgument("synthetic.records must be >= 0");
    }
  }

  // Evaluation.
  if (spec.evaluation.utility_report) {
    if (!spec.synthetic.enabled) {
      return Status::InvalidArgument(
          "evaluation.utility_report compares the synthetic release against "
          "the input; enable synthetic output first");
    }
    if (spec.evaluation.queries_per_sigma <= 0) {
      return Status::InvalidArgument(
          "evaluation.queries_per_sigma must be > 0");
    }
    for (double sigma : spec.evaluation.sigmas) {
      if (!(sigma > 0.0) || sigma > 1.0) {
        return Status::InvalidArgument(
            "evaluation.sigmas entries must be in (0, 1]");
      }
    }
  }

  // Streaming.
  if (spec.streaming.enabled) {
    if (spec.streaming.window_size == 0) {
      return Status::InvalidArgument("streaming.window_size must be > 0");
    }
    if (spec.mechanism.kind != MechanismKind::kIndependent &&
        spec.mechanism.kind != MechanismKind::kGeometricOrdinal) {
      return Status::InvalidArgument(
          "streaming releases re-estimate per-attribute marginals from "
          "merged counts; use the independent or geometric-ordinal "
          "mechanism");
    }
    switch (spec.streaming.window_kind) {
      case WindowKind::kTumbling:
        if (spec.streaming.window_stride != 0 &&
            spec.streaming.window_stride != spec.streaming.window_size) {
          return Status::InvalidArgument(
              "tumbling windows have stride == size (omit "
              "streaming.window_stride)");
        }
        break;
      case WindowKind::kSliding:
        if (spec.streaming.window_stride == 0 ||
            spec.streaming.window_stride >= spec.streaming.window_size ||
            spec.streaming.window_size % spec.streaming.window_stride != 0) {
          return Status::InvalidArgument(
              "sliding windows need streaming.window_stride in (0, "
              "window_size) dividing window_size");
        }
        break;
    }
    if (std::isnan(spec.streaming.window_epsilon) ||
        !std::isfinite(spec.streaming.window_epsilon) ||
        spec.streaming.window_epsilon < 0.0) {
      return Status::InvalidArgument(
          "streaming.window_epsilon must be >= 0 and finite (0 derives it "
          "from the design)");
    }
    if (spec.adjustment.enabled) {
      return Status::InvalidArgument(
          "streaming releases marginal estimates only; disable adjustment");
    }
    if (spec.synthetic.enabled) {
      return Status::InvalidArgument(
          "streaming releases marginal estimates only; disable synthetic "
          "output");
    }
  } else {
    if (spec.streaming.window_size != 0 || spec.streaming.window_stride != 0 ||
        spec.streaming.window_epsilon != 0.0 ||
        spec.streaming.max_windows != 0) {
      return Status::InvalidArgument(
          "streaming.* given but streaming is disabled");
    }
  }

  // Execution.
  if (spec.execution.shard_size == 0) {
    return Status::InvalidArgument("execution.shard_size must be > 0");
  }
  if (spec.execution.rng == RngKind::kPhilox &&
      spec.execution.kind == PolicyKind::kSequential &&
      !spec.streaming.enabled) {
    return Status::InvalidArgument(
        "execution.rng philox requires the sharded policy (the sequential "
        "reference path is the mt19937 transcript); streaming plans are "
        "exempt -- the collector ignores execution.kind");
  }
  if (spec.execution.kind == PolicyKind::kDistributed) {
    if (spec.execution.num_workers == 0) {
      return Status::InvalidArgument(
          "the distributed policy needs execution.num_workers >= 1");
    }
    if (spec.streaming.enabled) {
      return Status::InvalidArgument(
          "streaming ingest runs over the collectd socket endpoint, not "
          "the distributed release policy");
    }
  } else {
    if (spec.execution.num_workers != 0 || spec.execution.listen_port != 0 ||
        spec.execution.worker_deadline_ms != 0) {
      return Status::InvalidArgument(
          "execution.num_workers/listen_port/worker_deadline_ms given but "
          "the policy is not distributed");
    }
  }

  // Outputs.
  if (!spec.output.synthetic_csv.empty() && !spec.synthetic.enabled) {
    return Status::InvalidArgument(
        "output.synthetic_csv given but synthetic output is disabled");
  }
  return Status::OK();
}

}  // namespace mdrr::release
