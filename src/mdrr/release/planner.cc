#include "mdrr/release/planner.h"

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "mdrr/core/batch_engine.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/csv.h"
#include "mdrr/release/serialization.h"

namespace mdrr::release {

namespace {

class StageClock {
 public:
  explicit StageClock(std::vector<StageTiming>& timings)
      : timings_(timings) {}

  void Start() { begin_ = std::chrono::steady_clock::now(); }

  void Stop(const char* stage) {
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - begin_;
    timings_.push_back(StageTiming{stage, elapsed.count()});
  }

 private:
  std::vector<StageTiming>& timings_;
  std::chrono::steady_clock::time_point begin_;
};

// The engine options of a sharded or distributed policy.
BatchPerturbationOptions EngineOptions(const ExecutionPolicy& policy) {
  BatchPerturbationOptions options;
  options.seed = policy.seed;
  options.num_threads = policy.num_threads;
  options.shard_size = policy.shard_size;
  options.rng = policy.rng;
  return options;
}

}  // namespace

StatusOr<Dataset> ResolveDataset(const DatasetSpec& spec) {
  switch (spec.source) {
    case DatasetSpec::Source::kProvided:
      return Status::InvalidArgument(
          "dataset.source provided names a dataset the caller passes in; "
          "only csv and synthetic-adult sources can be loaded");
    case DatasetSpec::Source::kCsvFile:
      return ReadCsvDataset(spec.csv_path, spec.csv_has_header);
    case DatasetSpec::Source::kSyntheticAdult:
      return SynthesizeAdult(spec.synthetic_records, spec.synthetic_seed);
  }
  return Status::Internal("unknown dataset source");
}

ReleasePlan::ReleasePlan(ReleaseSpec spec, Dataset owned,
                         const Dataset* provided,
                         std::unique_ptr<Mechanism> mechanism)
    : spec_(std::move(spec)),
      owned_(std::move(owned)),
      provided_(provided),
      mechanism_(std::move(mechanism)) {}

StatusOr<ReleaseArtifacts> ReleasePlan::Run() const {
  const ExecutionPolicy& policy = spec_.execution;
  if (policy.kind == PolicyKind::kDistributed) {
    // Self-hosted coordinator: bind, wait for the configured worker
    // fleet, then run the shared distributed path.
    net::CoordinatorOptions coordinator_options;
    coordinator_options.seed = policy.seed;
    coordinator_options.rng = policy.rng;
    coordinator_options.shard_size = policy.shard_size;
    coordinator_options.deadline_ms = policy.worker_deadline_ms;
    net::Coordinator coordinator(coordinator_options);
    MDRR_RETURN_IF_ERROR(coordinator.Listen(policy.listen_port));
    MDRR_RETURN_IF_ERROR(coordinator.AcceptWorkers(policy.num_workers));
    return RunDistributed(coordinator);
  }
  // The sequential engine's one stream is drawn by the stages in order
  // (mechanism first, synthesis second), which is the same draw order a
  // caller composing the stage functions by hand would use.
  if (policy.kind == PolicyKind::kSequential) {
    return ExecuteStages(BatchPerturbationEngine::Sequential(policy.seed));
  }
  return ExecuteStages(BatchPerturbationEngine(EngineOptions(policy)));
}

StatusOr<ReleaseArtifacts> ReleasePlan::RunDistributed(
    net::Coordinator& coordinator) const {
  const ExecutionPolicy& policy = spec_.execution;
  if (policy.kind != PolicyKind::kDistributed) {
    return Status::InvalidArgument(
        "RunDistributed needs execution.policy distributed");
  }
  if (coordinator.num_workers() == 0) {
    return Status::FailedPrecondition(
        "the coordinator has no connected workers");
  }
  // The coordinator hands out the randomness address: a seed, rng or
  // shard grain other than the policy's would silently release a
  // transcript that differs from the sharded one.
  const net::CoordinatorOptions& hosted = coordinator.options();
  const char* mismatch = nullptr;
  if (hosted.seed != policy.seed) mismatch = "seed";
  if (hosted.rng != policy.rng) mismatch = "rng";
  if (hosted.shard_size != policy.shard_size) mismatch = "shard_size";
  if (mismatch != nullptr) {
    Status status = Status::InvalidArgument(
        std::string("the coordinator's ") + mismatch +
        " differs from execution." + mismatch);
    coordinator.Abort(status.ToString());
    return status;
  }

  BatchPerturbationOptions engine_options = EngineOptions(policy);
  engine_options.shard_perturber =
      [&coordinator](const RrMatrix& matrix,
                     const std::vector<uint32_t>& codes, uint64_t stream_base,
                     uint64_t counter_stream) {
        return coordinator.PerturbColumn(matrix, codes, stream_base,
                                         counter_stream);
      };
  BatchPerturbationEngine engine(engine_options);

  // A failed column stops the mechanism stage with its Status, before
  // adjustment, synthesis, artifact assembly, or any output write.
  StatusOr<ReleaseArtifacts> artifacts = ExecuteStages(engine);
  if (!artifacts.ok()) {
    coordinator.Abort(artifacts.status().ToString());
    return artifacts.status();
  }
  MDRR_RETURN_IF_ERROR(coordinator.Commit());
  return artifacts;
}

StatusOr<ReleaseArtifacts> ReleasePlan::ExecuteStages(
    const BatchPerturbationEngine& engine) const {
  const Dataset& data = dataset();

  ReleaseArtifacts artifacts;
  StageClock clock(artifacts.timings);

  // --- Perturbation + Eq. (2) estimation. ---
  clock.Start();
  MDRR_ASSIGN_OR_RETURN(MechanismOutput output, mechanism_->Run(data, engine));
  clock.Stop("mechanism");

  const double total_epsilon =
      output.release_epsilon + output.dependence_epsilon;
  if (total_epsilon > spec_.budget.max_total_epsilon) {
    return Status::FailedPrecondition(
        "release would spend epsilon = " + std::to_string(total_epsilon) +
        ", over budget.max_total_epsilon = " +
        std::to_string(spec_.budget.max_total_epsilon));
  }

  // --- Algorithm 2 adjustment. ---
  if (spec_.adjustment.enabled) {
    clock.Start();
    MDRR_ASSIGN_OR_RETURN(
        std::vector<AdjustmentGroup> groups,
        mechanism_->AdjustmentGroupsFor(output, spec_.adjustment.groups));
    AdjustmentOptions adjustment_options;
    adjustment_options.max_iterations = spec_.adjustment.max_iterations;
    adjustment_options.tolerance = spec_.adjustment.tolerance;
    MDRR_ASSIGN_OR_RETURN(
        AdjustmentResult adjusted,
        engine.RunAdjustment(groups, data.num_rows(), adjustment_options));
    artifacts.adjustment = std::move(adjusted);
    clock.Stop("adjustment");
  }

  // --- Synthetic release. ---
  if (spec_.synthetic.enabled) {
    clock.Start();
    const int64_t n = spec_.synthetic.records > 0
                          ? spec_.synthetic.records
                          : static_cast<int64_t>(data.num_rows());
    MDRR_ASSIGN_OR_RETURN(Dataset synthetic,
                          mechanism_->Synthesize(output, n, engine));
    artifacts.synthetic = std::move(synthetic);
    clock.Stop("synthesis");
  }

  // --- Utility evaluation. ---
  if (spec_.evaluation.utility_report) {
    clock.Start();
    eval::UtilityReportOptions report_options;
    report_options.sigmas = spec_.evaluation.sigmas;
    report_options.queries_per_sigma = spec_.evaluation.queries_per_sigma;
    report_options.seed = spec_.evaluation.seed;
    MDRR_ASSIGN_OR_RETURN(
        eval::UtilityReport report,
        eval::BuildUtilityReport(data, *artifacts.synthetic,
                                 report_options));
    artifacts.utility = std::move(report);
    clock.Stop("evaluation");
  }

  // Every stage that reads the payload's own randomized dataset has run,
  // so the released dataset moves (not copies) into the artifacts; the
  // payload keeps everything else verbatim (see MechanismOutput).
  artifacts.num_records = static_cast<double>(data.num_rows());
  if (output.independent.has_value()) {
    artifacts.randomized = std::move(output.independent->randomized);
  } else if (output.clusters.has_value()) {
    artifacts.randomized = std::move(output.clusters->randomized);
  } else if (output.pram.has_value()) {
    artifacts.randomized = std::move(output.pram->randomized);
  } else {
    artifacts.randomized = std::move(output.randomized);  // Joint decode.
  }
  artifacts.marginal_estimates = std::move(output.marginal_estimates);
  artifacts.dependences = std::move(output.dependences);
  artifacts.clustering = std::move(output.clustering);
  artifacts.release_epsilon = output.release_epsilon;
  artifacts.dependence_epsilon = output.dependence_epsilon;
  artifacts.independent = std::move(output.independent);
  artifacts.joint = std::move(output.joint);
  artifacts.clusters = std::move(output.clusters);
  artifacts.pram = std::move(output.pram);

  // --- Configured outputs. ---
  if (!spec_.output.randomized_csv.empty() ||
      !spec_.output.synthetic_csv.empty() ||
      !spec_.output.artifacts_path.empty()) {
    clock.Start();
    if (!spec_.output.randomized_csv.empty()) {
      MDRR_RETURN_IF_ERROR(
          WriteCsv(artifacts.randomized, spec_.output.randomized_csv));
    }
    if (!spec_.output.synthetic_csv.empty()) {
      MDRR_RETURN_IF_ERROR(
          WriteCsv(*artifacts.synthetic, spec_.output.synthetic_csv));
    }
    if (!spec_.output.artifacts_path.empty()) {
      MDRR_RETURN_IF_ERROR(
          WriteReleaseArtifacts(artifacts, spec_.output.artifacts_path));
    }
    clock.Stop("outputs");
  }
  return artifacts;
}

StatusOr<ReleasePlan> ReleasePlanner::Plan(const ReleaseSpec& spec,
                                           const Dataset* provided) {
  // Structural pass first (no dataset needed), then the index checks
  // against the resolved schema.
  MDRR_RETURN_IF_ERROR(ValidateReleaseSpec(spec, /*num_attributes=*/0));
  if (spec.streaming.enabled) {
    return Status::InvalidArgument(
        "streaming specs run through the streaming collector "
        "(release/streaming.h, protocol::RunStreamingReplay), not a batch "
        "ReleasePlan");
  }
  Dataset owned;
  const Dataset* bound = nullptr;
  if (spec.dataset.source == DatasetSpec::Source::kProvided) {
    if (provided == nullptr) {
      return Status::InvalidArgument(
          "dataset.source is 'provided' but no dataset was passed to "
          "ReleasePlanner::Plan");
    }
    bound = provided;
  } else {
    MDRR_ASSIGN_OR_RETURN(owned, ResolveDataset(spec.dataset));
  }
  const Dataset& data = bound != nullptr ? *bound : owned;
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("the bound dataset has no records");
  }
  MDRR_RETURN_IF_ERROR(ValidateReleaseSpec(spec, data.num_attributes()));
  std::unique_ptr<Mechanism> mechanism = MakeMechanism(spec);
  if (mechanism == nullptr) {
    return Status::Internal("unknown mechanism kind");
  }
  return ReleasePlan(spec, std::move(owned), bound, std::move(mechanism));
}

StatusOr<ControllerPlan> ReleasePlanner::PlanController(
    const ClusteringOptions& clustering, const ExecutionPolicy& policy) {
  if (!(clustering.max_combinations >= 1.0)) {
    return Status::InvalidArgument(
        "clustering.max_combinations (Tv) must be >= 1");
  }
  if (policy.shard_size == 0) {
    return Status::InvalidArgument("execution.shard_size must be > 0");
  }
  if (policy.kind == PolicyKind::kDistributed) {
    return Status::InvalidArgument(
        "party sessions run on the controller; the distributed policy "
        "applies to batch releases only");
  }
  return ControllerPlan(clustering, policy);
}

}  // namespace mdrr::release
