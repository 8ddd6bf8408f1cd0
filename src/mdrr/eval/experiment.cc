#include "mdrr/eval/experiment.h"

#include <cmath>
#include <memory>

#include "mdrr/common/parallel.h"
#include "mdrr/core/dependence_estimators.h"
#include "mdrr/core/joint_estimate.h"
#include "mdrr/eval/metrics.h"
#include "mdrr/eval/subset_query.h"
#include "mdrr/stats/descriptive.h"

namespace mdrr::eval {

namespace {

// Builds the method's JointEstimate for one protocol execution.
StatusOr<std::unique_ptr<JointEstimate>> BuildEstimate(
    const Dataset& dataset, const ExperimentConfig& config,
    const linalg::Matrix* hoisted_dependences, Rng& rng) {
  switch (config.method) {
    case Method::kRandomized: {
      RrIndependentOptions options{config.keep_probability};
      MDRR_ASSIGN_OR_RETURN(RrIndependentResult result,
                            RunRrIndependent(dataset, options, rng));
      return std::unique_ptr<JointEstimate>(
          new EmpiricalCounts(std::move(result.randomized)));
    }
    case Method::kRrIndependent: {
      RrIndependentOptions options{config.keep_probability};
      MDRR_ASSIGN_OR_RETURN(RrIndependentResult result,
                            RunRrIndependent(dataset, options, rng));
      return std::unique_ptr<JointEstimate>(
          new IndependentMarginalsEstimate(MakeIndependentEstimate(result)));
    }
    case Method::kRrIndependentAdjusted: {
      RrIndependentOptions options{config.keep_probability};
      MDRR_ASSIGN_OR_RETURN(RrIndependentResult result,
                            RunRrIndependent(dataset, options, rng));
      MDRR_ASSIGN_OR_RETURN(WeightedRecordsEstimate estimate,
                            MakeAdjustedEstimate(result, config.adjustment));
      return std::unique_ptr<JointEstimate>(
          new WeightedRecordsEstimate(std::move(estimate)));
    }
    case Method::kRrClusters:
    case Method::kRrClustersAdjusted: {
      RrClustersOptions options;
      options.keep_probability = config.keep_probability;
      options.clustering = config.clustering;
      options.dependence_keep_probability =
          config.dependence_keep_probability;
      if (hoisted_dependences != nullptr) {
        options.dependence_source = DependenceSource::kProvided;
        options.provided_dependences = hoisted_dependences;
      } else {
        options.dependence_source = config.dependence_source;
      }
      MDRR_ASSIGN_OR_RETURN(RrClustersResult result,
                            RunRrClusters(dataset, options, rng));
      if (config.method == Method::kRrClusters) {
        return std::unique_ptr<JointEstimate>(
            new ClusterFactorizationEstimate(MakeClusterEstimate(result)));
      }
      MDRR_ASSIGN_OR_RETURN(WeightedRecordsEstimate estimate,
                            MakeAdjustedEstimate(result, config.adjustment));
      return std::unique_ptr<JointEstimate>(
          new WeightedRecordsEstimate(std::move(estimate)));
    }
  }
  return Status::Internal("unknown method");
}

}  // namespace

StatusOr<ExperimentResult> RunCountQueryExperiment(
    const Dataset& dataset, const ExperimentConfig& config) {
  if (config.runs <= 0) {
    return Status::InvalidArgument("runs must be positive");
  }

  // Hoist the dependence assessment when it is deterministic: an
  // explicitly provided matrix, or the oracle (true-data) dependences.
  const linalg::Matrix* hoisted = config.dependences;
  linalg::Matrix oracle_dependences;
  bool is_cluster_method = config.method == Method::kRrClusters ||
                           config.method == Method::kRrClustersAdjusted;
  if (is_cluster_method && hoisted == nullptr &&
      config.dependence_source == DependenceSource::kOracle) {
    oracle_dependences = DependenceMatrix(dataset);
    hoisted = &oracle_dependences;
  }

  EmpiricalCounts truth(dataset);

  std::vector<double> absolute_errors(config.runs, 0.0);
  std::vector<double> relative_errors(config.runs, 0.0);
  std::vector<char> degenerate(config.runs, 0);
  std::vector<Status> failures(config.runs, Status::OK());

  // One run per chunk (threads <= 0: one worker per core). Run r draws
  // from its own Rng keyed by r, so no result depends on the worker.
  ParallelChunks(
      static_cast<size_t>(config.runs), /*chunk_size=*/1,
      config.threads > 0 ? static_cast<size_t>(config.threads) : 0,
      [&](size_t /*worker*/, size_t run, size_t /*begin*/, size_t /*end*/) {
        Rng rng(config.seed + static_cast<uint64_t>(run) * 0x9e3779b9ULL);
        auto estimate = BuildEstimate(dataset, config, hoisted, rng);
        if (!estimate.ok()) {
          failures[run] = estimate.status();
          return;
        }
        CountQuery query =
            config.fixed_query_attributes.empty()
                ? GenerateCoverageQuery(dataset, config.sigma,
                                        config.query_attributes, rng)
                : GenerateCoverageQueryForAttributes(
                      dataset, config.fixed_query_attributes, config.sigma,
                      rng);
        double true_count = truth.EstimateCount(query);
        double estimated = (*estimate)->EstimateCount(query);
        absolute_errors[run] = AbsoluteError(estimated, true_count);
        if (true_count == 0.0) {
          degenerate[run] = 1;
        } else {
          relative_errors[run] = RelativeError(estimated, true_count);
        }
      });
  for (const Status& failure : failures) MDRR_RETURN_IF_ERROR(failure);

  ExperimentResult result;
  result.runs = config.runs;
  std::vector<double> valid_relative;
  valid_relative.reserve(static_cast<size_t>(config.runs));
  for (int run = 0; run < config.runs; ++run) {
    if (degenerate[run]) {
      ++result.degenerate_runs;
    } else {
      valid_relative.push_back(relative_errors[run]);
    }
  }
  result.median_absolute_error = stats::Median(absolute_errors);
  result.median_relative_error =
      valid_relative.empty() ? 0.0 : stats::Median(valid_relative);
  return result;
}

}  // namespace mdrr::eval
