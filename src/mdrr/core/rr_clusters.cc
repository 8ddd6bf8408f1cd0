#include "mdrr/core/rr_clusters.h"

#include <algorithm>
#include <limits>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"

namespace mdrr {

namespace {

// Rows per decode work unit; purely a load-balancing grain (the decode
// draws no randomness, so it is deterministic at any granularity).
constexpr size_t kDecodeChunkSize = 1 << 16;

// Runs the configured dependence-assessment round sequentially. Fails if
// dependence_source is kProvided with no matrix supplied.
StatusOr<DependenceEstimate> AssessDependences(
    const Dataset& dataset, const RrClustersOptions& options, Rng& rng) {
  switch (options.dependence_source) {
    case DependenceSource::kOracle:
      return OracleDependences(dataset);
    case DependenceSource::kRandomizedResponse:
      return RandomizedResponseDependences(
          dataset, options.dependence_keep_probability, rng.engine()());
    case DependenceSource::kSecureSum:
      // The exact sums draw nothing, but §4.2 takes the one word of the
      // serial stream every §4.1-4.3 source takes, so no later
      // RR-Clusters draw depends on which of them assessed.
      (void)rng.engine()();
      return SecureSumDependences(dataset);
    case DependenceSource::kPairwiseRr:
      return PairwiseRrDependences(dataset,
                                   options.dependence_keep_probability,
                                   rng.engine()());
    case DependenceSource::kProvided: {
      if (options.provided_dependences == nullptr) {
        return Status::InvalidArgument(
            "dependence_source is kProvided but no matrix was supplied");
      }
      DependenceEstimate estimate;
      estimate.dependences = *options.provided_dependences;
      estimate.epsilon = 0.0;
      estimate.messages = 0;
      return estimate;
    }
  }
  return Status::Internal("unknown dependence source");
}

}  // namespace

StatusOr<DependenceEstimate> AssessDependencesSharded(
    const Dataset& dataset, const RrClustersOptions& options, Rng& rng,
    const DependenceEstimatorOptions& estimator) {
  switch (options.dependence_source) {
    case DependenceSource::kOracle:
      return OracleDependencesSharded(dataset, estimator.sharding);
    case DependenceSource::kRandomizedResponse:
      return RandomizedResponseDependencesSharded(
          dataset, options.dependence_keep_probability, rng.engine()(),
          estimator);
    case DependenceSource::kSecureSum:
      // One discarded word, as in AssessDependences.
      (void)rng.engine()();
      return SecureSumDependences(dataset, estimator);
    case DependenceSource::kPairwiseRr:
      return PairwiseRrDependences(dataset,
                                   options.dependence_keep_probability,
                                   rng.engine()(), estimator);
    default:
      // kProvided computes nothing; the sequential path just copies.
      return AssessDependences(dataset, options, rng);
  }
}

StatusOr<RrClustersResult> RunRrClusters(const Dataset& dataset,
                                         const RrClustersOptions& options,
                                         Rng& rng) {
  return RunRrClustersWith(
      dataset, options, rng,
      [&dataset, &rng](const std::vector<size_t>& cluster, double budget,
                       size_t /*cluster_index*/) {
        return PerturbRrJoint(dataset, cluster, budget,
                              SequentialPerturber(rng));
      },
      /*postprocess_threads=*/1);
}

StatusOr<RrClustersResult> RunRrClustersWith(
    const Dataset& dataset, const RrClustersOptions& options, Rng& rng,
    const ClusterPerturbRunner& perturb_runner, size_t postprocess_threads,
    const DependenceEstimatorOptions* assessment_estimator) {
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("cannot run RR-Clusters on empty data");
  }

  MDRR_ASSIGN_OR_RETURN(
      DependenceEstimate dependences,
      assessment_estimator != nullptr
          ? AssessDependencesSharded(dataset, options, rng,
                                     *assessment_estimator)
          : AssessDependences(dataset, options, rng));
  MDRR_ASSIGN_OR_RETURN(
      AttributeClustering clusters,
      ClusterAttributes(dataset, dependences.dependences,
                        options.clustering));

  RrClustersResult result;
  result.clusters = clusters;
  result.dependences = dependences.dependences;
  result.dependence_epsilon = dependences.epsilon;

  // Pass 1 -- randomization, cluster by cluster in order: the hook may
  // draw from a shared sequential Rng, so this pass cannot reorder.
  std::vector<RrJointPerturbation> perturbations;
  perturbations.reserve(clusters.size());
  for (size_t c = 0; c < clusters.size(); ++c) {
    double budget =
        ClusterEpsilonBudget(dataset, clusters[c], options.keep_probability,
                             options.use_paper_epsilon_formula);
    MDRR_ASSIGN_OR_RETURN(RrJointPerturbation perturbation,
                          perturb_runner(clusters[c], budget, c));
    perturbations.push_back(std::move(perturbation));
  }

  // Pass 2 -- Eq. (2) estimation, in parallel across clusters: a pure
  // function of (matrix, λ̂) per cluster, so the schedule cannot change
  // the bits. One lone cluster instead gets the backend's within-cluster
  // parallelism (the blocked LU / batched solves).
  const size_t num_clusters = clusters.size();
  std::vector<StatusOr<RrJointResult>> estimated(
      num_clusters, Status::Internal("cluster estimation did not run"));
  if (num_clusters == 1) {
    estimated[0] = EstimateRrJoint(std::move(perturbations[0]),
                                   EstimationOptions{postprocess_threads});
  } else {
    // Split the worker budget: one worker per cluster first, and when
    // clusters are fewer than workers the remainder goes into each
    // cluster's backend (blocked LU / batched solves). The split never
    // changes bits -- the backend is thread-count invariant.
    const size_t outer_workers =
        ResolveWorkerCount(postprocess_threads, num_clusters, 1);
    const size_t total_workers = ResolveWorkerCount(
        postprocess_threads, std::numeric_limits<size_t>::max(), 1);
    const size_t inner_threads =
        std::max<size_t>(1, total_workers / outer_workers);
    ParallelChunks(num_clusters, /*chunk_size=*/1, postprocess_threads,
                   [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                       size_t end) {
                     for (size_t c = begin; c < end; ++c) {
                       estimated[c] =
                           EstimateRrJoint(std::move(perturbations[c]),
                                           EstimationOptions{inner_threads});
                     }
                   });
  }

  // Pass 3 -- accounting and decode, again cluster by cluster (the
  // epsilon sum is ordered; the row decode shards freely). The clusters
  // partition the attributes, so the decoded columns are the whole
  // release.
  std::vector<std::vector<uint32_t>> columns(dataset.num_attributes());
  for (size_t c = 0; c < num_clusters; ++c) {
    MDRR_ASSIGN_OR_RETURN(RrJointResult joint, std::move(estimated[c]));
    const std::vector<size_t>& cluster = clusters[c];
    result.release_epsilon += joint.epsilon;

    for (size_t position = 0; position < cluster.size(); ++position) {
      columns[cluster[position]] =
          DecodeColumnSharded(joint.domain, joint.randomized_codes, position,
                              kDecodeChunkSize, postprocess_threads);
    }
    result.cluster_results.push_back(std::move(joint));
  }
  result.randomized = Dataset(dataset.schema(), std::move(columns));
  return result;
}

ClusterFactorizationEstimate MakeClusterEstimate(
    const RrClustersResult& result) {
  std::vector<Domain> domains;
  std::vector<std::vector<double>> joints;
  domains.reserve(result.cluster_results.size());
  joints.reserve(result.cluster_results.size());
  for (const RrJointResult& r : result.cluster_results) {
    domains.push_back(r.domain);
    joints.push_back(r.estimated);
  }
  return ClusterFactorizationEstimate(
      result.clusters, std::move(domains), std::move(joints),
      static_cast<double>(result.randomized.num_rows()));
}

}  // namespace mdrr
