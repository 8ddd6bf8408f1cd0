// RR-Clusters (Section 4): assess attribute dependences with one of the
// privacy-preserving estimators, partition the attributes with Algorithm
// 1, then run RR-Joint within each cluster at the Section 6.3.2
// equivalent-risk calibration.

#ifndef MDRR_CORE_RR_CLUSTERS_H_
#define MDRR_CORE_RR_CLUSTERS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/clustering.h"
#include "mdrr/core/dependence_estimators.h"
#include "mdrr/core/joint_estimate.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

enum class DependenceSource {
  kOracle,              // Trusted-party dependences (baseline).
  kRandomizedResponse,  // Section 4.1.
  kSecureSum,           // Section 4.2.
  kPairwiseRr,          // Section 4.3.
  kProvided,            // Caller-supplied matrix (hoisted computation).
};

struct RrClustersOptions {
  // Per-attribute keep probability p; the cluster budget is the sum of
  // the per-attribute epsilons (Section 6.3.2).
  double keep_probability = 0.7;
  ClusteringOptions clustering;
  DependenceSource dependence_source = DependenceSource::kOracle;
  // Required iff dependence_source == kProvided; not owned.
  const linalg::Matrix* provided_dependences = nullptr;
  // Keep probability of the dependence-assessment round (Sections 4.1 and
  // 4.3).
  double dependence_keep_probability = 0.7;
  // Use the paper's printed epsilon formula for calibration instead of
  // the exact Expression (4) value (see DESIGN.md).
  bool use_paper_epsilon_formula = false;
};

struct RrClustersResult {
  AttributeClustering clusters;
  std::vector<RrJointResult> cluster_results;
  // Y: the randomized data decoded back to per-attribute columns.
  Dataset randomized;
  // Epsilon of the data release (sequential composition over clusters).
  double release_epsilon = 0.0;
  // Epsilon spent assessing dependences (0 for oracle/provided).
  double dependence_epsilon = 0.0;
  // The dependence matrix actually used for clustering.
  linalg::Matrix dependences;
};

// Sharded dependence assessment. Every estimator shards on the
// DependencePairGrid scheduler (core/dependence.h): kOracle, kSecureSum
// (whose exact sums are the trusted party's matrix) and
// kRandomizedResponse through DependenceMatrixSharded, and kPairwiseRr
// through its stream-per-pair masking (pair p draws on stream 1 + p),
// with output bit-identical at any thread count and shard grain under
// both RNG policies. kProvided computes nothing: it copies the supplied
// matrix, failing if none was supplied. `estimator.rng` selects the
// draw addressing (kPhilox additionally shards record ranges); every
// source but kOracle and kProvided still takes exactly one engine word
// from `rng`, like the sequential path, even kSecureSum, which draws
// nothing with it.
StatusOr<DependenceEstimate> AssessDependencesSharded(
    const Dataset& dataset, const RrClustersOptions& options, Rng& rng,
    const DependenceEstimatorOptions& estimator);

// Runs the full RR-Clusters protocol. Fails on empty data or if a
// dependence estimator fails.
StatusOr<RrClustersResult> RunRrClusters(const Dataset& dataset,
                                         const RrClustersOptions& options,
                                         Rng& rng);

// Runs the randomization half of RR-Joint for one cluster at its epsilon
// budget (PerturbRrJoint or a sharded equivalent). `cluster_index` is the
// cluster's position in the clustering, so implementations can key
// disjoint RNG sub-stream ranges off it. Estimation is NOT part of the
// hook: it draws no randomness, so the frame runs it for all clusters in
// parallel after the perturbation pass.
using ClusterPerturbRunner = std::function<StatusOr<RrJointPerturbation>(
    const std::vector<size_t>& cluster, double epsilon_budget,
    size_t cluster_index)>;

// The protocol frame behind RunRrClusters, with the per-cluster joint
// randomization pluggable (BatchPerturbationEngine substitutes a sharded
// runner). `rng` drives the dependence-assessment round. The
// perturbation pass visits clusters in order (its RNG transcript is
// sequential); the deterministic post-passes -- Eq. (2) estimation
// through the fast backend across clusters, then the decode of composite
// codes back to per-attribute columns -- shard over `postprocess_threads`
// workers (0 = one per core) with bit-identical output at any thread
// count. When `assessment_estimator` is non-null the dependence round
// runs through AssessDependencesSharded instead of the sequential
// estimators (its sharding + RNG-kind options route into the
// estimators); not owned.
StatusOr<RrClustersResult> RunRrClustersWith(
    const Dataset& dataset, const RrClustersOptions& options, Rng& rng,
    const ClusterPerturbRunner& perturb_runner, size_t postprocess_threads,
    const DependenceEstimatorOptions* assessment_estimator = nullptr);

// The RR-Clusters joint-query estimator (independent clusters, estimated
// joint within each cluster).
ClusterFactorizationEstimate MakeClusterEstimate(
    const RrClustersResult& result);

}  // namespace mdrr

#endif  // MDRR_CORE_RR_CLUSTERS_H_
