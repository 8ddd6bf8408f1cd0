#include "mdrr/protocol/session.h"

#include <algorithm>
#include <string>
#include <utility>

#include "mdrr/core/rr_joint.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/protocol/party_block.h"
#include "mdrr/release/planner.h"
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"
#include "mdrr/stats/frequency.h"

namespace mdrr::protocol {

StatusOr<SessionResult> RunDistributedSession(const Dataset& dataset,
                                              const SessionOptions& options) {
  const size_t n = dataset.num_rows();
  const size_t m = dataset.num_attributes();
  if (n == 0) {
    return Status::InvalidArgument("a session needs at least one party");
  }
  const size_t shard_size = std::max<size_t>(1, options.shard_size);
  const size_t threads = options.num_threads;
  // The controller's stage work (dependence assessment, Algorithm 1,
  // Eq. (2) estimation) goes through the release layer's
  // controller plan under one execution policy; the sharded primitives
  // it routes to are bit-identical for any thread count.
  MDRR_ASSIGN_OR_RETURN(
      release::ControllerPlan controller,
      release::ReleasePlanner::PlanController(
          options.clustering,
          release::ExecutionPolicy{release::PolicyKind::kSharded,
                                   options.seed, threads, shard_size,
                                   RngKind::kMt19937}));

  // The protocol runs as columnar sweeps over a PartyBlock. Publications,
  // clustering input, counts, decode, epsilons and message accounting are
  // all bit-identical to the one-object-per-party loop of
  // tests/session_reference.h.
  Rng seeder(options.seed);
  PartyBlock parties(dataset, seeder);

  SessionResult result;

  // Round 1: the per-attribute designs of Section 4.1; engines are
  // lane-seeded and publish in one fused sweep.
  std::vector<RrMatrix> round1_matrices;
  round1_matrices.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    round1_matrices.push_back(RrMatrix::KeepUniform(
        dataset.attribute(j).cardinality(), options.round1_keep_probability));
    result.round1_epsilon += round1_matrices.back().Epsilon();
  }
  std::vector<std::vector<uint32_t>> round1_columns(
      m, std::vector<uint32_t>(n));
  parties.PublishIndependent(round1_matrices, shard_size, threads,
                             &round1_columns);
  Dataset round1_data(dataset.schema(), std::move(round1_columns));
  result.messages_round1 = n;

  MDRR_ASSIGN_OR_RETURN(result.clusters,
                        controller.AssessAndCluster(round1_data));
  result.messages_broadcast = n;

  // Round 2: the cluster domains and Section 6.3.2-calibrated designs.
  // The product domain is guarded before it is constructed: uint64
  // overflow must surface as a Status (not a CHECK-abort), and published
  // codes are uint32, so oversized clusters get the same cap as RR-Joint.
  std::vector<RrMatrix> cluster_matrices;
  for (const std::vector<size_t>& cluster : result.clusters) {
    MDRR_ASSIGN_OR_RETURN(
        uint64_t cluster_domain_size,
        Domain::CheckedSizeForAttributes(dataset, cluster));
    if (cluster_domain_size > (1ull << 31)) {
      return Status::OutOfRange(
          "cluster joint domain has " +
          std::to_string(cluster_domain_size) +
          " categories; too large to publish as composite codes");
    }
    result.cluster_domains.push_back(
        Domain::ForAttributes(dataset, cluster));
    double budget =
        ClusterEpsilonBudget(dataset, cluster, options.keep_probability);
    cluster_matrices.push_back(RrMatrix::OptimalForEpsilon(
        static_cast<size_t>(result.cluster_domains.back().size()), budget));
    result.round2_epsilon += cluster_matrices.back().Epsilon();
  }
  // One sweep publishes the composite codes and fuses the controller's
  // counting and per-position decode into the same pass.
  ClusterSweepResult sweep = parties.PublishClusters(
      result.clusters, result.cluster_domains, cluster_matrices, shard_size,
      threads);
  result.messages_round2 = n;

  // Controller: Eq. (2) estimation straight from the fused counts (equal
  // to a post-hoc sharded histogram of the codes), decoded columns moved
  // into the release. The clusters partition the attributes, so the
  // decoded columns are the whole release.
  std::vector<std::vector<uint32_t>> columns(dataset.num_attributes());
  for (size_t c = 0; c < result.clusters.size(); ++c) {
    MDRR_ASSIGN_OR_RETURN(
        std::vector<double> estimated,
        controller.EstimateFromCounts(
            cluster_matrices[c],
            stats::FrequencyTable(std::move(sweep.counts[c]))));
    result.cluster_joints.push_back(std::move(estimated));
    for (size_t position = 0; position < result.clusters[c].size();
         ++position) {
      columns[result.clusters[c][position]] =
          std::move(sweep.decoded[c][position]);
    }
  }
  result.randomized = Dataset(dataset.schema(), std::move(columns));
  return result;
}

}  // namespace mdrr::protocol
