#include "mdrr/protocol/session.h"

#include <algorithm>
#include <string>
#include <utility>

#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/protocol/party_block.h"
#include "mdrr/release/planner.h"
#include "mdrr/rng/rng.h"
#include "mdrr/stats/frequency.h"

namespace mdrr::protocol {

namespace {

// --- Stage helpers shared by both RNG policies, so the published
// matrices, domains and epsilon accounting are identical by construction.
// ---

// The round-1 per-attribute designs of Section 4.1, accumulating the
// round's epsilon into `result`.
std::vector<RrMatrix> DesignRound1Matrices(const Dataset& dataset,
                                           const SessionOptions& options,
                                           SessionResult* result) {
  const size_t m = dataset.num_attributes();
  std::vector<RrMatrix> matrices;
  matrices.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    matrices.push_back(RrMatrix::KeepUniform(
        dataset.attribute(j).cardinality(), options.round1_keep_probability));
    result->round1_epsilon += matrices.back().Epsilon();
  }
  return matrices;
}

// The round-2 cluster domains and Section 6.3.2-calibrated designs,
// populating result->cluster_domains and round2_epsilon. Guards the
// product domain before constructing it: uint64 overflow must surface as
// a Status (not a CHECK-abort), and published codes are uint32, so
// oversized clusters get the same cap as RR-Joint.
StatusOr<std::vector<RrMatrix>> DesignClusterMatrices(
    const Dataset& dataset, const SessionOptions& options,
    SessionResult* result) {
  std::vector<RrMatrix> matrices;
  for (const std::vector<size_t>& cluster : result->clusters) {
    MDRR_ASSIGN_OR_RETURN(
        uint64_t cluster_domain_size,
        Domain::CheckedSizeForAttributes(dataset, cluster));
    if (cluster_domain_size > (1ull << 31)) {
      return Status::OutOfRange(
          "cluster joint domain has " +
          std::to_string(cluster_domain_size) +
          " categories; too large to publish as composite codes");
    }
    result->cluster_domains.push_back(
        Domain::ForAttributes(dataset, cluster));
    double budget =
        ClusterEpsilonBudget(dataset, cluster, options.keep_probability);
    matrices.push_back(RrMatrix::OptimalForEpsilon(
        static_cast<size_t>(result->cluster_domains.back().size()), budget));
    result->round2_epsilon += matrices.back().Epsilon();
  }
  return matrices;
}

// --- mt19937 path: the protocol as columnar sweeps over a PartyBlock.
// Publications, clustering input, counts, decode, epsilons and message
// accounting are all bit-identical to the one-object-per-party loop of
// tests/session_reference.h. ---
StatusOr<SessionResult> RunBatchedSession(
    const Dataset& dataset, const SessionOptions& options,
    const release::ControllerPlan& controller) {
  const size_t n = dataset.num_rows();
  const size_t m = dataset.num_attributes();
  const size_t shard_size = std::max<size_t>(1, options.shard_size);
  const size_t threads = options.num_threads;

  Rng seeder(options.seed);
  PartyBlock parties(dataset, seeder);

  SessionResult result;

  // Round 1: engines are lane-seeded and publish in one fused sweep.
  std::vector<RrMatrix> round1_matrices =
      DesignRound1Matrices(dataset, options, &result);
  std::vector<std::vector<uint32_t>> round1_columns(
      m, std::vector<uint32_t>(n));
  parties.PublishIndependent(round1_matrices, shard_size, threads,
                             &round1_columns);
  Dataset round1_data(dataset.schema(), std::move(round1_columns));
  result.messages_round1 = n;

  MDRR_ASSIGN_OR_RETURN(result.clusters,
                        controller.AssessAndCluster(round1_data));
  result.messages_broadcast = n;

  // Round 2: one sweep publishes the composite codes and fuses the
  // controller's counting and per-position decode into the same pass.
  MDRR_ASSIGN_OR_RETURN(
      std::vector<RrMatrix> cluster_matrices,
      DesignClusterMatrices(dataset, options, &result));
  ClusterSweepResult sweep = parties.PublishClusters(
      result.clusters, result.cluster_domains, cluster_matrices, shard_size,
      threads);
  result.messages_round2 = n;

  // Controller: Eq. (2) estimation straight from the fused counts (equal
  // to a post-hoc sharded histogram of the codes), decoded columns moved
  // into the release.
  result.randomized = dataset;
  for (size_t c = 0; c < result.clusters.size(); ++c) {
    MDRR_ASSIGN_OR_RETURN(
        std::vector<double> estimated,
        controller.EstimateFromCounts(
            cluster_matrices[c],
            stats::FrequencyTable(std::move(sweep.counts[c]))));
    result.cluster_joints.push_back(std::move(estimated));
    for (size_t position = 0; position < result.clusters[c].size();
         ++position) {
      result.randomized.SetColumn(result.clusters[c][position],
                                  std::move(sweep.decoded[c][position]));
    }
  }
  return result;
}

// --- Counter (philox) path: the same message flow with element-addressed
// party randomness. Round-1 attribute j draws from philox stream
// kRound1StreamBase + j with party i as element i; round-2 cluster c from
// kRound2StreamBase + c. No per-party seeding pass exists, so the
// transcript is a pure function of (dataset, seed) invariant under thread
// count AND shard grain by construction. The stream bases keep the
// session's philox streams disjoint from the batch engine's column
// streams (small integers) at the same seed. ---
constexpr uint64_t kRound1StreamBase = 1ull << 33;
constexpr uint64_t kRound2StreamBase = 1ull << 34;

StatusOr<SessionResult> RunCounterSession(
    const Dataset& dataset, const SessionOptions& options,
    const release::ControllerPlan& controller) {
  const size_t n = dataset.num_rows();
  const size_t m = dataset.num_attributes();
  const size_t shard_size = std::max<size_t>(1, options.shard_size);

  SessionResult result;

  // Every publication is one sharded column perturbation whose philox
  // stream is the only part of its address that matters.
  auto publish = [&](const RrMatrix& matrix,
                     const std::vector<uint32_t>& codes, uint64_t stream) {
    return PerturbColumnSharded(
        DirectEncodingOracle(matrix), codes,
        ColumnAddress{RngKind::kPhilox, options.seed, 0, stream}, shard_size,
        options.num_threads);
  };

  // Round 1: per-attribute publication, one counter stream per attribute.
  std::vector<RrMatrix> round1_matrices =
      DesignRound1Matrices(dataset, options, &result);
  std::vector<std::vector<uint32_t>> round1_columns(m);
  for (size_t j = 0; j < m; ++j) {
    round1_columns[j] = publish(round1_matrices[j], dataset.column(j),
                                kRound1StreamBase + j)
                            .codes;
  }
  Dataset round1_data(dataset.schema(), std::move(round1_columns));
  result.messages_round1 = n;

  MDRR_ASSIGN_OR_RETURN(result.clusters,
                        controller.AssessAndCluster(round1_data));
  result.messages_broadcast = n;

  // Round 2: composite codes per cluster, one counter stream per cluster,
  // with the controller's counting fused into the randomization pass.
  MDRR_ASSIGN_OR_RETURN(
      std::vector<RrMatrix> cluster_matrices,
      DesignClusterMatrices(dataset, options, &result));
  result.messages_round2 = n;
  result.randomized = dataset;
  for (size_t c = 0; c < result.clusters.size(); ++c) {
    const Domain& domain = result.cluster_domains[c];
    const std::vector<size_t>& cluster = result.clusters[c];
    OracleColumnResult published =
        publish(cluster_matrices[c], domain.ComposeColumns(dataset, cluster),
                kRound2StreamBase + c);
    MDRR_ASSIGN_OR_RETURN(
        std::vector<double> estimated,
        controller.EstimateFromCounts(
            cluster_matrices[c],
            stats::FrequencyTable(std::move(published.counts))));
    result.cluster_joints.push_back(std::move(estimated));
    for (size_t position = 0; position < cluster.size(); ++position) {
      result.randomized.SetColumn(
          cluster[position],
          controller.DecodeColumn(domain, published.codes, position));
    }
  }
  return result;
}

}  // namespace

StatusOr<SessionResult> RunDistributedSession(const Dataset& dataset,
                                              const SessionOptions& options) {
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("a session needs at least one party");
  }
  // The controller's stage work (dependence assessment, Algorithm 1,
  // Eq. (2) estimation, decode) goes through the release layer's
  // controller plan under one execution policy; the sharded primitives
  // it routes to are bit-identical for any thread count.
  MDRR_ASSIGN_OR_RETURN(
      release::ControllerPlan controller,
      release::ReleasePlanner::PlanController(
          options.clustering,
          release::ExecutionPolicy{release::PolicyKind::kSharded,
                                   options.seed, options.num_threads,
                                   std::max<size_t>(1, options.shard_size),
                                   options.rng}));
  if (options.rng == RngKind::kPhilox) {
    return RunCounterSession(dataset, options, controller);
  }
  return RunBatchedSession(dataset, options, controller);
}

}  // namespace mdrr::protocol
