// The party-loop reference semantics of the two-round session, for the
// golden tests of the batched fast path.
//
// One Party object per respondent, rounds as per-party calls: the
// straightforward reading of the Section 4.1 message flow. Party seeds
// are drawn serially from one seeder (the mt19937 session transcript);
// after that each party's randomness is self-contained, so publications
// shard freely with bit-identical output at any thread count. The
// library's RunDistributedSession must reproduce this transcript bit for
// bit under RngKind::kMt19937.

#ifndef MDRR_TESTS_SESSION_REFERENCE_H_
#define MDRR_TESTS_SESSION_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"
#include "mdrr/common/status_or.h"
#include "mdrr/core/clustering.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/protocol/session.h"
#include "mdrr/release/planner.h"
#include "mdrr/rng/rng.h"
#include "mdrr/stats/frequency.h"

namespace mdrr::protocol {

// One respondent: owns a true record and a private RNG, and only ever
// emits randomized data.
class Party {
 public:
  Party(std::vector<uint32_t> true_record, uint64_t seed)
      : true_record_(std::move(true_record)), rng_(seed) {}

  // Round 1: per-attribute randomized publication. `matrices[j]` is the
  // public randomization matrix of attribute j.
  std::vector<uint32_t> PublishIndependent(
      const std::vector<RrMatrix>& matrices) {
    MDRR_CHECK_EQ(matrices.size(), true_record_.size());
    std::vector<uint32_t> published(true_record_.size());
    for (size_t j = 0; j < true_record_.size(); ++j) {
      published[j] = matrices[j].Randomize(true_record_[j], rng_);
    }
    return published;
  }

  // Round 2: cluster-wise publication. For each cluster the party
  // composes its true values and randomizes the composite code.
  std::vector<uint32_t> PublishClusters(const AttributeClustering& clusters,
                                        const std::vector<Domain>& domains,
                                        const std::vector<RrMatrix>& matrices) {
    MDRR_CHECK_EQ(clusters.size(), domains.size());
    MDRR_CHECK_EQ(clusters.size(), matrices.size());
    std::vector<uint32_t> published(clusters.size());
    std::vector<uint32_t> tuple;
    for (size_t c = 0; c < clusters.size(); ++c) {
      tuple.clear();
      for (size_t j : clusters[c]) {
        MDRR_CHECK_LT(j, true_record_.size());
        tuple.push_back(true_record_[j]);
      }
      uint32_t true_code = static_cast<uint32_t>(domains[c].Encode(tuple));
      published[c] = matrices[c].Randomize(true_code, rng_);
    }
    return published;
  }

 private:
  std::vector<uint32_t> true_record_;
  Rng rng_;
};

// The whole session through Party objects.
inline StatusOr<SessionResult> RunPartyLoopSession(
    const Dataset& dataset, const SessionOptions& options) {
  const size_t n = dataset.num_rows();
  const size_t m = dataset.num_attributes();
  const size_t shard_size = std::max<size_t>(1, options.shard_size);
  const size_t threads = options.num_threads;
  MDRR_ASSIGN_OR_RETURN(
      release::ControllerPlan controller,
      release::ReleasePlanner::PlanController(
          options.clustering,
          release::ExecutionPolicy{release::PolicyKind::kSharded,
                                   options.seed, threads, shard_size,
                                   RngKind::kMt19937}));

  Rng seeder(options.seed);
  std::vector<Party> parties;
  parties.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> record(m);
    for (size_t j = 0; j < m; ++j) record[j] = dataset.at(i, j);
    parties.emplace_back(std::move(record), seeder.engine()());
  }

  SessionResult result;

  // Round 1: per-attribute publication at the round-1 keep probability.
  std::vector<RrMatrix> round1_matrices;
  for (size_t j = 0; j < m; ++j) {
    round1_matrices.push_back(RrMatrix::KeepUniform(
        dataset.attribute(j).cardinality(), options.round1_keep_probability));
    result.round1_epsilon += round1_matrices.back().Epsilon();
  }
  std::vector<std::vector<uint32_t>> round1_columns(
      m, std::vector<uint32_t>(n));
  ParallelChunks(n, shard_size, threads,
                 [&](size_t /*worker*/, size_t /*shard*/, size_t begin,
                     size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     std::vector<uint32_t> published =
                         parties[i].PublishIndependent(round1_matrices);
                     for (size_t j = 0; j < m; ++j) {
                       round1_columns[j][i] = published[j];
                     }
                   }
                 });
  Dataset round1_data(dataset.schema(), std::move(round1_columns));
  result.messages_round1 = n;

  // Controller: dependences on the randomized data, Algorithm 1, one
  // clustering broadcast to every party.
  MDRR_ASSIGN_OR_RETURN(result.clusters,
                        controller.AssessAndCluster(round1_data));
  result.messages_broadcast = n;

  // Round 2: cluster-wise publication at the Section 6.3.2 calibration.
  std::vector<RrMatrix> cluster_matrices;
  for (const std::vector<size_t>& cluster : result.clusters) {
    result.cluster_domains.push_back(Domain::ForAttributes(dataset, cluster));
    cluster_matrices.push_back(RrMatrix::OptimalForEpsilon(
        static_cast<size_t>(result.cluster_domains.back().size()),
        ClusterEpsilonBudget(dataset, cluster, options.keep_probability)));
    result.round2_epsilon += cluster_matrices.back().Epsilon();
  }
  const size_t num_clusters = result.clusters.size();
  std::vector<std::vector<uint32_t>> cluster_codes(
      num_clusters, std::vector<uint32_t>(n));
  ParallelChunks(n, shard_size, threads,
                 [&](size_t /*worker*/, size_t /*shard*/, size_t begin,
                     size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     std::vector<uint32_t> published =
                         parties[i].PublishClusters(result.clusters,
                                                    result.cluster_domains,
                                                    cluster_matrices);
                     for (size_t c = 0; c < num_clusters; ++c) {
                       cluster_codes[c][i] = published[c];
                     }
                   }
                 });
  result.messages_round2 = n;

  // Controller: sharded counting and Eq. (2) estimation per cluster,
  // then decode Y.
  result.randomized = dataset;
  for (size_t c = 0; c < num_clusters; ++c) {
    const Domain& domain = result.cluster_domains[c];
    const std::vector<uint32_t>& codes = cluster_codes[c];
    MDRR_ASSIGN_OR_RETURN(
        std::vector<double> estimated,
        controller.EstimateFromCounts(
            cluster_matrices[c],
            stats::ShardedHistogram(codes.size(),
                                    static_cast<size_t>(domain.size()),
                                    shard_size, threads,
                                    [&codes](size_t i) { return codes[i]; })));
    result.cluster_joints.push_back(std::move(estimated));
    for (size_t position = 0; position < result.clusters[c].size();
         ++position) {
      result.randomized.SetColumn(
          result.clusters[c][position],
          DecodeColumnSharded(domain, cluster_codes[c], position, shard_size,
                              threads));
    }
  }
  return result;
}

}  // namespace mdrr::protocol

#endif  // MDRR_TESTS_SESSION_REFERENCE_H_
