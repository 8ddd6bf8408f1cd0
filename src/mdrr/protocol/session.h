// Party-level simulation of the distributed protocol.
//
// The core library operates on columns for speed; this layer restates the
// same protocols through the actual message flow of the paper: n parties,
// each holding exactly one private record, talking to an untrusted
// controller. RR-Clusters is the two-round interaction of Section 4.1:
//
//   round 1: every party publishes a per-attribute randomized record;
//   the controller computes dependences on the randomized data (Cor. 1),
//   runs Algorithm 1, and broadcasts the clustering;
//   round 2: every party re-randomizes her true record cluster-wise
//   (RR-Joint per cluster at the Section 6.3.2 calibration) and
//   publishes; the controller estimates cluster joints with Eq. (2).
//
// Parties never reveal true values; the controller sees only randomized
// publications. Message counts are accounted per phase. Each party owns
// an mt19937 engine seeded serially from options.seed. The parties are
// stored columnar in a PartyBlock and publish in sharded sweeps; the
// one-object-per-party reading of the protocol lives in
// tests/session_reference.h as the golden reference.

#ifndef MDRR_PROTOCOL_SESSION_H_
#define MDRR_PROTOCOL_SESSION_H_

#include <cstdint>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/clustering.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/dataset/domain.h"

namespace mdrr::protocol {

struct SessionOptions {
  double keep_probability = 0.7;
  ClusteringOptions clustering;
  // Keep probability of the round-1 (dependence assessment) publication.
  double round1_keep_probability = 0.7;
  uint64_t seed = 1;
  // Worker threads for the sharded phases (party publications in both
  // rounds, the controller's pairwise statistics, per-cluster counting
  // and decode); 0 means one per hardware core. Party seeds are drawn
  // serially and each party's randomness is self-contained, so the
  // session transcript is bit-identical for any thread count.
  size_t num_threads = 1;
  // Parties per publication batch (the work-distribution grain; never
  // changes results).
  size_t shard_size = 1 << 16;
};

struct SessionResult {
  AttributeClustering clusters;
  // Per-cluster domains and Eq. (2) estimated (projected) joints.
  std::vector<Domain> cluster_domains;
  std::vector<std::vector<double>> cluster_joints;
  // The round-2 randomized data decoded to per-attribute columns.
  Dataset randomized;
  // Epsilon of round 1 (dependence assessment) and round 2 (release);
  // the session total is their sequential composition.
  double round1_epsilon = 0.0;
  double round2_epsilon = 0.0;
  // Party -> controller messages per round (one record each) plus the
  // controller's clustering broadcast.
  uint64_t messages_round1 = 0;
  uint64_t messages_broadcast = 0;
  uint64_t messages_round2 = 0;
};

// Runs the full two-round session over the parties implied by `dataset`
// (row i becomes party i). The dataset is used only to seed the parties'
// private records; the controller path never touches it. The transcript
// (publications, clustering, estimates, decoded release, epsilons,
// message counts) is a pure function of (dataset, options.seed): thread
// count and shard grain never change it.
StatusOr<SessionResult> RunDistributedSession(const Dataset& dataset,
                                              const SessionOptions& options);

}  // namespace mdrr::protocol

#endif  // MDRR_PROTOCOL_SESSION_H_
