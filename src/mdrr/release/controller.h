// Controller-side stage bundle for protocols whose perturbation happens
// remotely (the party-level session of protocol/): the parties randomize
// their own records, so the controller needs exactly the assessment /
// clustering / estimation stages (the decode fuses into the parties'
// round-2 sweep) -- under the same ExecutionPolicy as a full in-process
// release. ReleasePlanner lowers a policy into a ControllerPlan
// (planner.h); protocol/session.cc is the consumer.
//
// Every operation routes through the sharded stage primitives
// (DependenceMatrixSharded, the threaded Eq. (2) backend), so results
// are bit-identical for any thread count; kSequential simply pins one
// worker.

#ifndef MDRR_RELEASE_CONTROLLER_H_
#define MDRR_RELEASE_CONTROLLER_H_

#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/clustering.h"
#include "mdrr/core/dependence.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/release/spec.h"
#include "mdrr/stats/frequency.h"

namespace mdrr::release {

class ControllerPlan {
 public:
  // Use ReleasePlanner::PlanController to obtain a validated plan.
  ControllerPlan(ClusteringOptions clustering, ExecutionPolicy policy);

  // Corollary 1 dependences on the published (randomized) data followed
  // by Algorithm 1. `dependences_out`, when non-null, receives the
  // assessed matrix.
  StatusOr<AttributeClustering> AssessAndCluster(
      const Dataset& published,
      linalg::Matrix* dependences_out = nullptr) const;

  // Eq. (2) projected estimate from a counted publication -- sweeps
  // fuse the counting into the randomization pass (protocol/PartyBlock).
  // Callers arriving with equal counts get bit-identical estimates at any
  // thread count under the plan's policy.
  StatusOr<std::vector<double>> EstimateFromCounts(
      const RrMatrix& matrix, const stats::FrequencyTable& counts) const;

  const ExecutionPolicy& policy() const { return policy_; }

 private:
  size_t Threads() const;

  ClusteringOptions clustering_;
  ExecutionPolicy policy_;
};

}  // namespace mdrr::release

#endif  // MDRR_RELEASE_CONTROLLER_H_
