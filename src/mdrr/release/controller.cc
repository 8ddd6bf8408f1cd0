#include "mdrr/release/controller.h"

#include <algorithm>

#include "mdrr/core/estimator.h"

namespace mdrr::release {

ControllerPlan::ControllerPlan(ClusteringOptions clustering,
                               ExecutionPolicy policy)
    : clustering_(clustering), policy_(policy) {
  policy_.shard_size = std::max<size_t>(1, policy_.shard_size);
}

size_t ControllerPlan::Threads() const {
  return policy_.kind == PolicyKind::kSequential ? 1 : policy_.num_threads;
}

StatusOr<AttributeClustering> ControllerPlan::AssessAndCluster(
    const Dataset& published, linalg::Matrix* dependences_out) const {
  if (published.num_rows() == 0) {
    return Status::InvalidArgument("cannot assess dependences on empty data");
  }
  DependenceShardingOptions sharding;
  sharding.num_threads = Threads();
  sharding.record_chunk_size = policy_.shard_size;
  linalg::Matrix dependences = DependenceMatrixSharded(published, sharding);
  if (dependences_out != nullptr) *dependences_out = dependences;
  return ClusterAttributes(published.Cardinalities(), dependences,
                           clustering_);
}

StatusOr<std::vector<double>> ControllerPlan::EstimateFromCounts(
    const RrMatrix& matrix, const stats::FrequencyTable& counts) const {
  // The fast estimation backend is bit-identical at any thread count, so
  // the policy's workers are a pure speed knob here too.
  return EstimateProjectedDistribution(matrix, counts.Proportions(),
                                       EstimationOptions{Threads()});
}

}  // namespace mdrr::release
