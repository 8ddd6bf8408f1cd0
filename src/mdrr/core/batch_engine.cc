#include "mdrr/core/batch_engine.h"

#include <memory>
#include <utility>

#include "mdrr/common/parallel.h"
#include "mdrr/core/perturber.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/core/synthetic.h"

namespace mdrr {

namespace {

// Salt separating the synthetic-release stream family from the
// perturbation family at the same engine seed.
constexpr uint64_t kSyntheticStreamSalt = 0x53594e5448455349ULL;  // "SYNTHESI"

}  // namespace

BatchPerturbationEngine::BatchPerturbationEngine(
    const BatchPerturbationOptions& options)
    : options_(options) {
  if (options_.shard_size == 0) options_.shard_size = 1;
}

BatchPerturbationEngine BatchPerturbationEngine::Sequential(uint64_t seed) {
  BatchPerturbationOptions options;
  options.seed = seed;
  options.num_threads = 1;
  BatchPerturbationEngine engine(options);
  engine.serial_ = std::make_unique<Rng>(seed);
  return engine;
}

size_t BatchPerturbationEngine::NumShards(size_t num_rows) const {
  return NumChunks(num_rows, options_.shard_size);
}

ColumnAddress BatchPerturbationEngine::AddressOf(size_t column_index,
                                                 size_t num_rows) const {
  return ColumnAddress{options_.rng, options_.seed,
                       1 + column_index * NumShards(num_rows),
                       /*counter_stream=*/1 + column_index};
}

OracleColumnResult BatchPerturbationEngine::RunOracle(
    const FrequencyOracle& oracle, const std::vector<uint32_t>& codes,
    size_t column_index) const {
  return PerturbColumnSharded(oracle, codes,
                              AddressOf(column_index, codes.size()),
                              options_.shard_size, options_.num_threads);
}

StatusOr<PerturbedColumn> BatchPerturbationEngine::PerturbColumn(
    const FrequencyOracle& oracle, const std::vector<uint32_t>& codes,
    size_t column_index) const {
  if (serial_ != nullptr) {
    return PerturbColumnSequential(oracle, codes, *serial_);
  }
  if (options_.shard_perturber) {
    // Externalized kernel (distributed coordinator): it receives the
    // column's full randomness address and owns the determinism contract.
    if (oracle.backend() != OracleBackend::kDirect) {
      return Status::FailedPrecondition(
          "the shard perturber ships RR matrices; frequency-only oracle "
          "backends run in process");
    }
    const ColumnAddress address = AddressOf(column_index, codes.size());
    return options_.shard_perturber(
        static_cast<const DirectEncodingOracle&>(oracle).matrix(), codes,
        address.stream_base, address.counter_stream);
  }
  OracleColumnResult column = RunOracle(oracle, codes, column_index);
  return PerturbedColumn{std::move(column.codes), std::move(column.lambda)};
}

StatusOr<RrIndependentResult> BatchPerturbationEngine::RunIndependent(
    const Dataset& dataset, const RrIndependentOptions& options) const {
  MDRR_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<FrequencyOracle>> oracles,
      MakeIndependentOracles(dataset, options, OracleBackend::kDirect, 0.0));
  return RunRrIndependentWith(
      dataset, oracles, /*microdata=*/true,
      [this](const FrequencyOracle& oracle, const std::vector<uint32_t>& codes,
             size_t column_index) {
        return PerturbColumn(oracle, codes, column_index);
      });
}

StatusOr<RrJointResult> BatchPerturbationEngine::RunJoint(
    const Dataset& dataset, const std::vector<size_t>& attributes,
    double epsilon) const {
  MDRR_ASSIGN_OR_RETURN(
      RrJointPerturbation perturbation,
      PerturbRrJoint(dataset, attributes, epsilon,
                     [this](const RrMatrix& matrix,
                            const std::vector<uint32_t>& codes,
                            size_t /*column_index*/) {
                       return PerturbColumn(DirectEncodingOracle(matrix),
                                            codes, 0);
                     }));
  // Estimation never draws randomness, so routing it through the engine's
  // workers keeps the output bit-identical to the sequential path.
  return EstimateRrJoint(std::move(perturbation),
                         EstimationOptions{options_.num_threads});
}

StatusOr<RrClustersResult> BatchPerturbationEngine::RunClusters(
    const Dataset& dataset, const RrClustersOptions& options) const {
  if (serial_ != nullptr) return RunRrClusters(dataset, options, *serial_);
  RngStreamFamily family(options_.seed);
  Rng serial_rng = family.Stream(0);
  DependenceEstimatorOptions assessment;
  assessment.rng = options_.rng;
  assessment.sharding.num_threads = options_.num_threads;
  assessment.sharding.record_chunk_size = options_.shard_size;
  return RunRrClustersWith(
      dataset, options, serial_rng,
      [this, &dataset](const std::vector<size_t>& cluster, double budget,
                       size_t cluster_index) {
        return PerturbRrJoint(
            dataset, cluster, budget,
            [this, cluster_index](const RrMatrix& matrix,
                                  const std::vector<uint32_t>& codes,
                                  size_t /*column_index*/) {
              return PerturbColumn(DirectEncodingOracle(matrix), codes,
                                   cluster_index);
            });
      },
      options_.num_threads, &assessment);
}

StatusOr<AdjustmentResult> BatchPerturbationEngine::RunAdjustment(
    const std::vector<AdjustmentGroup>& groups, size_t num_records,
    AdjustmentOptions options) const {
  if (serial_ == nullptr) {
    options.num_threads = options_.num_threads;
    options.chunk_size = options_.shard_size;
  }
  return RunRrAdjustment(groups, num_records, options);
}

StatusOr<Dataset> BatchPerturbationEngine::SynthesizeIndependent(
    const RrIndependentResult& result, int64_t n) const {
  if (serial_ != nullptr) return SynthesizeFromIndependent(result, n, *serial_);
  RngStreamFamily family(options_.seed ^ kSyntheticStreamSalt);
  return SynthesizeFromIndependentSharded(result, n, family,
                                          options_.shard_size,
                                          options_.num_threads);
}

StatusOr<Dataset> BatchPerturbationEngine::SynthesizeClusters(
    const RrClustersResult& result, int64_t n) const {
  if (serial_ != nullptr) return SynthesizeFromClusters(result, n, *serial_);
  RngStreamFamily family(options_.seed ^ kSyntheticStreamSalt);
  return SynthesizeFromClustersSharded(result, n, family,
                                       options_.shard_size,
                                       options_.num_threads);
}

}  // namespace mdrr
