#include "mdrr/core/batch_engine.h"

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

// Fans an oracle backend over one column, shard by shard. Under
// kMt19937, shard s covers rows [s * shard_size, min(n, (s + 1) *
// shard_size)) and draws exclusively from family.Stream(stream_base + s),
// so the output is a pure function of (oracle, input, family,
// stream_base, shard_size). Under kPhilox the shards are mere work
// slices: every element draws its own counter block of philox stream
// `counter_stream` at the engine seed, so shard_size drops out entirely.
// Counts are accumulated per *worker* (O(threads x r) memory, not
// O(shards x r) -- joint domains can be huge) and merged after the join;
// integer sums commute, so the totals are deterministic even though the
// shard-to-worker assignment is not. Frequency-only backends contribute
// support counts without a microdata column.
OracleColumnResult AccumulateOracleColumnSharded(
    const FrequencyOracle& oracle, const std::vector<uint32_t>& input,
    const RngStreamFamily& family, uint64_t stream_base, size_t shard_size,
    size_t num_threads, RngKind kind, uint64_t counter_stream) {
  const size_t n = input.size();
  OracleColumnResult result;
  const bool microdata = oracle.produces_microdata();
  if (microdata) result.codes.resize(n);

  const size_t workers = ResolveWorkerCount(num_threads, n, shard_size);
  std::vector<std::vector<int64_t>> worker_counts(
      workers, std::vector<int64_t>(oracle.domain_size(), 0));

  ParallelChunks(n, shard_size, num_threads,
                 [&](size_t worker, size_t shard, size_t begin, size_t end) {
                   uint32_t* out =
                       microdata ? result.codes.data() : nullptr;
                   if (kind == RngKind::kPhilox) {
                     oracle.AccumulateRangeCounter(
                         input, begin, end, family.base_seed(), counter_stream,
                         out, worker_counts[worker].data());
                     return;
                   }
                   Rng rng = family.Stream(stream_base + shard);
                   oracle.AccumulateRange(input, begin, end, rng, out,
                                          worker_counts[worker].data());
                 });

  result.counts.assign(oracle.domain_size(), 0);
  for (const std::vector<int64_t>& partial : worker_counts) {
    for (size_t v = 0; v < partial.size(); ++v) {
      result.counts[v] += partial[v];
    }
  }
  result.lambda.assign(oracle.domain_size(), 0.0);
  if (n > 0) {
    for (size_t v = 0; v < result.counts.size(); ++v) {
      result.lambda[v] = static_cast<double>(result.counts[v]) /
                         static_cast<double>(n);
    }
  }
  return result;
}

}  // namespace

BatchPerturbationEngine::BatchPerturbationEngine(
    const BatchPerturbationOptions& options)
    : options_(options) {
  if (options_.shard_size == 0) options_.shard_size = 1;
}

size_t BatchPerturbationEngine::NumShards(size_t num_rows) const {
  return NumChunks(num_rows, options_.shard_size);
}

OracleColumnResult BatchPerturbationEngine::RunOracle(
    const FrequencyOracle& oracle, const std::vector<uint32_t>& codes,
    size_t column_index) const {
  const size_t num_shards = NumShards(codes.size());
  RngStreamFamily family(options_.seed);
  return AccumulateOracleColumnSharded(
      oracle, codes, family, 1 + column_index * num_shards,
      options_.shard_size, options_.num_threads, options_.rng,
      /*counter_stream=*/1 + column_index);
}

PerturbedColumn BatchPerturbationEngine::PerturbColumn(
    const RrMatrix& matrix, const std::vector<uint32_t>& codes,
    size_t column_index) const {
  if (options_.shard_perturber) {
    // Externalized kernel (distributed coordinator): it receives the
    // column's full randomness address and owns the determinism contract.
    return options_.shard_perturber(
        matrix, codes, 1 + column_index * NumShards(codes.size()),
        /*counter_stream=*/1 + column_index);
  }
  // The direct-encoding oracle's batched entry points delegate
  // draw-for-draw to the RrMatrix kernels, and its lambda (count / n per
  // entry) is the frequency-table proportion, so this is the matrix's
  // own sharded transcript.
  OracleColumnResult column =
      RunOracle(DirectEncodingOracle(matrix), codes, column_index);
  return PerturbedColumn{std::move(column.codes), std::move(column.lambda)};
}

StatusOr<RrIndependentResult> BatchPerturbationEngine::RunIndependent(
    const Dataset& dataset, const RrIndependentOptions& options) const {
  return RunRrIndependentWith(
      dataset, options,
      [this](const RrMatrix& matrix, const std::vector<uint32_t>& codes,
             size_t column_index) {
        return PerturbColumn(matrix, codes, column_index);
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
                       return PerturbColumn(matrix, codes, 0);
                     }));
  // Estimation never draws randomness, so routing it through the engine's
  // workers keeps the output bit-identical to the sequential path.
  return EstimateRrJoint(std::move(perturbation),
                         EstimationOptions{options_.num_threads});
}

StatusOr<RrClustersResult> BatchPerturbationEngine::RunClusters(
    const Dataset& dataset, const RrClustersOptions& options) const {
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
              return PerturbColumn(matrix, codes, cluster_index);
            });
      },
      options_.num_threads, &assessment);
}

StatusOr<AdjustmentResult> BatchPerturbationEngine::RunAdjustment(
    const std::vector<AdjustmentGroup>& groups, size_t num_records,
    AdjustmentOptions options) const {
  options.num_threads = options_.num_threads;
  options.chunk_size = options_.shard_size;
  return RunRrAdjustment(groups, num_records, options);
}

StatusOr<Dataset> BatchPerturbationEngine::SynthesizeIndependent(
    const RrIndependentResult& result, int64_t n) const {
  RngStreamFamily family(options_.seed ^ kSyntheticStreamSalt);
  return SynthesizeFromIndependentSharded(result, n, family,
                                          options_.shard_size,
                                          options_.num_threads);
}

StatusOr<Dataset> BatchPerturbationEngine::SynthesizeClusters(
    const RrClustersResult& result, int64_t n) const {
  RngStreamFamily family(options_.seed ^ kSyntheticStreamSalt);
  return SynthesizeFromClustersSharded(result, n, family,
                                       options_.shard_size,
                                       options_.num_threads);
}

}  // namespace mdrr
