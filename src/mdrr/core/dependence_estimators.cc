#include "mdrr/core/dependence_estimators.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

DependenceEstimate OracleDependences(const Dataset& dataset) {
  DependenceEstimate result;
  result.dependences = DependenceMatrix(dataset);
  result.epsilon = 0.0;
  result.messages = 0;
  return result;
}

DependenceEstimate OracleDependencesSharded(
    const Dataset& dataset, const DependenceShardingOptions& sharding) {
  DependenceEstimate result;
  result.dependences = DependenceMatrixSharded(dataset, sharding);
  result.epsilon = 0.0;
  result.messages = 0;
  return result;
}

namespace {

// Point-to-point messages of the Section 4.2 secure sums that aggregate
// every pair's bivariate table: one n-party sum per cell, each n shares
// per party plus n broadcasts. Wide product domains can exceed 64 bits,
// so the sum over pairs saturates instead of wrapping
// (DependenceEstimate::messages contract).
uint64_t SecureSumMessages(const Dataset& dataset) {
  const uint64_t n = dataset.num_rows();
  const uint64_t per_cell = n * n + n;
  uint64_t messages = 0;
  for (size_t i = 0; i < dataset.num_attributes(); ++i) {
    for (size_t j = i + 1; j < dataset.num_attributes(); ++j) {
      const uint64_t pair =
          static_cast<uint64_t>(dataset.attribute(i).cardinality()) *
          dataset.attribute(j).cardinality() * per_cell;
      messages = pair > std::numeric_limits<uint64_t>::max() - messages
                     ? std::numeric_limits<uint64_t>::max()
                     : messages + pair;
    }
  }
  return messages;
}

// The shared round-1 publication of the Section 4.1 assessment: every
// attribute randomized through KeepUniform(|A|, p) on one sequential
// stream -- the historical mt19937 transcript, byte-identical since the
// estimator landed. Returns the randomized data and accumulates epsilon.
Dataset PublishRandomizedRound(const Dataset& dataset,
                               double keep_probability, Rng& rng,
                               double* epsilon) {
  Dataset randomized = dataset;
  for (size_t j = 0; j < dataset.num_attributes(); ++j) {
    size_t r = dataset.attribute(j).cardinality();
    RrMatrix matrix = RrMatrix::KeepUniform(r, keep_probability);
    // In-place rewrite of the copied column: randomized codes are < r by
    // construction, and no per-attribute column is allocated.
    matrix.RandomizeColumnInto(dataset.column(j), rng,
                               randomized.MutableColumn(j));
    *epsilon += matrix.Epsilon();
  }
  return randomized;
}

// Counter-policy round-1 publication: attribute j's column is drawn from
// counter stream 1 + j with element = record index, so the publication
// shards over record ranges and the transcript is a pure function of
// (dataset, keep_probability, seed) -- invariant to thread count and
// chunk grain by construction.
Dataset PublishRandomizedRoundCounter(const Dataset& dataset,
                                      double keep_probability, uint64_t seed,
                                      const DependenceShardingOptions& sharding,
                                      double* epsilon) {
  std::vector<std::vector<uint32_t>> columns(dataset.num_attributes());
  for (size_t j = 0; j < columns.size(); ++j) {
    RrMatrix matrix =
        RrMatrix::KeepUniform(dataset.attribute(j).cardinality(),
                              keep_probability);
    *epsilon += matrix.Epsilon();
    columns[j] = PerturbColumnSharded(
                     DirectEncodingOracle(std::move(matrix)),
                     dataset.column(j),
                     ColumnAddress{RngKind::kPhilox, seed, 0,
                                   1 + static_cast<uint64_t>(j)},
                     std::max<size_t>(1, sharding.record_chunk_size),
                     sharding.num_threads)
                     .codes;
  }
  return Dataset(dataset.schema(), std::move(columns));
}

}  // namespace

DependenceEstimate RandomizedResponseDependences(const Dataset& dataset,
                                                 double keep_probability,
                                                 uint64_t seed) {
  Rng rng(seed);
  DependenceEstimate result;
  result.epsilon = 0.0;
  Dataset randomized =
      PublishRandomizedRound(dataset, keep_probability, rng, &result.epsilon);
  result.dependences = DependenceMatrix(randomized);
  // Every party ships one randomized record to the aggregating party:
  // n messages of m values each.
  result.messages = static_cast<uint64_t>(dataset.num_rows());
  return result;
}

DependenceEstimate RandomizedResponseDependencesSharded(
    const Dataset& dataset, double keep_probability, uint64_t seed,
    const DependenceEstimatorOptions& options) {
  DependenceEstimate result;
  result.epsilon = 0.0;
  Rng rng(seed);  // Consumed on the mt19937 path only.
  Dataset randomized =
      options.rng == RngKind::kPhilox
          ? PublishRandomizedRoundCounter(dataset, keep_probability, seed,
                                          options.sharding, &result.epsilon)
          : PublishRandomizedRound(dataset, keep_probability, rng,
                                   &result.epsilon);
  result.dependences = DependenceMatrixSharded(randomized, options.sharding);
  result.messages = static_cast<uint64_t>(dataset.num_rows());
  return result;
}

DependenceEstimate SecureSumDependences(
    const Dataset& dataset, const DependenceEstimatorOptions& options) {
  DependenceEstimate result;
  result.dependences = DependenceMatrixSharded(dataset, options.sharding);
  // Exact values are released: not differentially private.
  result.epsilon = std::numeric_limits<double>::infinity();
  result.messages = SecureSumMessages(dataset);
  return result;
}

StatusOr<DependenceEstimate> PairwiseRrDependences(
    const Dataset& dataset, double keep_probability, uint64_t seed,
    const DependenceEstimatorOptions& options) {
  const size_t m = dataset.num_attributes();
  const size_t n = dataset.num_rows();
  if (n == 0) return Status::InvalidArgument("empty dataset");
  const size_t num_pairs = m < 2 ? 0 : m * (m - 1) / 2;
  const size_t chunk_size =
      std::max<size_t>(1, options.sharding.record_chunk_size);

  // Reused per-worker scratch: composing, masking and the lambda
  // recovery all write into these instead of allocating per pair.
  struct PairScratch {
    std::vector<uint32_t> pair_codes;
    std::vector<uint32_t> masked;
    std::vector<int64_t> masked_counts;
    std::vector<double> lambda;
  };
  std::vector<PairScratch> scratch(ResolveWorkerCount(
      options.sharding.num_threads, num_pairs, /*chunk_size=*/1));
  // Epsilon per pair, reduced in pair order after the grid.
  std::vector<double> pair_epsilon(num_pairs, 0.0);

  // One pair: mask the composed product-domain column on stream 1 + p,
  // count the masked column (the exact secure-sum aggregation), recover
  // the joint with Eq. (2). A pair that runs alone shards its
  // compose/mask/count scan over record ranges where the draw plan
  // permits (philox masking is element-addressed; mt19937 masking stays
  // a sequential stream).
  auto run_pair = [&](const AttributePair& pair, size_t worker,
                      bool shard_records) -> StatusOr<double> {
    PairScratch& pad = scratch[worker];
    const Attribute& a = dataset.attribute(pair.i);
    const Attribute& b = dataset.attribute(pair.j);
    // Domain CHECKs the product against the uint32 composite-code cap,
    // like Domain::ComposeColumns (the compose loop below is its
    // two-column special case: code = a * |B| + b).
    Domain pair_domain({a.cardinality(), b.cardinality()});
    MDRR_CHECK_LE(pair_domain.size(),
                  static_cast<uint64_t>(
                      std::numeric_limits<uint32_t>::max()));
    const size_t r = static_cast<size_t>(pair_domain.size());
    const uint32_t card_b = static_cast<uint32_t>(b.cardinality());
    const DirectEncodingOracle mask(RrMatrix::KeepUniform(r, keep_probability));
    pair_epsilon[pair.index] = mask.matrix().Epsilon();

    const std::vector<uint32_t>& col_a = dataset.column(pair.i);
    const std::vector<uint32_t>& col_b = dataset.column(pair.j);
    pad.pair_codes.resize(n);
    pad.masked.resize(n);
    pad.masked_counts.assign(r, 0);
    const uint64_t pair_stream = 1 + static_cast<uint64_t>(pair.index);
    auto compose_range = [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; ++k) {
        pad.pair_codes[k] = col_a[k] * card_b + col_b[k];
      }
    };

    // The pair's column address: mt19937 masks the whole column on one
    // stream (shard 0 at stream_base = pair_stream), philox addresses
    // records on counter stream pair_stream.
    const ColumnAddress address{options.rng, seed, pair_stream, pair_stream};
    if (shard_records && options.rng == RngKind::kPhilox) {
      // Compose and mask [begin, end) per chunk (element-addressed draws
      // make any grain bit-identical); fused per-worker count buffers
      // merge after the join -- integer adds commute, so the merge order
      // is free.
      std::vector<std::vector<int64_t>> worker_counts(
          ResolveWorkerCount(options.sharding.num_threads, n, chunk_size),
          std::vector<int64_t>(r, 0));
      ParallelChunks(n, chunk_size, options.sharding.num_threads,
                     [&](size_t record_worker, size_t chunk, size_t begin,
                         size_t end) {
                       compose_range(begin, end);
                       PerturbShard(mask, address, chunk, begin,
                                    pad.pair_codes.data() + begin,
                                    end - begin, pad.masked.data() + begin,
                                    worker_counts[record_worker].data());
                     });
      for (const std::vector<int64_t>& wc : worker_counts) {
        for (size_t c = 0; c < r; ++c) pad.masked_counts[c] += wc[c];
      }
    } else {
      compose_range(0, n);
      PerturbShard(mask, address, /*shard_index=*/0, /*first_record=*/0,
                   pad.pair_codes.data(), n, pad.masked.data(),
                   pad.masked_counts.data());
    }

    // Recover the true bivariate distribution with Eq. (2) + projection.
    pad.lambda.resize(r);
    for (size_t c = 0; c < r; ++c) {
      pad.lambda[c] = static_cast<double>(pad.masked_counts[c]) /
                      static_cast<double>(n);
    }
    std::vector<double> joint;
    MDRR_ASSIGN_OR_RETURN(
        joint, EstimateProjectedDistribution(mask.matrix(), pad.lambda));
    return DependenceFromJoint(joint, a.cardinality(), a.type,
                               b.cardinality(), b.type,
                               static_cast<double>(n));
  };

  DependenceEstimate result;
  MDRR_ASSIGN_OR_RETURN(result.dependences,
                        DependencePairGrid(m, n, options.sharding, run_pair));
  // Parallel composition across unlinkable pair releases (Section 4.3).
  result.epsilon = 0.0;
  for (double e : pair_epsilon) result.epsilon = std::max(result.epsilon, e);
  result.messages = SecureSumMessages(dataset);
  return result;
}

}  // namespace mdrr
