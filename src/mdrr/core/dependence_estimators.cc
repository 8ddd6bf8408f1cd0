#include "mdrr/core/dependence_estimators.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/privacy.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/rng/rng.h"
#include "mdrr/stats/frequency.h"

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

// Separates the secure-sum oracle's share streams from the masking
// streams that reuse the same pair indices (golden-ratio odd constant).
constexpr uint64_t kOracleSeedSalt = 0x9e3779b97f4a7c15ULL;

// Message bookkeeping on wide product domains can exceed 64 bits;
// saturate instead of wrapping (DependenceEstimate::messages contract).
uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return b > std::numeric_limits<uint64_t>::max() - a
             ? std::numeric_limits<uint64_t>::max()
             : a + b;
}

// The row-major upper-triangle pair grid; index p of this list is the
// pair's stream key 1 + p (dependence_estimators.h addressing contract).
std::vector<std::pair<size_t, size_t>> UpperTrianglePairs(size_t m) {
  std::vector<std::pair<size_t, size_t>> pairs;
  if (m >= 2) pairs.reserve(m * (m - 1) / 2);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
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

StatusOr<DependenceEstimate> SecureSumDependences(
    const Dataset& dataset, mpc::SimulationMode mode, uint64_t seed,
    const DependenceEstimatorOptions& options) {
  const size_t m = dataset.num_attributes();
  const size_t n = dataset.num_rows();
  if (n == 0) return Status::InvalidArgument("empty dataset");

  const mpc::SecureFrequencyOracle oracle(mode, seed, options.rng);
  linalg::Matrix deps(m, m, 0.0);
  for (size_t i = 0; i < m; ++i) deps(i, i) = 1.0;
  const std::vector<std::pair<size_t, size_t>> pairs = UpperTrianglePairs(m);
  const size_t chunk_size =
      std::max<size_t>(1, options.sharding.record_chunk_size);

  // One pair, serially, on its own oracle stream 1 + p.
  auto pair_dependence = [&](size_t p) -> StatusOr<double> {
    auto [i, j] = pairs[p];
    const Attribute& a = dataset.attribute(i);
    const Attribute& b = dataset.attribute(j);
    std::vector<int64_t> counts;
    MDRR_ASSIGN_OR_RETURN(
        counts, oracle.BivariateCounts(
                    dataset.column(i), a.cardinality(), dataset.column(j),
                    b.cardinality(),
                    /*pair_stream=*/1 + static_cast<uint64_t>(p)));
    std::vector<double> joint(counts.begin(), counts.end());
    return DependenceFromJoint(joint, a.cardinality(), a.type,
                               b.cardinality(), b.type,
                               static_cast<double>(n));
  };

  // The adaptive pair-grid/record-range split of DependenceMatrixSharded:
  // when the grid can feed every worker, shard pairs (each serial on its
  // own stream); otherwise shard each fast-simulation pair's record scan
  // -- the secure sums are exact, so the sharded joint histogram is
  // bitwise the protocol output -- while literal pairs run serially (the
  // share-exchange transcript is per pair). Both schemes produce the
  // same counts, so the choice never changes the output.
  const size_t workers =
      ResolveWorkerCount(options.sharding.num_threads, n, chunk_size);
  if (pairs.size() >= 2 * workers) {
    // Statuses are collected per pair and checked after the join (an
    // error cannot early-return across workers); distinct pairs write
    // distinct (i, j)/(j, i) cells.
    std::vector<Status> failures(pairs.size(), Status::OK());
    ParallelChunks(pairs.size(), /*chunk_size=*/1,
                   options.sharding.num_threads,
                   [&](size_t /*worker*/, size_t p, size_t /*begin*/,
                       size_t /*end*/) {
                     StatusOr<double> d = pair_dependence(p);
                     if (!d.ok()) {
                       failures[p] = d.status();
                       return;
                     }
                     auto [i, j] = pairs[p];
                     deps(i, j) = d.value();
                     deps(j, i) = d.value();
                   });
    for (const Status& s : failures) {
      if (!s.ok()) return s;
    }
  } else {
    for (size_t p = 0; p < pairs.size(); ++p) {
      auto [i, j] = pairs[p];
      double d = 0.0;
      if (mode == mpc::SimulationMode::kFastSimulation) {
        const Attribute& a = dataset.attribute(i);
        const Attribute& b = dataset.attribute(j);
        const std::vector<uint32_t>& col_a = dataset.column(i);
        const std::vector<uint32_t>& col_b = dataset.column(j);
        const size_t card_b = b.cardinality();
        std::vector<int64_t> counts =
            stats::ShardedHistogram(n, a.cardinality() * card_b, chunk_size,
                                    options.sharding.num_threads,
                                    [&](size_t row) {
                                      return col_a[row] * card_b + col_b[row];
                                    })
                .counts();
        std::vector<double> joint(counts.begin(), counts.end());
        d = DependenceFromJoint(joint, a.cardinality(), a.type, card_b,
                                b.type, static_cast<double>(n));
      } else {
        MDRR_ASSIGN_OR_RETURN(d, pair_dependence(p));
      }
      deps(i, j) = d;
      deps(j, i) = d;
    }
  }

  uint64_t messages = 0;
  for (auto [i, j] : pairs) {
    messages = SaturatingAdd(
        messages, mpc::SecureFrequencyOracle::BivariateMessageCount(
                      dataset.attribute(i).cardinality(),
                      dataset.attribute(j).cardinality(), n));
  }
  DependenceEstimate result;
  result.dependences = std::move(deps);
  // Exact values are released: not differentially private.
  result.epsilon = std::numeric_limits<double>::infinity();
  result.messages = messages;
  return result;
}

StatusOr<DependenceEstimate> PairwiseRrDependences(
    const Dataset& dataset, double keep_probability, mpc::SimulationMode mode,
    uint64_t seed, const DependenceEstimatorOptions& options) {
  const size_t m = dataset.num_attributes();
  const size_t n = dataset.num_rows();
  if (n == 0) return Status::InvalidArgument("empty dataset");

  const mpc::SecureFrequencyOracle oracle(mode, seed ^ kOracleSeedSalt,
                                          options.rng);
  linalg::Matrix deps(m, m, 0.0);
  for (size_t i = 0; i < m; ++i) deps(i, i) = 1.0;
  const std::vector<std::pair<size_t, size_t>> pairs = UpperTrianglePairs(m);
  const size_t chunk_size =
      std::max<size_t>(1, options.sharding.record_chunk_size);
  const bool fast = mode == mpc::SimulationMode::kFastSimulation;

  // Reused per-worker scratch: composing, masking and the lambda
  // recovery all write into these instead of allocating per pair.
  struct PairScratch {
    std::vector<uint32_t> pair_codes;
    std::vector<uint32_t> masked;
    std::vector<uint32_t> trivial;  // Single-category helper column.
    std::vector<int64_t> masked_counts;
    std::vector<double> lambda;
  };

  // Epsilon per pair, filled by whichever regime ran the pair; reduced
  // in pair order after the join.
  std::vector<double> pair_epsilon(pairs.size(), 0.0);

  // One pair: mask the composed product-domain column on stream 1 + p,
  // aggregate the masked distribution, recover the joint with Eq. (2).
  // `shard_records` shards the compose/mask/count scan over record
  // ranges where the draw plan permits (philox masking is
  // element-addressed; mt19937 masking stays a sequential stream).
  auto run_pair = [&](size_t p, PairScratch& scratch,
                      bool shard_records) -> StatusOr<double> {
    auto [i, j] = pairs[p];
    const Attribute& a = dataset.attribute(i);
    const Attribute& b = dataset.attribute(j);
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
    pair_epsilon[p] = mask.matrix().Epsilon();

    const std::vector<uint32_t>& col_a = dataset.column(i);
    const std::vector<uint32_t>& col_b = dataset.column(j);
    scratch.pair_codes.resize(n);
    scratch.masked.resize(n);
    scratch.masked_counts.assign(r, 0);
    const uint64_t pair_stream = 1 + static_cast<uint64_t>(p);
    auto compose_range = [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; ++k) {
        scratch.pair_codes[k] = col_a[k] * card_b + col_b[k];
      }
    };

    // The pair's column address: mt19937 masks the whole column on one
    // stream (shard 0 at stream_base = pair_stream), philox addresses
    // records on counter stream pair_stream.
    const ColumnAddress address{options.rng, seed, pair_stream, pair_stream};
    if (shard_records && options.rng == RngKind::kPhilox) {
      // Record-range regime: compose and mask [begin, end) per chunk
      // (element-addressed draws make any grain bit-identical); fused
      // per-worker count buffers merge after the join -- integer adds
      // commute, so the merge order is free.
      const size_t record_workers = ResolveWorkerCount(
          options.sharding.num_threads, n, chunk_size);
      std::vector<std::vector<int64_t>> worker_counts(
          fast ? record_workers : 0, std::vector<int64_t>(r, 0));
      ParallelChunks(n, chunk_size, options.sharding.num_threads,
                     [&](size_t worker, size_t chunk, size_t begin,
                         size_t end) {
                       compose_range(begin, end);
                       PerturbShard(
                           mask, address, chunk, begin,
                           scratch.pair_codes.data() + begin, end - begin,
                           scratch.masked.data() + begin,
                           fast ? worker_counts[worker].data() : nullptr);
                     });
      for (const std::vector<int64_t>& wc : worker_counts) {
        for (size_t c = 0; c < r; ++c) scratch.masked_counts[c] += wc[c];
      }
    } else {
      compose_range(0, n);
      PerturbShard(mask, address, /*shard_index=*/0, /*first_record=*/0,
                   scratch.pair_codes.data(), n, scratch.masked.data(),
                   fast ? scratch.masked_counts.data() : nullptr);
    }

    if (!fast) {
      // Literal aggregation: one secure-sum run per composite cell on
      // oracle stream 1 + p (cardinality_b = 1 reuses the bivariate
      // oracle as a univariate one). The fused fast-sim counts above are
      // bitwise this output -- exact sums either way.
      scratch.trivial.assign(n, 0);
      StatusOr<std::vector<int64_t>> counted =
          oracle.BivariateCounts(scratch.masked, r, scratch.trivial, 1,
                                 pair_stream);
      if (!counted.ok()) return counted.status();
      scratch.masked_counts = std::move(counted).value();
    }

    // Recover the true bivariate distribution with Eq. (2) + projection.
    scratch.lambda.resize(r);
    for (size_t c = 0; c < r; ++c) {
      scratch.lambda[c] = static_cast<double>(scratch.masked_counts[c]) /
                          static_cast<double>(n);
    }
    std::vector<double> joint;
    MDRR_ASSIGN_OR_RETURN(
        joint, EstimateProjectedDistribution(mask.matrix(), scratch.lambda));
    return DependenceFromJoint(joint, a.cardinality(), a.type,
                               b.cardinality(), b.type,
                               static_cast<double>(n));
  };

  // Same adaptive split as SecureSumDependences; both regimes produce
  // identical masked columns and counts per pair, so the choice never
  // changes the output.
  const size_t workers =
      ResolveWorkerCount(options.sharding.num_threads, n, chunk_size);
  if (pairs.size() >= 2 * workers) {
    const size_t grid_workers = ResolveWorkerCount(
        options.sharding.num_threads, pairs.size(), /*chunk_size=*/1);
    std::vector<PairScratch> scratch(grid_workers);
    std::vector<Status> failures(pairs.size(), Status::OK());
    ParallelChunks(pairs.size(), /*chunk_size=*/1,
                   options.sharding.num_threads,
                   [&](size_t worker, size_t p, size_t /*begin*/,
                       size_t /*end*/) {
                     StatusOr<double> d =
                         run_pair(p, scratch[worker], /*shard_records=*/false);
                     if (!d.ok()) {
                       failures[p] = d.status();
                       return;
                     }
                     auto [i, j] = pairs[p];
                     deps(i, j) = d.value();
                     deps(j, i) = d.value();
                   });
    for (const Status& s : failures) {
      if (!s.ok()) return s;
    }
  } else {
    PairScratch scratch;
    for (size_t p = 0; p < pairs.size(); ++p) {
      StatusOr<double> d = run_pair(p, scratch, /*shard_records=*/true);
      if (!d.ok()) return d.status();
      auto [i, j] = pairs[p];
      deps(i, j) = d.value();
      deps(j, i) = d.value();
    }
  }

  uint64_t messages = 0;
  double max_pair_epsilon = 0.0;
  for (size_t p = 0; p < pairs.size(); ++p) {
    auto [i, j] = pairs[p];
    const uint64_t cells =
        static_cast<uint64_t>(dataset.attribute(i).cardinality()) *
        dataset.attribute(j).cardinality();
    messages = SaturatingAdd(
        messages, mpc::SecureFrequencyOracle::BivariateMessageCount(
                      static_cast<size_t>(cells), 1, n));
    max_pair_epsilon = std::max(max_pair_epsilon, pair_epsilon[p]);
  }
  DependenceEstimate result;
  result.dependences = std::move(deps);
  // Parallel composition across unlinkable pair releases (Section 4.3).
  result.epsilon = max_pair_epsilon;
  result.messages = messages;
  return result;
}

}  // namespace mdrr
