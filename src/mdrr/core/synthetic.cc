#include "mdrr/core/synthetic.h"

#include <algorithm>
#include <numeric>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"
#include "mdrr/dataset/domain.h"

namespace mdrr {

namespace {

// Expands apportioned counts into a shuffled column of codes.
std::vector<uint32_t> ExpandAndShuffle(const std::vector<int64_t>& counts,
                                       int64_t n, Rng& rng) {
  std::vector<uint32_t> column;
  column.reserve(static_cast<size_t>(n));
  for (size_t code = 0; code < counts.size(); ++code) {
    for (int64_t k = 0; k < counts[code]; ++k) {
      column.push_back(static_cast<uint32_t>(code));
    }
  }
  std::shuffle(column.begin(), column.end(), rng.engine());
  return column;
}

// Fills out[begin, end) with one shard's apportioned codes and shuffles
// the range in place on the shard's own stream.
void FillShard(const std::vector<int64_t>& shard_counts, uint32_t* out,
               size_t begin, size_t end, Rng& rng) {
  size_t pos = begin;
  for (size_t code = 0; code < shard_counts.size(); ++code) {
    for (int64_t k = 0; k < shard_counts[code]; ++k) {
      out[pos++] = static_cast<uint32_t>(code);
    }
  }
  MDRR_CHECK_EQ(pos, end);
  rng.ShuffleU32(out + begin, end - begin);
}

// Sharded expansion of one column: apportion `distribution` over n
// records, split the counts across shards, and let every shard expand
// and shuffle its own row range on stream (stream_base + shard).
std::vector<uint32_t> ExpandAndShuffleSharded(
    const std::vector<double>& distribution, int64_t n,
    const RngStreamFamily& family, uint64_t stream_base, size_t shard_size,
    size_t num_threads) {
  std::vector<int64_t> counts = ApportionCounts(distribution, n);
  std::vector<std::vector<int64_t>> per_shard =
      ApportionCountsAcrossShards(counts, n, shard_size);
  std::vector<uint32_t> column(static_cast<size_t>(n));
  ParallelChunks(static_cast<size_t>(n), shard_size, num_threads,
                 [&](size_t /*worker*/, size_t shard, size_t begin,
                     size_t end) {
                   Rng rng = family.Stream(stream_base + shard);
                   FillShard(per_shard[shard], column.data(), begin, end,
                             rng);
                 });
  return column;
}

}  // namespace

std::vector<int64_t> ApportionCounts(const std::vector<double>& distribution,
                                     int64_t n) {
  MDRR_CHECK(!distribution.empty());
  MDRR_CHECK_GE(n, 0);
  std::vector<double> mass(distribution.size());
  double total = 0.0;
  for (size_t i = 0; i < distribution.size(); ++i) {
    mass[i] = std::max(0.0, distribution[i]);
    total += mass[i];
  }
  std::vector<int64_t> counts(distribution.size(), 0);
  if (total <= 0.0 || n == 0) {
    // Nothing to apportion; spread evenly for total <= 0 with n > 0.
    if (n > 0) {
      for (int64_t k = 0; k < n; ++k) {
        ++counts[static_cast<size_t>(k) % counts.size()];
      }
    }
    return counts;
  }

  // Floor of the exact quota, then distribute the leftover records to the
  // largest fractional remainders (deterministic ties by index).
  std::vector<double> remainders(distribution.size());
  int64_t assigned = 0;
  for (size_t i = 0; i < mass.size(); ++i) {
    double quota = mass[i] / total * static_cast<double>(n);
    counts[i] = static_cast<int64_t>(quota);
    remainders[i] = quota - static_cast<double>(counts[i]);
    assigned += counts[i];
  }
  std::vector<size_t> order(mass.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (remainders[a] != remainders[b]) return remainders[a] > remainders[b];
    return a < b;
  });
  for (int64_t k = 0; k < n - assigned; ++k) {
    ++counts[order[static_cast<size_t>(k) % order.size()]];
  }
  return counts;
}

std::vector<std::vector<int64_t>> ApportionCountsAcrossShards(
    const std::vector<int64_t>& counts, int64_t n, size_t shard_size) {
  MDRR_CHECK_GT(n, 0);
  MDRR_CHECK_GT(shard_size, 0u);
  const size_t num_shards = NumChunks(static_cast<size_t>(n), shard_size);
  std::vector<std::vector<int64_t>> per_shard(num_shards);

  std::vector<int64_t> remaining = counts;
  int64_t remaining_n = n;
  for (size_t s = 0; s < num_shards; ++s) {
    if (s + 1 == num_shards) {
      per_shard[s] = std::move(remaining);
      break;
    }
    const int64_t rows = static_cast<int64_t>(
        std::min<size_t>(shard_size, static_cast<size_t>(n) - s * shard_size));
    // Exact rational quota remaining[c] * rows / remaining_n: floor via
    // integer division, then the leftover rows go to the largest
    // fractional remainders (ties by category index). A category with a
    // positive remainder has floor < quota <= remaining[c], so the +1
    // never overdraws it.
    std::vector<int64_t> share(remaining.size(), 0);
    std::vector<int64_t> frac(remaining.size(), 0);
    int64_t assigned = 0;
    for (size_t c = 0; c < remaining.size(); ++c) {
      share[c] = remaining[c] * rows / remaining_n;
      frac[c] = remaining[c] * rows % remaining_n;
      assigned += share[c];
    }
    std::vector<size_t> order(remaining.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (frac[a] != frac[b]) return frac[a] > frac[b];
      return a < b;
    });
    for (int64_t k = 0; k < rows - assigned; ++k) {
      ++share[order[static_cast<size_t>(k)]];
    }
    for (size_t c = 0; c < remaining.size(); ++c) {
      remaining[c] -= share[c];
    }
    remaining_n -= rows;
    per_shard[s] = std::move(share);
  }
  return per_shard;
}

StatusOr<Dataset> SynthesizeFromIndependent(const RrIndependentResult& result,
                                            int64_t n, Rng& rng) {
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  const Dataset& source = result.randomized;
  std::vector<std::vector<uint32_t>> columns(source.num_attributes());
  for (size_t j = 0; j < source.num_attributes(); ++j) {
    std::vector<int64_t> counts = ApportionCounts(result.estimated[j], n);
    columns[j] = ExpandAndShuffle(counts, n, rng);
  }
  return Dataset(source.schema(), std::move(columns));
}

StatusOr<Dataset> SynthesizeFromClusters(const RrClustersResult& result,
                                         int64_t n, Rng& rng) {
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  const Dataset& source = result.randomized;
  std::vector<std::vector<uint32_t>> columns(source.num_attributes());

  for (size_t c = 0; c < result.clusters.size(); ++c) {
    const RrJointResult& joint = result.cluster_results[c];
    std::vector<int64_t> counts = ApportionCounts(joint.estimated, n);
    std::vector<uint32_t> composite = ExpandAndShuffle(counts, n, rng);
    for (size_t position = 0; position < result.clusters[c].size();
         ++position) {
      columns[result.clusters[c][position]] =
          DecodeColumnSharded(joint.domain, composite, position,
                              composite.size(), /*num_threads=*/1);
    }
  }
  return Dataset(source.schema(), std::move(columns));
}

StatusOr<Dataset> SynthesizeFromIndependentSharded(
    const RrIndependentResult& result, int64_t n,
    const RngStreamFamily& family, size_t shard_size, size_t num_threads) {
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  if (shard_size == 0) shard_size = 1;
  const Dataset& source = result.randomized;
  const uint64_t num_shards =
      NumChunks(static_cast<size_t>(n), shard_size);
  std::vector<std::vector<uint32_t>> columns(source.num_attributes());
  for (size_t j = 0; j < source.num_attributes(); ++j) {
    columns[j] = ExpandAndShuffleSharded(result.estimated[j], n, family,
                                         1 + j * num_shards, shard_size,
                                         num_threads);
  }
  return Dataset(source.schema(), std::move(columns));
}

StatusOr<Dataset> SynthesizeFromClustersSharded(
    const RrClustersResult& result, int64_t n, const RngStreamFamily& family,
    size_t shard_size, size_t num_threads) {
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  if (shard_size == 0) shard_size = 1;
  const Dataset& source = result.randomized;
  const uint64_t num_shards =
      NumChunks(static_cast<size_t>(n), shard_size);
  std::vector<std::vector<uint32_t>> columns(source.num_attributes());

  for (size_t c = 0; c < result.clusters.size(); ++c) {
    const RrJointResult& joint = result.cluster_results[c];
    std::vector<uint32_t> composite = ExpandAndShuffleSharded(
        joint.estimated, n, family, 1 + c * num_shards, shard_size,
        num_threads);
    // Decode the composite codes into the cluster's attribute columns;
    // rows are independent, so the decode shards freely too.
    for (size_t position = 0; position < result.clusters[c].size();
         ++position) {
      columns[result.clusters[c][position]] = DecodeColumnSharded(
          joint.domain, composite, position, shard_size, num_threads);
    }
  }
  return Dataset(source.schema(), std::move(columns));
}

}  // namespace mdrr
