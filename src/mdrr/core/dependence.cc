#include "mdrr/core/dependence.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"
#include "mdrr/stats/descriptive.h"
#include "mdrr/stats/frequency.h"

namespace mdrr {

double DependenceBetweenColumns(const std::vector<uint32_t>& codes_a,
                                size_t cardinality_a, AttributeType type_a,
                                const std::vector<uint32_t>& codes_b,
                                size_t cardinality_b, AttributeType type_b) {
  MDRR_CHECK_EQ(codes_a.size(), codes_b.size());
  MDRR_CHECK(!codes_a.empty());
  if (type_a == AttributeType::kOrdinal && type_b == AttributeType::kOrdinal) {
    std::vector<double> x(codes_a.begin(), codes_a.end());
    std::vector<double> y(codes_b.begin(), codes_b.end());
    return std::fabs(stats::PearsonCorrelation(x, y));
  }
  stats::ContingencyTable table(codes_a, cardinality_a, codes_b,
                                cardinality_b);
  return table.CramersV();
}

double DependenceBetween(const Dataset& dataset, size_t i, size_t j) {
  const Attribute& a = dataset.attribute(i);
  const Attribute& b = dataset.attribute(j);
  return DependenceBetweenColumns(dataset.column(i), a.cardinality(), a.type,
                                  dataset.column(j), b.cardinality(), b.type);
}

linalg::Matrix DependenceMatrix(const Dataset& dataset) {
  const size_t m = dataset.num_attributes();
  linalg::Matrix deps(m, m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    deps(i, i) = 1.0;
    for (size_t j = i + 1; j < m; ++j) {
      double d = DependenceBetween(dataset, i, j);
      deps(i, j) = d;
      deps(j, i) = d;
    }
  }
  return deps;
}

double AbsPearsonFromJoint(const std::vector<double>& joint,
                           size_t cardinality_a, size_t cardinality_b) {
  MDRR_CHECK_EQ(joint.size(), cardinality_a * cardinality_b);
  double total = 0.0;
  for (double w : joint) total += std::max(0.0, w);
  if (total <= 0.0) return 0.0;

  double mean_a = 0.0;
  double mean_b = 0.0;
  for (size_t a = 0; a < cardinality_a; ++a) {
    for (size_t b = 0; b < cardinality_b; ++b) {
      double w = std::max(0.0, joint[a * cardinality_b + b]) / total;
      mean_a += w * static_cast<double>(a);
      mean_b += w * static_cast<double>(b);
    }
  }
  double var_a = 0.0;
  double var_b = 0.0;
  double cov = 0.0;
  for (size_t a = 0; a < cardinality_a; ++a) {
    for (size_t b = 0; b < cardinality_b; ++b) {
      double w = std::max(0.0, joint[a * cardinality_b + b]) / total;
      double da = static_cast<double>(a) - mean_a;
      double db = static_cast<double>(b) - mean_b;
      var_a += w * da * da;
      var_b += w * db * db;
      cov += w * da * db;
    }
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return std::fabs(cov / std::sqrt(var_a * var_b));
}

namespace {

// Joint counts of one pair accumulated serially over all records.
std::vector<int64_t> PairCountsSerial(const std::vector<uint32_t>& codes_a,
                                      const std::vector<uint32_t>& codes_b,
                                      size_t cardinality_a,
                                      size_t cardinality_b) {
  std::vector<int64_t> counts(cardinality_a * cardinality_b, 0);
  for (size_t i = 0; i < codes_a.size(); ++i) {
    ++counts[codes_a[i] * cardinality_b + codes_b[i]];
  }
  return counts;
}

// Joint counts of one pair sharded over record ranges (per-worker
// buffers merged by FrequencyTable::Absorb inside ShardedHistogram).
std::vector<int64_t> PairCountsSharded(const std::vector<uint32_t>& codes_a,
                                       const std::vector<uint32_t>& codes_b,
                                       size_t cardinality_a,
                                       size_t cardinality_b,
                                       const DependenceShardingOptions& options,
                                       size_t chunk_size) {
  return stats::ShardedHistogram(
             codes_a.size(), cardinality_a * cardinality_b, chunk_size,
             options.num_threads,
             [&](size_t i) {
               return codes_a[i] * cardinality_b + codes_b[i];
             })
      .counts();
}

}  // namespace

linalg::Matrix DependenceMatrixSharded(
    const Dataset& dataset, const DependenceShardingOptions& options) {
  const size_t m = dataset.num_attributes();
  const size_t n = dataset.num_rows();
  const size_t chunk_size = std::max<size_t>(1, options.record_chunk_size);
  linalg::Matrix deps(m, m, 0.0);
  for (size_t i = 0; i < m; ++i) deps(i, i) = 1.0;
  if (m < 2 || n == 0) return deps;

  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(m * (m - 1) / 2);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) pairs.emplace_back(i, j);
  }

  // A pure function of the pair's exact counts, so any accumulation
  // scheme that produces the same integer counts produces bitwise-equal
  // dependences.
  auto stat_for = [&](size_t i, size_t j,
                      const std::vector<int64_t>& counts) {
    const Attribute& a = dataset.attribute(i);
    const Attribute& b = dataset.attribute(j);
    return DependenceFromJoint(
        std::vector<double>(counts.begin(), counts.end()), a.cardinality(),
        a.type, b.cardinality(), b.type, static_cast<double>(n));
  };

  // When the pair grid alone can feed every worker, shard pairs (each
  // pair accumulated serially); otherwise shard each pair's record
  // range. Both schemes produce the same integer counts, so the choice
  // never changes the output.
  const size_t workers = ResolveWorkerCount(options.num_threads, n, chunk_size);
  if (pairs.size() >= 2 * workers) {
    ParallelChunks(pairs.size(), 1, options.num_threads,
                   [&](size_t /*worker*/, size_t pair_index, size_t /*begin*/,
                       size_t /*end*/) {
                     auto [i, j] = pairs[pair_index];
                     std::vector<int64_t> counts = PairCountsSerial(
                         dataset.column(i), dataset.column(j),
                         dataset.attribute(i).cardinality(),
                         dataset.attribute(j).cardinality());
                     double d = stat_for(i, j, counts);
                     // Distinct pairs write distinct (i, j)/(j, i) cells.
                     deps(i, j) = d;
                     deps(j, i) = d;
                   });
  } else {
    for (auto [i, j] : pairs) {
      std::vector<int64_t> counts = PairCountsSharded(
          dataset.column(i), dataset.column(j),
          dataset.attribute(i).cardinality(),
          dataset.attribute(j).cardinality(), options, chunk_size);
      double d = stat_for(i, j, counts);
      deps(i, j) = d;
      deps(j, i) = d;
    }
  }
  return deps;
}

double DependenceFromJoint(const std::vector<double>& joint,
                           size_t cardinality_a, AttributeType type_a,
                           size_t cardinality_b, AttributeType type_b,
                           double n) {
  if (type_a == AttributeType::kOrdinal && type_b == AttributeType::kOrdinal) {
    return AbsPearsonFromJoint(joint, cardinality_a, cardinality_b);
  }
  // Clamp negative cells (estimated joints may leave the simplex).
  std::vector<double> clamped(joint.size());
  for (size_t i = 0; i < joint.size(); ++i) {
    clamped[i] = std::max(0.0, joint[i]);
  }
  stats::ContingencyTable table(std::move(clamped), cardinality_a,
                                cardinality_b, n);
  return table.CramersV();
}

}  // namespace mdrr
