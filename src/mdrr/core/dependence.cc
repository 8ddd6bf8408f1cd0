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

StatusOr<linalg::Matrix> DependencePairGrid(
    size_t num_attributes, size_t num_records,
    const DependenceShardingOptions& options, const PairDependenceFn& fn) {
  const size_t m = num_attributes;
  linalg::Matrix deps(m, m, 0.0);
  for (size_t i = 0; i < m; ++i) deps(i, i) = 1.0;
  if (m < 2 || num_records == 0) return deps;

  std::vector<AttributePair> pairs;
  pairs.reserve(m * (m - 1) / 2);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) pairs.push_back({pairs.size(), i, j});
  }
  // Distinct pairs write distinct (i, j)/(j, i) cells.
  auto store = [&](const AttributePair& pair, double d) {
    deps(pair.i, pair.j) = d;
    deps(pair.j, pair.i) = d;
  };

  const size_t chunk_size = std::max<size_t>(1, options.record_chunk_size);
  const size_t workers =
      ResolveWorkerCount(options.num_threads, num_records, chunk_size);
  if (pairs.size() < 2 * workers) {
    for (const AttributePair& pair : pairs) {
      MDRR_ASSIGN_OR_RETURN(double d,
                            fn(pair, /*worker=*/0, /*shard_records=*/true));
      store(pair, d);
    }
    return deps;
  }
  // An error cannot early-return across workers: statuses are kept per
  // pair and checked in pair order after the join.
  std::vector<Status> failures(pairs.size(), Status::OK());
  ParallelChunks(pairs.size(), /*chunk_size=*/1, options.num_threads,
                 [&](size_t worker, size_t p, size_t /*begin*/,
                     size_t /*end*/) {
                   StatusOr<double> d =
                       fn(pairs[p], worker, /*shard_records=*/false);
                   if (d.ok()) {
                     store(pairs[p], d.value());
                   } else {
                     failures[p] = d.status();
                   }
                 });
  for (const Status& s : failures) MDRR_RETURN_IF_ERROR(s);
  return deps;
}

linalg::Matrix DependenceMatrixSharded(
    const Dataset& dataset, const DependenceShardingOptions& options) {
  const size_t chunk_size = std::max<size_t>(1, options.record_chunk_size);
  // A pure function of the pair's exact counts, so either regime -- the
  // pair counted serially, or its record range sharded -- produces the
  // same integer counts and bitwise-equal dependences.
  return DependencePairGrid(
             dataset.num_attributes(), dataset.num_rows(), options,
             [&](const AttributePair& pair, size_t /*worker*/,
                 bool shard_records) -> StatusOr<double> {
               const Attribute& a = dataset.attribute(pair.i);
               const Attribute& b = dataset.attribute(pair.j);
               const std::vector<uint32_t>& col_a = dataset.column(pair.i);
               const std::vector<uint32_t>& col_b = dataset.column(pair.j);
               std::vector<int64_t> counts =
                   shard_records
                       ? PairCountsSharded(col_a, col_b, a.cardinality(),
                                           b.cardinality(), options,
                                           chunk_size)
                       : PairCountsSerial(col_a, col_b, a.cardinality(),
                                          b.cardinality());
               return DependenceFromJoint(
                   std::vector<double>(counts.begin(), counts.end()),
                   a.cardinality(), a.type, b.cardinality(), b.type,
                   static_cast<double>(dataset.num_rows()));
             })
      .value();
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
