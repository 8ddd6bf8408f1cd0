// Attribute dependence measures (Section 4, Expressions (8) and (9)):
// |Pearson r| for ordinal-ordinal pairs, Cramér's V when any attribute is
// nominal. Both lie in [0, 1], so mixed comparisons are meaningful.

#ifndef MDRR_CORE_DEPENDENCE_H_
#define MDRR_CORE_DEPENDENCE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/linalg/matrix.h"

namespace mdrr {

// Dependence in [0, 1] between two code columns given their measurement
// types and cardinalities. Ordinal codes are treated as ranks.
double DependenceBetweenColumns(const std::vector<uint32_t>& codes_a,
                                size_t cardinality_a, AttributeType type_a,
                                const std::vector<uint32_t>& codes_b,
                                size_t cardinality_b, AttributeType type_b);

// Threading knobs for the sharded dependence assessment. The record
// chunk size is purely a load-balancing grain here: per-pair joint
// counts are integers, and integer sums commute exactly, so the sharded
// matrix is bit-identical for ANY thread count and ANY chunk size.
struct DependenceShardingOptions {
  // Worker threads; 0 means one per hardware core.
  size_t num_threads = 1;
  // Records per work unit when a pair's contingency accumulation is
  // sharded over record ranges. 0 is clamped to 1.
  size_t record_chunk_size = 1 << 16;
};

// One pair of the row-major upper-triangle grid over m attributes.
struct AttributePair {
  size_t index = 0;  // p: the pair's position in the grid.
  size_t i = 0;      // i < j.
  size_t j = 0;
};

// The dependence of one pair, computed by `worker`. With shard_records
// the pair runs alone and may shard its record range itself.
using PairDependenceFn = std::function<StatusOr<double>(
    const AttributePair& pair, size_t worker, bool shard_records)>;

// The pair-grid scheduler of the sharded assessment estimators: the
// m x m matrix (diagonal 1) with fn's value at (i, j) and (j, i) for
// every pair. When the grid can feed every worker (pairs >= 2 x the
// workers `options` resolves for `num_records` records), pairs run
// concurrently, each whole on one worker (shard_records = false), and
// worker ids stay below ResolveWorkerCount(options.num_threads, pairs,
// 1). Otherwise the pairs run in order on the calling thread as worker
// 0 with shard_records = true. With no records fn is never called and
// the off-diagonal stays 0. Returns the first failure in pair order.
StatusOr<linalg::Matrix> DependencePairGrid(
    size_t num_attributes, size_t num_records,
    const DependenceShardingOptions& options, const PairDependenceFn& fn);

// Sharded DependenceMatrix on DependencePairGrid: a pair that runs alone
// shards its contingency accumulation over record ranges, with
// per-worker count buffers merged by stats::FrequencyTable::Absorb. Every statistic is computed from the
// pair's exact joint counts by DependenceFromJoint, so the output is a
// pure function of the data -- independent of thread count and chunk
// size. Cramér's V values are bitwise equal to DependenceMatrix's;
// |Pearson| is computed from the joint table rather than the raw columns
// and may differ from it in the last few ulps.
linalg::Matrix DependenceMatrixSharded(
    const Dataset& dataset, const DependenceShardingOptions& options);

// Dependence between attributes i and j of `dataset`.
double DependenceBetween(const Dataset& dataset, size_t i, size_t j);

// Symmetric m x m matrix of pairwise dependences (diagonal = 1).
linalg::Matrix DependenceMatrix(const Dataset& dataset);

// Dependence computed from a bivariate distribution rather than raw codes
// (used by the Section 4.2/4.3 estimators, which only see joint tables).
// `joint` is row-major [cardinality_a x cardinality_b] and may hold
// probabilities or counts; `n` is the effective sample size for chi².
double DependenceFromJoint(const std::vector<double>& joint,
                           size_t cardinality_a, AttributeType type_a,
                           size_t cardinality_b, AttributeType type_b,
                           double n);

// |Pearson correlation| computed from a joint table over code values.
double AbsPearsonFromJoint(const std::vector<double>& joint,
                           size_t cardinality_a, size_t cardinality_b);

}  // namespace mdrr

#endif  // MDRR_CORE_DEPENDENCE_H_
