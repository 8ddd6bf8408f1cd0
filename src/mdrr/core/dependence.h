// Attribute dependence measures (Section 4, Expressions (8) and (9)):
// |Pearson r| for ordinal-ordinal pairs, Cramér's V when any attribute is
// nominal. Both lie in [0, 1], so mixed comparisons are meaningful.

#ifndef MDRR_CORE_DEPENDENCE_H_
#define MDRR_CORE_DEPENDENCE_H_

#include <cstdint>
#include <vector>

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

// Sharded DependenceMatrix: the O(d^2) pair grid is split across
// workers, and when the grid alone cannot feed every worker the
// per-pair contingency accumulation is sharded over record ranges
// instead, with per-worker count buffers merged by
// stats::FrequencyTable::Absorb. Every statistic is computed from the
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
