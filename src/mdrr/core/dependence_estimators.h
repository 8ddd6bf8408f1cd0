// The three privacy-preserving dependence-assessment methods of Sections
// 4.1-4.3, plus the trusted-party oracle baseline. All return the m x m
// dependence matrix consumed by Algorithm 1 (clustering.h), together with
// the privacy cost of the assessment.

#ifndef MDRR_CORE_DEPENDENCE_ESTIMATORS_H_
#define MDRR_CORE_DEPENDENCE_ESTIMATORS_H_

#include <cstdint>

#include "mdrr/common/status_or.h"
#include "mdrr/core/dependence.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/linalg/matrix.h"
#include "mdrr/rng/counter_rng.h"

namespace mdrr {

struct DependenceEstimate {
  linalg::Matrix dependences;  // m x m, symmetric, diagonal 1.
  // Epsilon spent by the assessment (0 for the oracle; the Section 4.2
  // method releases exact values, so its epsilon is infinity).
  double epsilon = 0.0;
  // Point-to-point messages exchanged (communication-cost bookkeeping of
  // Sections 4.1-4.3). Saturates at UINT64_MAX on wide product domains
  // instead of wrapping.
  uint64_t messages = 0;
};

// Sharding + randomness addressing for the assessment estimators.
//
// Every estimator draw is keyed by (stream, element), never by
// consumption order:
//   * pair p of the row-major upper-triangle grid (DependencePairGrid,
//     i < j) masks on stream 1 + p of the seed -- RngStreamFamily(seed)
//     or counter stream 1 + p;
//   * the Section 4.1 round-1 publication gives attribute j stream 1 + j
//     (stream 0 stays reserved, mirroring the batch engine's layout).
// Under kMt19937 a stream is sequential (drawn start to finish by one
// worker), so only the pair/attribute grid shards and the transcript is
// thread-count invariant. Under kPhilox the element is the record index
// (PerturbShard, core/frequency_oracle.h), so record ranges shard too
// and the transcript is invariant to thread count AND chunk grain by
// construction. The Section 4.2 estimator draws nothing.
struct DependenceEstimatorOptions {
  RngKind rng = RngKind::kMt19937;
  DependenceShardingOptions sharding;
};

// Baseline: a trusted party computes dependences on the true data.
DependenceEstimate OracleDependences(const Dataset& dataset);

// Sharded oracle assessment: the Corollary 1 pairwise statistics are
// computed by DependenceMatrixSharded, so the O(d^2 n) scan parallelizes
// with output independent of thread count. Values are bitwise equal to
// OracleDependences except for ordinal-ordinal pairs, whose |Pearson| is
// evaluated from the pair's joint counts instead of the raw columns.
DependenceEstimate OracleDependencesSharded(
    const Dataset& dataset, const DependenceShardingOptions& sharding);

// Section 4.1: every party publishes each attribute through
// KeepUniform(|A|, p) RR; dependences are computed on the randomized data.
// By Corollary 1 the ranking of dependences is (approximately) preserved
// while each value is attenuated.
DependenceEstimate RandomizedResponseDependences(const Dataset& dataset,
                                                 double keep_probability,
                                                 uint64_t seed);

// Sharded Section 4.1 assessment. Under kMt19937 the publication replays
// the sequential single-stream transcript of
// RandomizedResponseDependences (it is one privacy-budgeted publication
// whose draws must not depend on the worker count) and only the pairwise
// statistics shard. Under kPhilox attribute j's column is drawn from
// counter stream 1 + j with element = record index, so the publication
// itself shards over record ranges and stays bit-identical at every
// thread count and shard grain by construction.
DependenceEstimate RandomizedResponseDependencesSharded(
    const Dataset& dataset, double keep_probability, uint64_t seed,
    const DependenceEstimatorOptions& options);

// Section 4.2: exact bivariate distributions through n-party secure
// sums; no masking, so no differential privacy (epsilon = +inf) but
// unlinkability of pairs. The sums are exact (0/1 contributions, modulus
// n + 1), and their shares cancel, so the released dependences are the
// trusted party's: DependenceMatrixSharded(dataset, options.sharding).
// `messages` counts the protocol's traffic: per pair, one n-party sum
// per cell of n^2 + n messages (tests/mpc_test.cc runs the literal share
// exchange as the reference).
DependenceEstimate SecureSumDependences(
    const Dataset& dataset, const DependenceEstimatorOptions& options = {});

// Section 4.3: every attribute *pair* is masked with KeepUniform RR over
// the pair domain, aggregated by secure sum, and the true bivariate
// distribution is recovered with Eq. (2). Differentially private; under
// the paper's unlinkability argument the releases of one attribute
// compose in parallel, so the reported epsilon is the maximum pair
// epsilon rather than the sum (Section 4.3). The aggregation is exact,
// so the masked counts are the secure sums' output; `messages` counts
// them as for SecureSumDependences.
//
// Pair p masks on stream 1 + p of `seed` and runs on DependencePairGrid;
// when a pair runs alone, kPhilox masking shards its record range too
// (element-addressed draws), while kMt19937 masking is drawn
// sequentially per pair and only the counting shards. Output is
// bit-identical at every thread count and shard grain under both RNG
// policies; the default options run one worker with mt19937 draws.
StatusOr<DependenceEstimate> PairwiseRrDependences(
    const Dataset& dataset, double keep_probability, uint64_t seed,
    const DependenceEstimatorOptions& options = {});

}  // namespace mdrr

#endif  // MDRR_CORE_DEPENDENCE_ESTIMATORS_H_
