// Algorithm 2 (RR-Adjustment, Section 5): iterative proportional fitting
// of record weights on the randomized data set Y so that its implied
// marginals match the Eq. (2) estimates. Works identically for single
// attributes (after RR-Independent) and attribute clusters (after
// RR-Clusters): a group is "one attribute" in the algorithm's sense.

#ifndef MDRR_CORE_ADJUSTMENT_H_
#define MDRR_CORE_ADJUSTMENT_H_

#include <cstdint>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/rr_independent.h"

namespace mdrr {

// One marginal constraint: per-record codes over the group's domain and
// the target distribution those codes' weighted marginal must match.
struct AdjustmentGroup {
  std::vector<uint32_t> codes;
  std::vector<double> target;
};

struct AdjustmentOptions {
  int max_iterations = 100;
  // Converged when the largest absolute gap between an implied marginal
  // entry and its target falls below this.
  double tolerance = 1e-9;
  // Worker threads for the cell-index build and the per-iteration cell
  // sweeps; 0 means one per hardware core. Never changes results: the
  // cells are numbered by first appearance, and partial marginal sums
  // are merged in chunk order, which depends only on (the cell count,
  // chunk_size).
  size_t num_threads = 1;
  // Cells (distinct group-code tuples) per reduction chunk. Part of the
  // numeric contract (it fixes the floating-point summation tree), like
  // shard_size in BatchPerturbationOptions. 0 is clamped to 1.
  size_t chunk_size = 1 << 16;
};

struct AdjustmentResult {
  // Per-record weights, summing to 1 (the probabilities of Algorithm 2).
  std::vector<double> weights;
  int iterations = 0;
  bool converged = false;
  // Largest |implied - target| marginal entry at termination.
  double max_marginal_gap = 0.0;
};

// Runs Algorithm 2 over the given groups. Fails with InvalidArgument if
// groups are empty, sizes are inconsistent, a target is not a
// distribution, or a code is out of range of its target; fails with
// FailedPrecondition if a group's target gives no mass to any category
// the weighted records still reach.
//
// Records with the same code in every group (one "cell") receive the
// same ratio at every step, so the fit runs over the distinct code
// tuples, each weighted by its record count. A record's key is its tuple
// written as an exact mixed-radix number (where the domain product would
// pass 64 bits, the tuples of the groups so far are numbered first and
// the key goes on from that number), so no record is read back to
// confirm a match and any domain sizes work. The records are split into
// one contiguous part per worker; the parts scatter their keys into
// buckets, each bucket lists its records in ascending order and finds
// each key's first record and count, and a prefix count of first records
// over the parts numbers the cells in order of first appearance. The
// same pass checks every code against its target's range. If more than
// half the records would need a cell, cells would save less than half
// the sweep work, so the build stops and every record is its own cell.
// The cells and that decision never depend on the thread count. Each
// iteration then performs exactly one parallel pass
// over the cells per group: pass g applies group g-1's reweighting ratio
// (with the renormalization folded into the ratio table, so no separate
// normalization scan exists) while accumulating group g's implied
// marginal; the last pass additionally accumulates every group's implied
// marginal for the convergence test and seeds the next iteration's first
// group. One final parallel pass hands every record its cell's weight.
// Output is bit-identical for any num_threads at a fixed chunk_size.
StatusOr<AdjustmentResult> RunRrAdjustment(
    const std::vector<AdjustmentGroup>& groups, size_t num_records,
    const AdjustmentOptions& options = {});

// Group builders for the two protocols. Each group's target is the
// protocol's projected Eq. (2) estimate.
std::vector<AdjustmentGroup> GroupsFromIndependent(
    const RrIndependentResult& result);
std::vector<AdjustmentGroup> GroupsFromClusters(
    const RrClustersResult& result);

// Convenience: adjusted-weights estimator over the protocol's randomized
// data (the WeightedRecordsEstimate of joint_estimate.h).
StatusOr<WeightedRecordsEstimate> MakeAdjustedEstimate(
    const RrIndependentResult& result, const AdjustmentOptions& options = {});
StatusOr<WeightedRecordsEstimate> MakeAdjustedEstimate(
    const RrClustersResult& result, const AdjustmentOptions& options = {});

}  // namespace mdrr

#endif  // MDRR_CORE_ADJUSTMENT_H_
