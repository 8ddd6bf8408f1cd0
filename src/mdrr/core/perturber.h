// The perturbation hooks the protocol frames are parameterized on.
//
// The frames perform validation, design and (RR-Independent) estimation
// and privacy accounting; a perturber decides *how* a column of codes is
// pushed through its randomization. RunRrIndependentWith takes an
// OracleColumnPerturber, so Protocol 1 runs every FrequencyOracle
// backend through one column loop; PerturbRrJoint takes a
// ColumnPerturber over its joint RrMatrix. PerturbColumnSequential is
// the one sequential column body: it draws from one Rng in record order
// (the classic protocols), and SequentialPerturber adapts it to a
// matrix. BatchPerturbationEngine substitutes its sharded multi-threaded
// column (BatchPerturbationEngine::PerturbColumn) without duplicating
// the protocol frames.

#ifndef MDRR_CORE_PERTURBER_H_
#define MDRR_CORE_PERTURBER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

// A randomized column and its empirical distribution λ̂. `codes` is
// empty for frequency-only oracle backends.
struct PerturbedColumn {
  std::vector<uint32_t> codes;
  std::vector<double> lambda;
};

// Perturbs `codes` through `matrix`. `column_index` is the 0-based
// position of the column within the protocol run (always 0 for
// RR-Joint; the cluster for RR-Clusters) so implementations can key
// per-column RNG sub-streams off it. A perturber that can fail (the
// distributed coordinator's network round trip) returns its Status, and
// the protocol frames propagate it.
using ColumnPerturber = std::function<StatusOr<PerturbedColumn>(
    const RrMatrix& matrix, const std::vector<uint32_t>& codes,
    size_t column_index)>;

// The same hook over any frequency-oracle backend; `column_index` is the
// attribute index of an RR-Independent run.
using OracleColumnPerturber = std::function<StatusOr<PerturbedColumn>(
    const FrequencyOracle& oracle, const std::vector<uint32_t>& codes,
    size_t column_index)>;

// The sequential column body: one fused AccumulateRange sweep drawing
// from `rng` in record order, then λ̂ = counts * (1/n) -- the exact
// arithmetic EmpiricalDistribution performs (reciprocal multiply, not
// per-entry division), so estimates are bit-identical to the unfused
// path.
PerturbedColumn PerturbColumnSequential(const FrequencyOracle& oracle,
                                        const std::vector<uint32_t>& codes,
                                        Rng& rng);

// PerturbColumnSequential over the matrix's direct-encoding oracle.
// `rng` must outlive the returned callable.
ColumnPerturber SequentialPerturber(Rng& rng);

}  // namespace mdrr

#endif  // MDRR_CORE_PERTURBER_H_
