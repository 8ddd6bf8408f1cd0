// The perturbation hook the protocol frames are parameterized on.
//
// RunRrIndependentWith / PerturbRrJoint perform validation and matrix
// design (and, for RR-Independent, estimation and privacy accounting);
// the ColumnPerturber decides *how* a column of codes is pushed through
// the randomization matrix. SequentialPerturber draws from one Rng in
// record order (the classic protocols); BatchPerturbationEngine
// substitutes a sharded multi-threaded perturber without duplicating the
// protocol frames.

#ifndef MDRR_CORE_PERTURBER_H_
#define MDRR_CORE_PERTURBER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

// A randomized column and its empirical distribution λ̂.
struct PerturbedColumn {
  std::vector<uint32_t> codes;
  std::vector<double> lambda;
};

// Perturbs `codes` through `matrix`. `column_index` is the 0-based
// position of the column within the protocol run (attribute index for
// RR-Independent, always 0 for RR-Joint) so implementations can key
// per-column RNG sub-streams off it. A perturber that can fail (the
// distributed coordinator's network round trip) returns its Status, and
// the protocol frames propagate it.
using ColumnPerturber = std::function<StatusOr<PerturbedColumn>(
    const RrMatrix& matrix, const std::vector<uint32_t>& codes,
    size_t column_index)>;

// Perturber drawing sequentially from `rng`, which must outlive the
// returned callable.
ColumnPerturber SequentialPerturber(Rng& rng);

}  // namespace mdrr

#endif  // MDRR_CORE_PERTURBER_H_
