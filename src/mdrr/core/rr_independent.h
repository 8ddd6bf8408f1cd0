// Protocol 1 (RR-Independent, Section 3.1): each party randomizes every
// attribute independently with a KeepUniform matrix; the controller
// estimates each marginal with Eq. (2) and treats attributes as
// independent when answering joint queries. The Wang et al. frequency
// oracles the paper cites are the same algorithm with another
// per-attribute randomizer, so one frame runs them all.

#ifndef MDRR_CORE_RR_INDEPENDENT_H_
#define MDRR_CORE_RR_INDEPENDENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/joint_estimate.h"
#include "mdrr/core/perturber.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

// Which per-attribute design Protocol 1 randomizes with.
enum class IndependentDesign {
  // KeepUniform(p) per attribute (the Section 6.3.1 design).
  kKeepUniform,
  // GeometricOrdinal(epsilon) per attribute: the distance-sensitive
  // ordinal design (rr_matrix.h), with the same Expression (4) epsilon
  // for every attribute.
  kGeometricOrdinal,
};

struct RrIndependentOptions {
  // The keep probability p of each per-attribute KeepUniform matrix
  // (Section 6.3.1 design). kKeepUniform only.
  double keep_probability = 0.7;
  IndependentDesign design = IndependentDesign::kKeepUniform;
  // Per-attribute Expression (4) epsilon. kGeometricOrdinal only.
  double geometric_epsilon = 1.0;
};

// The per-attribute randomization matrix the options describe, for an
// attribute of cardinality r. Shared by the Protocol 1 oracles below and
// by the streaming collector, so every consumer of one option set
// randomizes and estimates through the same design.
RrMatrix MakeIndependentMatrix(size_t r, const RrIndependentOptions& options);

// One frequency oracle per attribute of `dataset`. Backend kDirect at
// epsilon 0 is Protocol 1's own design: DirectEncodingOracle over
// MakeIndependentMatrix, the bit-pinned reference. Otherwise attribute j
// gets MakeFrequencyOracle(backend, r_j, epsilon), where epsilon 0
// inherits the design's Expression (4) epsilon at r_j, so backend swaps
// compare at equal epsilon. A single-category attribute has nothing to
// protect and always gets the design's epsilon-0 matrix.
StatusOr<std::vector<std::unique_ptr<FrequencyOracle>>> MakeIndependentOracles(
    const Dataset& dataset, const RrIndependentOptions& design,
    OracleBackend backend, double epsilon);

struct RrIndependentResult {
  // Y: the published randomized data set (empty when the backend
  // releases no microdata).
  Dataset randomized;
  // λ̂_j: empirical support distribution of each randomized attribute.
  std::vector<std::vector<double>> lambda;
  // Raw Eq. (2) estimates (may leave the simplex).
  std::vector<std::vector<double>> raw_estimated;
  // Section 6.4 projected estimates π̂_j (proper distributions).
  std::vector<std::vector<double>> estimated;
  // Exact epsilon of each attribute's oracle.
  std::vector<double> epsilons;
  // Sequential composition over attributes.
  double total_epsilon = 0.0;
};

// Runs Protocol 1 with the options' own design, drawing from `rng`.
// Fails on an empty dataset.
StatusOr<RrIndependentResult> RunRrIndependent(
    const Dataset& dataset, const RrIndependentOptions& options, Rng& rng);

// The protocol frame behind every per-attribute release: attribute j is
// randomized through oracles[j] by `perturber` (BatchPerturbationEngine
// substitutes a sharded perturber that keys RNG sub-streams off the
// attribute index), estimated through the oracle's EstimateFromLambda,
// projected, and charged its epsilon. With `microdata` the released
// dataset carries every randomized column on the full schema, and every
// oracle must produce microdata; without it the dataset stays empty.
StatusOr<RrIndependentResult> RunRrIndependentWith(
    const Dataset& dataset,
    const std::vector<std::unique_ptr<FrequencyOracle>>& oracles,
    bool microdata, const OracleColumnPerturber& perturber);

// The Protocol 1 joint-query estimator (product of estimated marginals).
IndependentMarginalsEstimate MakeIndependentEstimate(
    const RrIndependentResult& result);

}  // namespace mdrr

#endif  // MDRR_CORE_RR_INDEPENDENT_H_
