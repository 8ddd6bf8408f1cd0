// Protocol 2 (RR-Joint, Section 3.2): randomized response over the
// Cartesian product of a set of attributes. Also the per-cluster engine of
// RR-Clusters, using the Section 6.3.2 matrix calibrated to the summed
// per-attribute epsilons.

#ifndef MDRR_CORE_RR_JOINT_H_
#define MDRR_CORE_RR_JOINT_H_

#include <cstdint>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/perturber.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

struct RrJointResult {
  // The attribute subset, in the order used by `domain`.
  std::vector<size_t> attributes;
  // Mixed-radix domain over those attributes.
  Domain domain;
  // Published composite randomized codes, one per record.
  std::vector<uint32_t> randomized_codes;
  // Empirical distribution of the randomized codes.
  std::vector<double> lambda;
  // Raw Eq. (2) estimate and its Section 6.4 projection.
  std::vector<double> raw_estimated;
  std::vector<double> estimated;
  // Expression (4) epsilon of the joint matrix.
  double epsilon = 0.0;
};

// The total epsilon budget the Section 6.3.2 calibration assigns to a
// cluster: sum over the cluster's attributes of the per-attribute
// KeepUniform(|A|, p) epsilon. `use_paper_formula` switches between the
// exact Expression (4) epsilon and the paper's printed approximation.
double ClusterEpsilonBudget(const Dataset& dataset,
                            const std::vector<size_t>& attributes,
                            double keep_probability,
                            bool use_paper_formula = false);

// Runs RR-Joint over `attributes` with the optimal matrix at `epsilon`
// (Section 6.3.2). Fails on empty data, empty attribute set, a product
// domain whose size overflows 64 bits (InvalidArgument, detected
// per-multiply before any allocation), or one too large to materialize
// (> 2^31 categories; OutOfRange).
StatusOr<RrJointResult> RunRrJoint(const Dataset& dataset,
                                   const std::vector<size_t>& attributes,
                                   double epsilon, Rng& rng);

// The randomization half of RR-Joint: validation, matrix design, and the
// perturbation pass -- everything that consumes randomness -- without the
// Eq. (2) estimation. RR-Clusters uses this to keep the per-cluster RNG
// transcript sequential while estimation (a pure function of matrix and
// λ̂) runs in parallel across clusters afterwards.
struct RrJointPerturbation {
  std::vector<size_t> attributes;
  Domain domain;
  RrMatrix matrix;
  std::vector<uint32_t> randomized_codes;
  std::vector<double> lambda;
};

StatusOr<RrJointPerturbation> PerturbRrJoint(
    const Dataset& dataset, const std::vector<size_t>& attributes,
    double epsilon, const ColumnPerturber& perturber);

// The estimation half: Eq. (2) through the fast backend (structured O(r)
// closed form or blocked parallel LU) plus the Section 6.4 projection and
// the Expression (4) epsilon. Deterministic: draws no randomness and is
// bit-identical for any options.num_threads.
// RunRrJoint(..., rng) ==
// EstimateRrJoint(PerturbRrJoint(..., SequentialPerturber(rng))).
StatusOr<RrJointResult> EstimateRrJoint(RrJointPerturbation perturbation,
                                        const EstimationOptions& options = {});

}  // namespace mdrr

#endif  // MDRR_CORE_RR_JOINT_H_
