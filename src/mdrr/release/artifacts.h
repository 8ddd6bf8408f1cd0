// Everything a ReleasePlan run produces, in one value.
//
// The artifacts bundle the released randomized data, the estimates, the
// privacy ledger numbers, and the optional post-processing products
// (adjusted weights, synthetic data, utility report), plus per-stage
// wall-clock timings. The protocol-specific payload of the mechanism is
// kept verbatim (see MechanismOutput) so callers can still build the
// protocol estimators or compare against direct stage calls bit for bit.

#ifndef MDRR_RELEASE_ARTIFACTS_H_
#define MDRR_RELEASE_ARTIFACTS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mdrr/core/adjustment.h"
#include "mdrr/core/joint_estimate.h"
#include "mdrr/eval/utility_report.h"
#include "mdrr/release/mechanism.h"

namespace mdrr::release {

struct StageTiming {
  std::string stage;
  double seconds = 0.0;
};

struct ReleaseArtifacts {
  // The released randomized columns (full schema for independent,
  // clusters and pram; the joint attribute subset for joint) and the
  // per-attribute Eq. (2) projected estimates aligned with its schema.
  Dataset randomized;
  std::vector<std::vector<double>> marginal_estimates;

  // Records the estimates refer to. Redundant with randomized.num_rows()
  // on a fresh run, but printed in the summary, which leaves the
  // datasets to the CSV side files (see OutputSpec).
  double num_records = 0.0;

  // Clusters mechanism only; defaulted otherwise.
  linalg::Matrix dependences;
  AttributeClustering clustering;

  // Privacy ledger: epsilon of the release itself and of the
  // dependence-assessment round (sequential composition gives the
  // total).
  double release_epsilon = 0.0;
  double dependence_epsilon = 0.0;
  double total_epsilon() const { return release_epsilon + dependence_epsilon; }

  // The mechanism's protocol payload (exactly one set; see
  // MechanismOutput). The payload's own `randomized` dataset member has
  // been moved into `randomized` above -- everything else is the stage
  // function's output verbatim.
  std::optional<RrIndependentResult> independent;
  std::optional<RrJointResult> joint;
  std::optional<RrClustersResult> clusters;
  std::optional<PramResult> pram;

  // Optional stage products.
  std::optional<AdjustmentResult> adjustment;
  std::optional<Dataset> synthetic;
  std::optional<eval::UtilityReport> utility;

  std::vector<StageTiming> timings;
};

// The count-query estimator this release supports, best first: adjusted
// weights (Algorithm 2) when adjustment ran, the cluster factorization
// for the clusters mechanism, the joint estimate for the joint
// mechanism, and the independent-marginals product otherwise. Fails on
// artifacts with no payload.
StatusOr<std::unique_ptr<JointEstimate>> MakeJointEstimate(
    const ReleaseArtifacts& artifacts);

}  // namespace mdrr::release

#endif  // MDRR_RELEASE_ARTIFACTS_H_
