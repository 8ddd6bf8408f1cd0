// The pluggable perturbation mechanism behind a ReleasePlan.
//
// Each adapter wraps one existing release protocol and runs it through
// a BatchPerturbationEngine, which alone knows the execution policy: a
// release is bit-identical to the corresponding engine calls, and so
// under BatchPerturbationEngine::Sequential to calling the stage
// functions directly with one Rng. Four adapters: joint, clusters, pram,
// and one per-attribute mechanism for `independent`,
// `geometric-ordinal` and every frequency_oracle backend (Protocol 1
// and the Wang et al. oracles are one algorithm: RunRrIndependentWith
// over one FrequencyOracle per attribute). A mechanism normalizes its
// protocol result into a MechanismOutput (released columns +
// per-attribute marginals + epsilons + the protocol-specific payload)
// and knows how to synthesize microdata and build Algorithm 2
// constraint groups from it.

#ifndef MDRR_RELEASE_MECHANISM_H_
#define MDRR_RELEASE_MECHANISM_H_

#include <memory>
#include <optional>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/adjustment.h"
#include "mdrr/core/batch_engine.h"
#include "mdrr/core/pram.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/release/spec.h"

namespace mdrr::release {

// Normalized product of a mechanism run. Exactly one protocol payload
// is set, holding the stage function's result verbatim; the released
// columns live inside it (full schema for independent/clusters/pram,
// empty for the frequency-only oracle backends sue|oue|olh).
// Only the joint mechanism fills `randomized` itself (the composite
// codes decoded onto the attribute subset's schema) -- for the others
// it stays empty here, and ReleasePlan::Run moves the payload's dataset
// into ReleaseArtifacts::randomized once every stage that reads it has
// run. `marginal_estimates` is aligned with the released schema (the
// input schema when no microdata is released).
struct MechanismOutput {
  Dataset randomized;
  std::vector<std::vector<double>> marginal_estimates;
  // Clusters mechanism only; defaulted otherwise.
  linalg::Matrix dependences;
  AttributeClustering clustering;
  double release_epsilon = 0.0;
  double dependence_epsilon = 0.0;

  std::optional<RrIndependentResult> independent;
  std::optional<RrJointResult> joint;
  std::optional<RrClustersResult> clusters;
  std::optional<PramResult> pram;
};

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  virtual const char* name() const = 0;

  // The perturbation + Eq. (2) estimation stage, through `engine`.
  virtual StatusOr<MechanismOutput> Run(
      const Dataset& dataset, const BatchPerturbationEngine& engine) const = 0;

  // Synthetic microdata from the mechanism's estimates, through `engine`.
  // Default: unsupported (ValidateReleaseSpec rejects such specs up
  // front).
  virtual StatusOr<Dataset> Synthesize(
      const MechanismOutput& output, int64_t n,
      const BatchPerturbationEngine& engine) const;

  // Algorithm 2 constraint groups for this output. `requested` is the
  // spec's explicit group list; empty means one group per mechanism
  // unit. Default: unsupported.
  virtual StatusOr<std::vector<AdjustmentGroup>> AdjustmentGroupsFor(
      const MechanismOutput& output,
      const std::vector<std::vector<size_t>>& requested) const;
};

// Builds the adapter the spec's mechanism section describes. The spec
// must already have passed ValidateReleaseSpec.
std::unique_ptr<Mechanism> MakeMechanism(const ReleaseSpec& spec);

}  // namespace mdrr::release

#endif  // MDRR_RELEASE_MECHANISM_H_
