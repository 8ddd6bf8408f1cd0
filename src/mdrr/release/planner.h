// ReleaseSpec -> ReleasePlan -> ReleaseArtifacts.
//
// The planner validates a declarative ReleaseSpec, resolves its dataset
// binding, and lowers it into an executable ReleasePlan whose Run()
// drives every stage -- perturbation/estimation, optional Algorithm 2
// adjustment, optional synthetic release, optional utility evaluation,
// and output writing -- under the spec's single ExecutionPolicy:
//
//   kSequential   BatchPerturbationEngine::Sequential(seed): one Rng(seed)
//                 drawn by the stages in order, bit-identical to calling
//                 the stage functions directly;
//   kSharded      the options-constructed BatchPerturbationEngine,
//                 bit-identical for any num_threads at fixed (seed,
//                 shard_size) and to the corresponding direct engine
//                 calls;
//   kDistributed  the kSharded pipeline with column perturbation farmed
//                 out to worker processes through a net::Coordinator --
//                 bit-identical to kSharded at the same (seed,
//                 shard_size, rng) for any worker count. Run() self-hosts
//                 the coordinator (listens on execution.listen_port and
//                 waits for execution.num_workers); RunDistributed takes
//                 an already-connected coordinator instead. Failures are
//                 fail-closed: a worker error aborts the release before
//                 any artifact or output file exists.
//
// Each policy is one BatchPerturbationEngine, so the stage pipeline is
// the same code under all three: only the engine knows which runs.
//
// Run() is const and re-derives all randomness from the spec, so a plan
// can be executed repeatedly (or the spec shipped to another machine)
// with identical artifacts.

#ifndef MDRR_RELEASE_PLANNER_H_
#define MDRR_RELEASE_PLANNER_H_

#include <memory>

#include "mdrr/common/status_or.h"
#include "mdrr/net/coordinator.h"
#include "mdrr/release/artifacts.h"
#include "mdrr/release/controller.h"
#include "mdrr/release/mechanism.h"
#include "mdrr/release/spec.h"

namespace mdrr::release {

class ReleasePlan {
 public:
  const ReleaseSpec& spec() const { return spec_; }
  const Dataset& dataset() const {
    return provided_ != nullptr ? *provided_ : owned_;
  }

  // Executes every planned stage and returns the artifacts (plus writes
  // the spec's output files, when configured). Under kDistributed this
  // listens, accepts the configured worker count, runs, and commits.
  StatusOr<ReleaseArtifacts> Run() const;

  // kDistributed only: runs the release over a coordinator the caller
  // already set up (listening, workers accepted) -- the entry point for
  // tests and embedders that need the ephemeral port before workers
  // launch. The coordinator's seed, rng and shard_size must equal the
  // policy's (InvalidArgument naming the field otherwise, with the
  // workers aborted). Commits on success; aborts the workers and returns
  // the first failure otherwise, never writing any configured output.
  StatusOr<ReleaseArtifacts> RunDistributed(
      net::Coordinator& coordinator) const;

 private:
  friend class ReleasePlanner;
  ReleasePlan(ReleaseSpec spec, Dataset owned, const Dataset* provided,
              std::unique_ptr<Mechanism> mechanism);

  // The stage pipeline shared by every policy; `engine` carries the
  // policy.
  StatusOr<ReleaseArtifacts> ExecuteStages(
      const BatchPerturbationEngine& engine) const;

  ReleaseSpec spec_;
  // kProvided binds by reference (no copy); the other sources own their
  // resolved dataset.
  Dataset owned_;
  const Dataset* provided_ = nullptr;
  std::unique_ptr<Mechanism> mechanism_;
};

class ReleasePlanner {
 public:
  // Validates `spec` and resolves its dataset binding. `provided` is
  // required when spec.dataset.source is kProvided; the plan then
  // borrows it, so it must outlive the plan. Returns InvalidArgument on
  // a malformed or contradictory spec.
  static StatusOr<ReleasePlan> Plan(const ReleaseSpec& spec,
                                    const Dataset* provided = nullptr);

  // Lowers an execution policy into the controller-side stage bundle
  // used when parties perturb their own records (protocol/session.cc).
  static StatusOr<ControllerPlan> PlanController(
      const ClusteringOptions& clustering, const ExecutionPolicy& policy);
};

}  // namespace mdrr::release

#endif  // MDRR_RELEASE_PLANNER_H_
