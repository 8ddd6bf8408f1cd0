// Parallel batch pipeline: one sharded-policy ReleaseSpec driving a full
// release -- perturbation, Algorithm 2 adjustment, and synthetic
// release -- over a large synthetic Adult workload.
//
// The sharded execution policy gives every fixed-size shard of records
// its own deterministic RNG sub-stream (and merges floating-point
// partials in chunk order), so every stage's output is bit-identical for
// any thread count. This example runs the SAME spec at 1 thread and at
// one-thread-per-core and checks that claim before printing the
// estimated marginal of one attribute.
//
// Build & run:  ./build/example_parallel_batch [--n=200000] [--p=0.7]
// (any other flag, or a malformed --n/--p, exits 1 naming it)

#include <cstdio>
#include <vector>

#include "mdrr/common/flags.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/release/planner.h"

int main(int argc, char** argv) {
  const mdrr::FlagSet flags = mdrr::ParseFlagsOrExit(
      argc, argv, {mdrr::UintFlag("n", 1), mdrr::RealFlag("p")});
  const size_t n = flags.GetUint64("n", 200000);
  const double p = flags.GetDouble("p", 0.7);

  mdrr::Dataset data = mdrr::SynthesizeAdult(n, /*seed=*/2020);
  std::printf("workload: %zu synthetic Adult records, %zu attributes\n",
              data.num_rows(), data.num_attributes());

  // One spec: Protocol 1 + adjustment + synthetic release, sharded
  // policy at seed 1. Only num_threads differs between the two runs --
  // and num_threads is the one knob that never changes output.
  mdrr::release::ReleaseSpec spec;
  spec.mechanism.kind = mdrr::release::MechanismKind::kIndependent;
  spec.budget.keep_probability = p;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  spec.execution.kind = mdrr::release::PolicyKind::kSharded;
  spec.execution.seed = 1;

  auto run_with_threads = [&](size_t threads)
      -> mdrr::StatusOr<mdrr::release::ReleaseArtifacts> {
    spec.execution.num_threads = threads;
    MDRR_ASSIGN_OR_RETURN(mdrr::release::ReleasePlan plan,
                          mdrr::release::ReleasePlanner::Plan(spec, &data));
    return plan.Run();
  };

  auto one = run_with_threads(1);
  auto many = run_with_threads(0);  // One worker per hardware core.
  if (!one.ok() || !many.ok()) {
    std::fprintf(stderr, "release failed\n");
    return 1;
  }
  const mdrr::release::ReleaseArtifacts& a1 = one.value();
  const mdrr::release::ReleaseArtifacts& aN = many.value();

  bool identical = a1.marginal_estimates == aN.marginal_estimates;
  for (size_t j = 0; identical && j < data.num_attributes(); ++j) {
    identical = a1.randomized.column(j) == aN.randomized.column(j);
  }
  std::printf("perturbation bit-identical:      %s\n",
              identical ? "yes" : "NO");
  if (!identical) return 1;

  bool adjust_identical =
      a1.adjustment->weights == aN.adjustment->weights;
  std::printf("adjustment bit-identical:        %s (%d iterations)\n",
              adjust_identical ? "yes" : "NO", aN.adjustment->iterations);
  bool synth_identical = true;
  for (size_t j = 0; synth_identical && j < data.num_attributes(); ++j) {
    synth_identical = a1.synthetic->column(j) == aN.synthetic->column(j);
  }
  std::printf("synthetic release bit-identical: %s\n",
              synth_identical ? "yes" : "NO");
  if (!adjust_identical || !synth_identical) return 1;

  const mdrr::Attribute& attribute = data.attribute(0);
  std::printf("estimated marginal of '%s' (eps_total = %.3f):\n",
              attribute.name.c_str(), aN.total_epsilon());
  for (size_t v = 0; v < attribute.cardinality(); ++v) {
    std::printf("  %-24s %.4f\n", attribute.categories[v].c_str(),
                aN.marginal_estimates[0][v]);
  }
  for (const mdrr::release::StageTiming& timing : aN.timings) {
    std::printf("stage %-10s %8.3fs\n", timing.stage.c_str(),
                timing.seconds);
  }
  return 0;
}
