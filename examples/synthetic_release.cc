// Synthetic microdata release: the paper's introduction promises that RR
// can "re-create a synthetic estimate of the original data set by
// repeating each combination of attribute values as many times as
// dictated by its frequency in the estimated joint distribution". One
// ReleaseSpec declares the whole product -- RR-Clusters, a synthetic
// data set of the original size, a utility report, and the CSV output
// path -- and ReleasePlanner runs it.
//
// Build & run:  ./build/example_synthetic_release [output.csv]

#include <cstdio>

#include "mdrr/common/flags.h"
#include "mdrr/core/dependence.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/release/planner.h"

int main(int argc, char** argv) {
  mdrr::ParseFlagsOrExit(argc, argv, {});  // Takes only the output path.
  const char* output_path = argc > 1 ? argv[1] : "synthetic_adult.csv";

  mdrr::Dataset original = mdrr::SynthesizeAdult(32561, 77);

  mdrr::release::ReleaseSpec spec;
  spec.mechanism.kind = mdrr::release::MechanismKind::kClusters;
  spec.mechanism.clustering = mdrr::ClusteringOptions{100.0, 0.1};
  spec.mechanism.dependence_source = mdrr::DependenceSource::kOracle;
  spec.budget.keep_probability = 0.8;
  spec.synthetic.enabled = true;  // records = 0 -> match the input size.
  spec.evaluation.utility_report = true;
  spec.execution.seed = 5;
  spec.output.synthetic_csv = output_path;

  auto plan = mdrr::release::ReleasePlanner::Plan(spec, &original);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  auto artifacts = plan.value().Run();
  if (!artifacts.ok()) {
    std::fprintf(stderr, "release failed: %s\n",
                 artifacts.status().ToString().c_str());
    return 1;
  }
  const mdrr::release::ReleaseArtifacts& a = artifacts.value();
  const mdrr::Dataset& synthetic = *a.synthetic;

  // Fidelity report 1: the utility report's per-attribute marginal
  // total-variation distances.
  std::printf("marginal fidelity (TV distance per attribute):\n");
  for (size_t j = 0; j < original.num_attributes(); ++j) {
    std::printf("  %-16s %.4f\n", original.attribute(j).name.c_str(),
                a.utility->marginal_tv[j]);
  }

  // Fidelity report 2: pairwise dependences (within vs across clusters).
  std::printf("\ndependence fidelity (true -> synthetic):\n");
  std::printf("  %-34s %6.3f -> %6.3f   (same cluster)\n",
              "Relationship <-> Sex",
              mdrr::DependenceBetween(original, mdrr::kAdultRelationship,
                                      mdrr::kAdultSex),
              mdrr::DependenceBetween(synthetic, mdrr::kAdultRelationship,
                                      mdrr::kAdultSex));
  std::printf("  %-34s %6.3f -> %6.3f   (across clusters: forced indep.)\n",
              "Education <-> Occupation",
              mdrr::DependenceBetween(original, mdrr::kAdultEducation,
                                      mdrr::kAdultOccupation),
              mdrr::DependenceBetween(synthetic, mdrr::kAdultEducation,
                                      mdrr::kAdultOccupation));

  std::printf("\nwrote %zu synthetic records to %s\n", synthetic.num_rows(),
              output_path);
  std::printf("clusters used: %s\n",
              mdrr::ClusteringToString(original, a.clustering).c_str());
  std::printf("release epsilon: %.3f\n", a.release_epsilon);
  return 0;
}
