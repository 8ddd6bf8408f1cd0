// Privacy-preserving dependence discovery: the three methods of Sections
// 4.1-4.3 side by side on the same survey, with their accuracy and
// privacy trade-offs and the attribute clustering each one induces. This
// is the decision an RR-Clusters deployment has to make before anyone
// publishes data -- so it is exactly one field of the ReleaseSpec: the
// same spec is run four times, varying only
// `mechanism.dependence_source`.
//
// Build & run:  ./build/example_dependence_discovery

#include <cmath>
#include <cstdio>

#include "mdrr/common/flags.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/release/planner.h"

namespace {

using mdrr::release::ReleaseArtifacts;

void Report(const char* name, const mdrr::Dataset& survey,
            const ReleaseArtifacts& artifacts,
            const mdrr::linalg::Matrix& oracle) {
  double max_dev = 0.0;
  for (size_t i = 0; i < artifacts.dependences.rows(); ++i) {
    for (size_t j = 0; j < artifacts.dependences.cols(); ++j) {
      max_dev = std::max(max_dev, std::fabs(artifacts.dependences(i, j) -
                                            oracle(i, j)));
    }
  }
  std::printf("\n%s\n", name);
  std::printf("  max deviation from oracle: %.4f\n", max_dev);
  if (std::isinf(artifacts.dependence_epsilon)) {
    std::printf("  privacy: NOT differentially private (exact values)\n");
  } else if (artifacts.dependence_epsilon == 0.0) {
    std::printf("  privacy: trusted party, nothing published\n");
  } else {
    std::printf("  privacy: eps = %.3f\n", artifacts.dependence_epsilon);
  }
  std::printf("  induced clustering (Tv=50, Td=0.1): %s\n",
              mdrr::ClusteringToString(survey, artifacts.clustering).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  mdrr::ParseFlagsOrExit(argc, argv, {});  // Takes no flags.
  // A moderate survey so the secure-sum simulation stays quick.
  mdrr::Dataset survey = mdrr::SynthesizeAdult(2000, 11);
  std::printf("survey: %zu respondents x %zu attributes\n",
              survey.num_rows(), survey.num_attributes());

  // One spec; the runs differ only in the dependence source.
  mdrr::release::ReleaseSpec spec;
  spec.mechanism.kind = mdrr::release::MechanismKind::kClusters;
  spec.mechanism.clustering = mdrr::ClusteringOptions{50.0, 0.1};
  spec.budget.keep_probability = 0.8;
  spec.budget.dependence_keep_probability = 0.8;
  spec.execution.seed = 101;

  struct Method {
    const char* name;
    mdrr::DependenceSource source;
  };
  const Method methods[] = {
      {"baseline: trusted party (oracle)", mdrr::DependenceSource::kOracle},
      {"Section 4.1: RR on each attribute",
       mdrr::DependenceSource::kRandomizedResponse},
      {"Section 4.2: exact bivariate distributions via secure sum",
       mdrr::DependenceSource::kSecureSum},
      {"Section 4.3: RR on each attribute pair + secure sum",
       mdrr::DependenceSource::kPairwiseRr},
  };

  mdrr::linalg::Matrix oracle;
  for (const Method& method : methods) {
    spec.mechanism.dependence_source = method.source;
    auto plan = mdrr::release::ReleasePlanner::Plan(spec, &survey);
    if (!plan.ok()) {
      std::fprintf(stderr, "planning failed: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    auto artifacts = plan.value().Run();
    if (!artifacts.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", method.name,
                   artifacts.status().ToString().c_str());
      // Without the oracle baseline there is nothing to compare against.
      if (method.source == mdrr::DependenceSource::kOracle) return 1;
      continue;
    }
    if (method.source == mdrr::DependenceSource::kOracle) {
      oracle = artifacts.value().dependences;
    }
    Report(method.name, survey, artifacts.value(), oracle);
  }

  std::printf(
      "\nreading guide: 4.2 is exact but leaks exact distributions; 4.1 is\n"
      "cheapest and differentially private but attenuates dependences\n"
      "(Corollary 1 preserves their ranking); 4.3 buys a finite epsilon\n"
      "with secure-sum communication.\n");
  return 0;
}
