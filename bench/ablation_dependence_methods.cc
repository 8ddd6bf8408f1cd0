// Ablation A5: the three privacy-preserving dependence-assessment methods
// of Sections 4.1-4.3 against the trusted-party oracle -- fidelity (max
// absolute deviation of the dependence matrix and whether the resulting
// Algorithm 1 clustering matches), privacy cost, and communication cost.
//
// Usage: ablation_dependence_methods [--n=8000] [--p=0.8] [--seed=1]
// Any other flag, a malformed number or a negative count or seed
// exits 1, naming the flag.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "mdrr/common/flags.h"
#include "mdrr/core/clustering.h"
#include "mdrr/core/dependence_estimators.h"
#include "mdrr/dataset/adult.h"

namespace {

double MaxDeviation(const mdrr::linalg::Matrix& a,
                    const mdrr::linalg::Matrix& b) {
  double worst = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::fabs(a(i, j) - b(i, j)));
    }
  }
  return worst;
}

bool SameClustering(const mdrr::AttributeClustering& a,
                    const mdrr::AttributeClustering& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const mdrr::FlagSet flags = mdrr::ParseFlagsOrExit(
      argc, argv,
      {mdrr::UintFlag("n", 1), mdrr::RealFlag("p"), mdrr::UintFlag("seed")});
  const size_t n = flags.GetUint64("n", 8000);
  const double p = flags.GetDouble("p", 0.8);
  const uint64_t seed = flags.GetUint64("seed", 1);

  mdrr::Dataset adult = mdrr::SynthesizeAdult(n, seed);
  mdrr::ClusteringOptions clustering{50.0, 0.1};

  mdrr::bench::PrintHeader(
      "Ablation: dependence assessment methods (Sections 4.1-4.3) vs "
      "oracle");
  std::printf("# n = %zu, dependence-round keep probability p = %.2f\n", n,
              p);

  mdrr::DependenceEstimate oracle = mdrr::OracleDependences(adult);
  auto oracle_clusters =
      mdrr::ClusterAttributes(adult, oracle.dependences, clustering);
  if (!oracle_clusters.ok()) return 1;

  std::printf("%-26s %10s %12s %14s %10s\n", "method", "max dev", "epsilon",
              "messages", "clusters");

  auto report = [&](const char* name,
                    const mdrr::DependenceEstimate& estimate) {
    auto clusters =
        mdrr::ClusterAttributes(adult, estimate.dependences, clustering);
    const char* verdict = "ERROR";
    if (clusters.ok()) {
      verdict = SameClustering(clusters.value(), oracle_clusters.value())
                    ? "same"
                    : "differ";
    }
    std::printf("%-26s %10.4f %12.4g %14llu %10s\n", name,
                MaxDeviation(estimate.dependences, oracle.dependences),
                estimate.epsilon,
                static_cast<unsigned long long>(estimate.messages), verdict);
  };

  report("oracle (trusted party)", oracle);
  report("4.1 per-attribute RR",
         mdrr::RandomizedResponseDependences(adult, p, seed + 1));
  auto secure = mdrr::SecureSumDependences(
      adult, mdrr::mpc::SimulationMode::kFastSimulation, seed + 2);
  if (secure.ok()) report("4.2 secure-sum bivariate", secure.value());
  auto pairwise = mdrr::PairwiseRrDependences(
      adult, p, mdrr::mpc::SimulationMode::kFastSimulation, seed + 3);
  if (pairwise.ok()) report("4.3 pairwise RR + sum", pairwise.value());

  std::printf(
      "# shape check: 4.2 is exact but eps=inf; 4.1 attenuates values yet\n"
      "# typically preserves the clustering; 4.3 trades accuracy for a\n"
      "# finite parallel-composition epsilon at high message cost\n");
  return 0;
}
