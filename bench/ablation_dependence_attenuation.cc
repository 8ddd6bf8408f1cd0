// Ablation A4: Proposition 1 / Corollary 1 in practice -- covariance
// attenuation under per-attribute KeepUniform randomization is exactly
// p_a * p_b, and the dependence ranking used by Algorithm 1 survives.
//
// Usage: ablation_dependence_attenuation [--n=200000] [--seed=1]
// Any other flag, a malformed number or a negative count or seed
// exits 1, naming the flag.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "mdrr/common/flags.h"
#include "mdrr/core/dependence_estimators.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/rng/rng.h"
#include "mdrr/stats/descriptive.h"

namespace {

std::vector<double> ToDouble(const std::vector<uint32_t>& v) {
  return std::vector<double>(v.begin(), v.end());
}

}  // namespace

int main(int argc, char** argv) {
  const mdrr::FlagSet flags = mdrr::ParseFlagsOrExit(
      argc, argv,
      {mdrr::UintFlag("n", 1), mdrr::UintFlag("seed")});
  const size_t n = flags.GetUint64("n", 200000);
  const uint64_t seed = flags.GetUint64("seed", 1);

  mdrr::bench::PrintHeader(
      "Ablation: Proposition 1 covariance attenuation Cov(Y) = p^2 Cov(X)");

  // Correlated ordinal pair.
  mdrr::Rng rng(seed);
  std::vector<uint32_t> xa(n);
  std::vector<uint32_t> xb(n);
  for (size_t i = 0; i < n; ++i) {
    xa[i] = static_cast<uint32_t>(rng.UniformInt(5));
    xb[i] = rng.Bernoulli(0.75) ? xa[i]
                                : static_cast<uint32_t>(rng.UniformInt(5));
  }
  double cov_x = mdrr::stats::Covariance(ToDouble(xa), ToDouble(xb));
  std::printf("# n = %zu, Cov(Xa, Xb) = %.5f\n", n, cov_x);
  std::printf("%6s  %12s  %12s  %10s\n", "p", "Cov(Ya,Yb)", "p^2 Cov(X)",
              "ratio");
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    mdrr::RrMatrix matrix = mdrr::RrMatrix::KeepUniform(5, p);
    std::vector<uint32_t> ya = matrix.RandomizeColumn(xa, rng);
    std::vector<uint32_t> yb = matrix.RandomizeColumn(xb, rng);
    double cov_y = mdrr::stats::Covariance(ToDouble(ya), ToDouble(yb));
    double predicted = p * p * cov_x;
    std::printf("%6.1f  %12.5f  %12.5f  %10.3f\n", p, cov_y, predicted,
                predicted != 0.0 ? cov_y / predicted : 0.0);
  }

  // Ranking preservation on Adult (Corollary 1's consequence for
  // Algorithm 1): the top-3 pair ranking under randomization.
  mdrr::Dataset adult = mdrr::SynthesizeAdult(32561, seed + 1);
  mdrr::DependenceEstimate oracle = mdrr::OracleDependences(adult);
  std::printf("\n# dependence ranking preservation on Adult (top pairs)\n");
  std::printf("%6s  %24s  %24s\n", "p", "dep(Rel,Sex) rnd/true",
              "dep(Marital,Rel) rnd/true");
  double true_rs = oracle.dependences(mdrr::kAdultRelationship,
                                      mdrr::kAdultSex);
  double true_mr = oracle.dependences(mdrr::kAdultMaritalStatus,
                                      mdrr::kAdultRelationship);
  for (double p : {0.3, 0.5, 0.7, 0.9}) {
    mdrr::DependenceEstimate randomized =
        mdrr::RandomizedResponseDependences(adult, p, seed + 100);
    double rs = randomized.dependences(mdrr::kAdultRelationship,
                                       mdrr::kAdultSex);
    double mr = randomized.dependences(mdrr::kAdultMaritalStatus,
                                       mdrr::kAdultRelationship);
    std::printf("%6.1f  %11.3f /%10.3f  %11.3f /%10.3f   order %s\n", p, rs,
                true_rs, mr, true_mr,
                (rs > mr) == (true_rs > true_mr) ? "preserved" : "BROKEN");
  }
  return 0;
}
