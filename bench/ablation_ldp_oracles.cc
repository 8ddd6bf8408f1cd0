// Ablation: the LDP frequency-oracle family of the paper's related work
// (Wang et al. [29], RAPPOR [12]) against the paper's own direct-encoding
// matrix, at equal epsilon -- empirical MSE of frequency estimates across
// domain sizes. Shows the DE/OUE crossover in r and what the
// microdata-capable mechanism costs relative to frequency-only protocols.
//
// Usage: ablation_ldp_oracles [--eps=1.0] [--n=20000] [--reps=40]
//                             [--seed=1]
// Any other flag, a malformed number or a negative count or seed
// exits 1, naming the flag.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "mdrr/common/flags.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/rng/rng.h"

namespace {

// Empirical mean-squared error of the first category's estimate.
template <typename EstimateFn>
double EmpiricalMse(EstimateFn estimate_once, const std::vector<double>& pi,
                    int reps) {
  double mse = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    double err = estimate_once(rep) - pi[0];
    mse += err * err;
  }
  return mse / reps;
}

}  // namespace

int main(int argc, char** argv) {
  using mdrr::bench::FlagValue;
  const mdrr::FlagSet flags = mdrr::bench::ParseBenchFlags(
      argc, argv,
      {{"eps", FlagValue::kReal},
       {"n", FlagValue::kPositiveInt},
       {"reps", FlagValue::kPositiveInt},
       {"seed", FlagValue::kNonNegativeInt}});
  const double eps = flags.GetDouble("eps", 1.0);
  const int n = static_cast<int>(flags.GetInt("n", 20000));
  const int reps = static_cast<int>(flags.GetInt("reps", 40));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  mdrr::bench::PrintHeader(
      "Ablation: LDP frequency oracles (DE vs SUE vs OUE) at equal "
      "epsilon");
  std::printf("# eps = %.2f, n = %d respondents, %d replications\n", eps, n,
              reps);
  std::printf("%6s  %12s %12s %12s   %12s %12s\n", "r", "MSE(DE)",
              "MSE(SUE)", "MSE(OUE)", "theory DE", "theory OUE");

  for (size_t r : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    // A skewed distribution: pi_0 = 0.5, rest uniform.
    std::vector<double> pi(r, 0.5 / static_cast<double>(r - 1));
    pi[0] = 0.5;

    mdrr::DirectEncodingOracle de(r, eps);
    mdrr::UnaryEncodingOracle sue(
        r, eps, mdrr::UnaryEncodingOracle::Variant::kSymmetric);
    mdrr::UnaryEncodingOracle oue(
        r, eps, mdrr::UnaryEncodingOracle::Variant::kOptimized);

    mdrr::Rng rng(seed + r);
    auto de_once = [&](int) {
      std::vector<uint32_t> reports(n);
      for (int i = 0; i < n; ++i) {
        reports[i] =
            de.Randomize(static_cast<uint32_t>(rng.Discrete(pi)), rng);
      }
      return de.EstimateFrequencies(reports).value()[0];
    };
    auto unary_once = [&](const mdrr::UnaryEncodingOracle& oracle) {
      std::vector<int64_t> bit_counts(r, 0);
      for (int i = 0; i < n; ++i) {
        std::vector<uint8_t> report = oracle.Randomize(
            static_cast<uint32_t>(rng.Discrete(pi)), rng);
        for (size_t v = 0; v < r; ++v) bit_counts[v] += report[v];
      }
      return oracle.EstimateFrequencies(bit_counts, n).value()[0];
    };

    double mse_de = EmpiricalMse(de_once, pi, reps);
    double mse_sue = EmpiricalMse(
        [&](int) { return unary_once(sue); }, pi, reps);
    double mse_oue = EmpiricalMse(
        [&](int) { return unary_once(oue); }, pi, reps);

    std::printf("%6zu  %12.3e %12.3e %12.3e   %12.3e %12.3e\n", r, mse_de,
                mse_sue, mse_oue, de.TheoreticalVariance(pi[0], n),
                oue.TheoreticalVariance(pi[0], n));
  }
  std::printf(
      "# shape check: DE wins for small r, OUE for large r (its variance\n"
      "# is independent of r); OUE always beats SUE; empirical matches\n"
      "# theory columns\n");
  return 0;
}
