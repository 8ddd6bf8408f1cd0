// Section 3.3 accuracy analysis: the analytic best-case (even-frequency)
// relative errors of RR-Independent versus RR-Joint as the number of
// attributes grows, on the Adult cardinalities. Demonstrates the
// exponential blow-up that motivates RR-Clusters.
//
// Usage: sec33_accuracy_analysis [--alpha=0.05] [--n=32561]
// Any other flag, a malformed number or a negative count or seed
// exits 1, naming the flag.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "mdrr/common/flags.h"
#include "mdrr/stats/error_bounds.h"

int main(int argc, char** argv) {
  const mdrr::FlagSet flags = mdrr::ParseFlagsOrExit(
      argc, argv,
      {mdrr::RealFlag("alpha"), mdrr::IntFlag("n", 1)});
  const double alpha = flags.GetDouble("alpha", 0.05);
  const int64_t n = flags.GetInt("n", 32561);

  mdrr::bench::PrintHeader(
      "Section 3.3: analytic even-frequency relative error, "
      "RR-Independent vs RR-Joint");
  std::printf("# alpha = %.3f, n = %lld\n", alpha, static_cast<long long>(n));

  // Adult cardinalities in the paper's order.
  const std::vector<int64_t> adult_cards = {9, 16, 7, 15, 6, 5, 2, 2};
  const char* names[] = {"Work-class", "Education",  "Marital-status",
                         "Occupation", "Relationship", "Race",
                         "Sex",        "Income"};

  std::printf("%3s %-16s %10s  %14s %14s\n", "m", "added attribute",
              "product", "e_rel(RR-Ind)", "e_rel(RR-Joint)");
  std::vector<int64_t> prefix;
  double product = 1.0;
  for (size_t m = 0; m < adult_cards.size(); ++m) {
    prefix.push_back(adult_cards[m]);
    product *= static_cast<double>(adult_cards[m]);
    double independent =
        mdrr::stats::RrIndependentEvenRelativeError(prefix, n, alpha);
    double joint = mdrr::stats::RrJointEvenRelativeError(prefix, n, alpha);
    std::printf("%3zu %-16s %10.0f  %14.4f %14.4f\n", m + 1, names[m],
                product, independent, joint);
  }
  std::printf(
      "# paper shape check: RR-Ind stays ~constant (worst attribute);\n"
      "# RR-Joint grows ~sqrt(product) and is useless beyond 3-4 attrs\n");

  // The Bound (7) / Figure 1 discussion: at n = r even the best case has
  // sqrt(B) relative error (>200%).
  std::printf("\n# bound (7) illustration: n = r (even frequencies)\n");
  std::printf("%10s %12s\n", "r = n", "e_rel");
  for (int64_t r : {100, 1000, 10000, 100000}) {
    std::printf("%10lld %12.4f\n", static_cast<long long>(r),
                mdrr::stats::EvenFrequencyRelativeError(
                    static_cast<double>(r), r, alpha));
  }
  return 0;
}
