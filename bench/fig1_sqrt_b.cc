// Figure 1: evolution of sqrt(B) (the factor in the absolute error of
// lambda-hat, Definition 1) as a function of the number of categories r,
// at confidence alpha = 0.05. B is the (alpha/r) upper percentile of the
// chi-squared distribution with 1 degree of freedom.
//
// Usage: fig1_sqrt_b [--alpha=0.05] [--max_r=100000]
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
      {mdrr::RealFlag("alpha"), mdrr::IntFlag("max_r", 1)});
  double alpha = flags.GetDouble("alpha", 0.05);
  int64_t max_r = flags.GetInt("max_r", 100000);

  mdrr::bench::PrintHeader("Figure 1: sqrt(B) vs number of categories r");
  std::printf("# alpha = %.3f; B = chi2_1 upper (alpha/r) percentile\n",
              alpha);
  std::printf("%10s  %10s\n", "r", "sqrt(B)");

  std::vector<int64_t> grid = {2,    5,     10,    20,    50,    100,
                               200,  500,   1000,  2000,  5000,  10000,
                               20000, 40000, 60000, 80000};
  grid.push_back(max_r);
  for (int64_t r : grid) {
    if (r > max_r) continue;
    std::printf("%10lld  %10.4f\n", static_cast<long long>(r),
                mdrr::stats::SqrtB(alpha, static_cast<double>(r)));
  }
  std::printf(
      "# paper shape check: rises from ~2.2 (r=2) toward ~5 at r=1e5\n");
  return 0;
}
