// Figure 2: absolute (left panel) and relative (right panel) count-query
// error of the raw "Randomized" data versus RR-Independent (Eq. (2)
// estimation) at p = 0.7, as a function of domain coverage sigma.
//
// Usage: fig2_randomized_vs_rrind [--runs=25] [--p=0.7] [--seed=1]
//                                 [--adult_csv=...] [--n=32561]
//                                 [--query_attrs=2]
// The Adult flags --adult_csv/--n/--data_seed are read by LoadAdult.
// Any other flag, a malformed number or a negative count or seed
// exits 1, naming the flag.

#include <cstdio>

#include "bench/bench_util.h"
#include "mdrr/common/flags.h"
#include "mdrr/eval/experiment.h"

int main(int argc, char** argv) {
  const mdrr::FlagSet flags = mdrr::ParseFlagsOrExit(
      argc, argv,
      mdrr::bench::AdultFlags({mdrr::bench::kRunsFlag,
                               mdrr::UintFlag("query_attrs", 1),
                               mdrr::RealFlag("p"), mdrr::UintFlag("seed")}));
  mdrr::Dataset adult = mdrr::bench::LoadAdult(flags);
  const int runs = mdrr::bench::RunsFlag(flags);
  const size_t query_attrs = flags.GetUint64("query_attrs", 2);
  const double p = flags.GetDouble("p", 0.7);
  const uint64_t seed = flags.GetUint64("seed", 1);

  mdrr::bench::PrintHeader(
      "Figure 2: Randomized vs RR-Independent count-query error (p = 0.7)");
  std::printf("# n = %zu records, %d runs per point (paper: 1000)\n",
              adult.num_rows(), runs);
  std::printf("%6s  %14s %14s  %12s %12s\n", "sigma", "abs(Randomized)",
              "abs(RR-Ind)", "rel(Randomized)", "rel(RR-Ind)");

  const double sigmas[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  for (double sigma : sigmas) {
    mdrr::eval::ExperimentConfig config;
    config.keep_probability = p;
    config.sigma = sigma;
    config.query_attributes = query_attrs;
    config.runs = runs;
    config.seed = seed;

    config.method = mdrr::eval::Method::kRandomized;
    auto randomized = RunCountQueryExperiment(adult, config);
    config.method = mdrr::eval::Method::kRrIndependent;
    auto rr_ind = RunCountQueryExperiment(adult, config);
    if (!randomized.ok() || !rr_ind.ok()) {
      std::fprintf(stderr, "experiment failed: %s / %s\n",
                   randomized.status().ToString().c_str(),
                   rr_ind.status().ToString().c_str());
      return 1;
    }
    std::printf("%6.1f  %14.1f %14.1f  %12.4f %12.4f\n", sigma,
                randomized.value().median_absolute_error,
                rr_ind.value().median_absolute_error,
                randomized.value().median_relative_error,
                rr_ind.value().median_relative_error);
  }
  std::printf(
      "# paper shape check: RR-Ind errors well below Randomized; absolute\n"
      "# error peaks near sigma=0.5; relative error decreases with sigma\n");
  return 0;
}
