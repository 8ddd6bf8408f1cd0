// Table 2: the Table 1 grid evaluated on Adult6 -- the Adult data set
// concatenated 6 times (Section 6.5), isolating the effect of data set
// size at identical distribution.
//
// Usage: table2_rr_clusters_adult6 [--runs=25] [--seed=1] [--sigma=0.1]
//                                  [--adult_csv=...] [--n=32561]
//                                  [--data_seed=2020] [--query_attrs=2]
// Any other flag, or a malformed or negative number, exits 1.

#include <cstdio>

#include "bench/bench_util.h"
#include "mdrr/common/flags.h"
#include "mdrr/core/dependence.h"
#include "mdrr/eval/experiment.h"

int main(int argc, char** argv) {
  using mdrr::bench::FlagValue;
  const mdrr::FlagSet flags = mdrr::bench::ParseAdultBenchFlags(
      argc, argv,
      {{"runs", FlagValue::kPositiveInt},
       {"query_attrs", FlagValue::kPositiveInt},
       {"sigma", FlagValue::kReal},
       {"seed", FlagValue::kNonNegativeInt}});
  mdrr::Dataset adult6 = mdrr::bench::LoadAdult(flags).Tiled(6);

  const int runs = mdrr::bench::RunsFlag(flags);
  const size_t query_attrs = static_cast<size_t>(flags.GetInt("query_attrs", 2));
  const double sigma = flags.GetDouble("sigma", 0.1);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  mdrr::bench::PrintHeader(
      "Table 2: RR-Clusters relative error on Adult6 (6x concatenation)");
  std::printf("# n = %zu records, %d runs per cell (paper: 1000), sigma=%.2f\n",
              adult6.num_rows(), runs, sigma);

  mdrr::linalg::Matrix dependences = mdrr::DependenceMatrix(adult6);

  const double ps[] = {0.1, 0.3, 0.5, 0.7};
  const double tds[] = {0.1, 0.2, 0.3};
  const double tvs[] = {50, 100, 300};

  std::printf("%5s %5s  %8s %8s %8s\n", "p", "Td", "Tv=50", "Tv=100",
              "Tv=300");
  for (double p : ps) {
    for (double td : tds) {
      std::printf("%5.1f %5.1f ", p, td);
      for (double tv : tvs) {
        mdrr::eval::ExperimentConfig config;
        config.method = mdrr::eval::Method::kRrClusters;
        config.keep_probability = p;
        config.clustering = mdrr::ClusteringOptions{tv, td};
        config.dependences = &dependences;
        config.sigma = sigma;
        config.query_attributes = query_attrs;
        config.runs = runs;
        config.seed = seed;
        auto result = RunCountQueryExperiment(adult6, config);
        if (!result.ok()) {
          std::fprintf(stderr, "cell failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
        std::printf(" %8.3f", result.value().median_relative_error);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "# paper shape check: every cell below its Table 1 counterpart; the\n"
      "# largest gains appear at small p / small Tv; at p=0.7 larger Tv\n"
      "# becomes competitive\n");
  return 0;
}
