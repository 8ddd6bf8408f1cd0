// Table 1: median relative error of RR-Clusters on Adult for
// Tv in {50, 100, 300}, Td in {0.1, 0.2, 0.3} and randomization
// p in {0.1, 0.3, 0.5, 0.7}, at coverage sigma = 0.1.
//
// Usage: table1_rr_clusters_adult [--runs=25] [--seed=1] [--sigma=0.1]
//                                 [--adult_csv=...] [--n=32561] [--tile=1]
//                                 [--data_seed=2020] [--query_attrs=2]
// Any other flag, or a malformed or negative number, exits 1.

#include <cstdio>

#include "bench/bench_util.h"
#include "mdrr/common/flags.h"
#include "mdrr/core/dependence.h"
#include "mdrr/eval/experiment.h"

namespace {

int RunGrid(const mdrr::Dataset& dataset, const mdrr::FlagSet& flags,
            const char* title) {
  const int runs = mdrr::bench::RunsFlag(flags);
  const size_t query_attrs = flags.GetUint64("query_attrs", 2);
  const double sigma = flags.GetDouble("sigma", 0.1);
  const uint64_t seed = flags.GetUint64("seed", 1);

  mdrr::bench::PrintHeader(title);
  std::printf("# n = %zu records, %d runs per cell (paper: 1000), sigma=%.2f\n",
              dataset.num_rows(), runs, sigma);

  // The attribute dependences do not change across the grid: hoist them.
  mdrr::linalg::Matrix dependences = mdrr::DependenceMatrix(dataset);

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
        auto result = RunCountQueryExperiment(dataset, config);
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
      "# paper shape check: error grows with Tv; decreases sharply as p\n"
      "# grows; Td matters little at large p\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const mdrr::FlagSet flags = mdrr::ParseFlagsOrExit(
      argc, argv,
      mdrr::bench::AdultFlags({mdrr::bench::kRunsFlag,
                               mdrr::UintFlag("query_attrs", 1),
                               mdrr::RealFlag("sigma"), mdrr::UintFlag("seed"),
                               mdrr::IntFlag("tile", 1)}));
  mdrr::Dataset adult = mdrr::bench::LoadAdult(flags);
  int64_t tile = flags.GetInt("tile", 1);
  if (tile > 1) adult = adult.Tiled(static_cast<size_t>(tile));
  return RunGrid(adult, flags,
                 "Table 1: RR-Clusters relative error on Adult");
}
