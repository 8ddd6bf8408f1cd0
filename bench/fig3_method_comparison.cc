// Figure 3: median relative count-query error of the four methods --
// RR-Ind, RR-Ind + RR-Adj, RR-Clusters (best Tv/Td per Table 1),
// RR-Clusters + RR-Adj -- for p in {0.1, 0.3, 0.5, 0.7} (one panel per p)
// and coverage sigma in {0.1 .. 0.9}.
//
// Per the paper, the cluster thresholds are the best Table 1 cells:
// (Tv=50, Td=0.3) for p <= 0.3 and (Tv=50, Td=0.1) for p >= 0.5.
//
// Usage: fig3_method_comparison [--runs=25] [--seed=1] [--adult_csv=...]
//                               [--n=32561] [--data_seed=2020]
//                               [--adj_iters=30] [--query_attrs=2]
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
       {"seed", FlagValue::kNonNegativeInt},
       {"adj_iters", FlagValue::kNonNegativeInt}});
  mdrr::Dataset adult = mdrr::bench::LoadAdult(flags);
  const int runs = mdrr::bench::RunsFlag(flags);
  const size_t query_attrs = static_cast<size_t>(flags.GetInt("query_attrs", 2));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int adj_iters = static_cast<int>(flags.GetInt("adj_iters", 30));

  mdrr::bench::PrintHeader(
      "Figure 3: relative error of RR-Ind / RR-Ind+Adj / RR-Cluster / "
      "RR-Cluster+Adj");
  std::printf("# n = %zu records, %d runs per point (paper: 1000)\n",
              adult.num_rows(), runs);

  mdrr::linalg::Matrix dependences = mdrr::DependenceMatrix(adult);

  const mdrr::eval::Method methods[] = {
      mdrr::eval::Method::kRrIndependent,
      mdrr::eval::Method::kRrIndependentAdjusted,
      mdrr::eval::Method::kRrClusters,
      mdrr::eval::Method::kRrClustersAdjusted,
  };
  const double ps[] = {0.1, 0.3, 0.5, 0.7};
  const double sigmas[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};

  for (double p : ps) {
    // Best Table 1 thresholds for this p.
    double td = (p <= 0.3) ? 0.3 : 0.1;
    std::printf("\n--- panel p = %.1f (RR-Cluster with Tv=50, Td=%.1f) ---\n",
                p, td);
    std::printf("%6s  %12s %12s %12s %14s\n", "sigma", "RR-Ind",
                "RR-Ind+Adj", "RR-Cluster", "RR-Cluster+Adj");
    for (double sigma : sigmas) {
      std::printf("%6.1f ", sigma);
      for (mdrr::eval::Method method : methods) {
        mdrr::eval::ExperimentConfig config;
        config.method = method;
        config.keep_probability = p;
        config.clustering = mdrr::ClusteringOptions{50.0, td};
        config.dependences = &dependences;
        config.adjustment.max_iterations = adj_iters;
        config.sigma = sigma;
        config.query_attributes = query_attrs;
        config.runs = runs;
        config.seed = seed;
        auto result = RunCountQueryExperiment(adult, config);
        if (!result.ok()) {
          std::fprintf(stderr, "point failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
        bool wide = method == mdrr::eval::Method::kRrClustersAdjusted;
        std::printf(wide ? " %14.4f" : " %12.4f",
                    result.value().median_relative_error);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\n# paper shape check: at p<=0.3 RR-Ind is best (clustering and\n"
      "# adjustment counter-productive); at p>=0.5 and sigma<0.3\n"
      "# RR-Cluster (+Adj) wins; all methods converge for sigma>=0.3\n");
  return 0;
}
