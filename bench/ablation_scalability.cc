// Ablation: scalability of the full RR-Clusters pipeline in the number
// of attributes, on a 23-attribute Mushroom-style data set. For growing
// attribute prefixes: wall time of the full protocol (dependences +
// clustering + cluster-wise RR + estimation), resulting cluster count,
// and count-query accuracy -- the high-dimensional regime the paper's
// title is about.
//
// Usage: ablation_scalability [--runs=10] [--p=0.7] [--tv=60] [--td=0.1]
//                             [--n=8124] [--seed=1]
// Any other flag, a malformed number or a negative count or seed
// exits 1, naming the flag.

#include <chrono>
#include <cstdio>
#include <numeric>

#include "bench/bench_util.h"
#include "mdrr/common/flags.h"
#include "mdrr/core/dependence.h"
#include "mdrr/dataset/mushroom.h"
#include "mdrr/eval/experiment.h"
#include "mdrr/rng/rng.h"

int main(int argc, char** argv) {
  const mdrr::FlagSet flags = mdrr::ParseFlagsOrExit(
      argc, argv,
      {mdrr::UintFlag("n", 1), mdrr::RealFlag("p", 0.0, 1.0),
       mdrr::RealFlag("tv"), mdrr::RealFlag("td"), mdrr::bench::kRunsFlag,
       mdrr::UintFlag("seed")});
  const size_t n = flags.GetUint64("n", mdrr::kMushroomNumRecords);
  const double p = flags.GetDouble("p", 0.7);
  const double tv = flags.GetDouble("tv", 60.0);
  const double td = flags.GetDouble("td", 0.1);
  const int runs = mdrr::bench::RunsFlag(flags, 10);
  const uint64_t seed = flags.GetUint64("seed", 1);

  mdrr::Dataset mushroom = mdrr::SynthesizeMushroom(n, seed);
  mdrr::bench::PrintHeader(
      "Ablation: RR-Clusters scalability in the number of attributes "
      "(Mushroom-style, 23 attrs)");
  std::printf("# n = %zu, p = %.1f, Tv = %.0f, Td = %.1f, %d runs/point\n",
              n, p, tv, td, runs);
  std::printf("%4s %10s %10s %12s %14s\n", "m", "domain", "clusters",
              "rel error", "protocol ms");

  for (size_t m : {4u, 8u, 12u, 16u, 20u, 23u}) {
    std::vector<size_t> prefix(m);
    std::iota(prefix.begin(), prefix.end(), 0);
    mdrr::Dataset subset = mushroom.Project(prefix);

    double domain = 1.0;
    for (int64_t c : subset.Cardinalities()) {
      domain *= static_cast<double>(c);
    }

    // One timed full protocol execution (including in-protocol
    // dependence assessment, as deployed).
    mdrr::RrClustersOptions options;
    options.keep_probability = p;
    options.clustering = mdrr::ClusteringOptions{tv, td};
    options.dependence_source =
        mdrr::DependenceSource::kRandomizedResponse;
    mdrr::Rng rng(seed + m);
    auto start = std::chrono::steady_clock::now();
    auto protocol = mdrr::RunRrClusters(subset, options, rng);
    auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (!protocol.ok()) {
      std::printf("%4zu  -- %s\n", m, protocol.status().ToString().c_str());
      continue;
    }

    // Accuracy over the usual sigma = 0.1 pair queries.
    mdrr::eval::ExperimentConfig config;
    config.method = mdrr::eval::Method::kRrClusters;
    config.keep_probability = p;
    config.clustering = options.clustering;
    config.sigma = 0.1;
    config.runs = runs;
    config.seed = seed;
    auto experiment = RunCountQueryExperiment(subset, config);
    if (!experiment.ok()) {
      std::printf("%4zu  -- %s\n", m,
                  experiment.status().ToString().c_str());
      continue;
    }

    std::printf("%4zu %10.3g %10zu %12.4f %14.1f\n", m, domain,
                protocol.value().clusters.size(),
                experiment.value().median_relative_error,
                static_cast<double>(elapsed) / 1000.0);
  }
  std::printf(
      "# shape check: the joint domain explodes (~1e16 at m=23) while\n"
      "# protocol time stays linear-ish in m and error stays bounded --\n"
      "# the entire point of clustering over RR-Joint\n");
  return 0;
}
