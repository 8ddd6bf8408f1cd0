// The shared experiment driver behind the Figure 2 / Table 1 / Figure 3 /
// Table 2 benches: for a given method and parameterization, run the
// protocol `runs` times, issue one coverage-sigma count query per run, and
// report median absolute and relative errors (Section 6.5: "the values
// reported are median values over 1000 runs").

#ifndef MDRR_EVAL_EXPERIMENT_H_
#define MDRR_EVAL_EXPERIMENT_H_

#include <cstdint>

#include "mdrr/common/status_or.h"
#include "mdrr/core/adjustment.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/dataset/dataset.h"

namespace mdrr::eval {

enum class Method {
  kRandomized,              // Raw counts on Y, no Eq. (2) (Figure 2).
  kRrIndependent,           // Protocol 1.
  kRrIndependentAdjusted,   // Protocol 1 + Algorithm 2.
  kRrClusters,              // Section 4.
  kRrClustersAdjusted,      // Section 4 + Algorithm 2.
};

struct ExperimentConfig {
  Method method = Method::kRrIndependent;
  double keep_probability = 0.7;

  // Cluster methods only.
  ClusteringOptions clustering;
  // If set, used directly (hoists the dependence assessment out of the
  // runs); if null, `dependence_source` decides: kOracle is computed once
  // up front, in-protocol sources run inside every repetition.
  const linalg::Matrix* dependences = nullptr;
  DependenceSource dependence_source = DependenceSource::kOracle;
  double dependence_keep_probability = 0.7;

  AdjustmentOptions adjustment;

  // Query generation (Section 6.5).
  double sigma = 0.1;
  size_t query_attributes = 2;
  // If nonempty, every run queries this fixed attribute set instead of a
  // random draw (targeted evaluations and variance reduction in tests).
  std::vector<size_t> fixed_query_attributes;

  int runs = 25;
  uint64_t seed = 1;
  // 0 = one thread per hardware core.
  int threads = 0;
};

struct ExperimentResult {
  double median_absolute_error = 0.0;
  double median_relative_error = 0.0;
  int runs = 0;
  // Runs whose query had zero true count (excluded from the relative
  // median).
  int degenerate_runs = 0;
};

// Runs the experiment on `dataset` (the true data X). Deterministic in
// config.seed regardless of thread count.
StatusOr<ExperimentResult> RunCountQueryExperiment(
    const Dataset& dataset, const ExperimentConfig& config);

}  // namespace mdrr::eval

#endif  // MDRR_EVAL_EXPERIMENT_H_
