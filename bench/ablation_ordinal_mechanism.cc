// Ablation: the distance-graded GeometricOrdinal design versus
// KeepUniform on ordinal range queries (Section 8 future work). The two
// mechanisms are calibrated to equal ADJACENT-category protection (the
// metric-privacy contract); the geometric design then answers range
// queries on the raw randomized data far more accurately, at the price
// of a higher worst-case epsilon for distant categories.
//
// Workload: Education (16 ordered levels) on synthetic Adult; range
// queries [lo, hi] of every width, errors on raw randomized counts.
//
// Usage: ablation_ordinal_mechanism [--alpha=0.4] [--n=32561] [--seed=1]
// The Adult flags --adult_csv/--n/--data_seed are read by LoadAdult.
// Any other flag, a malformed number or a negative count or seed
// exits 1, naming the flag.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "mdrr/common/flags.h"
#include "mdrr/core/joint_estimate.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/eval/metrics.h"
#include "mdrr/eval/subset_query.h"
#include "mdrr/rng/rng.h"

namespace {

double WorstAdjacentRatio(const mdrr::RrMatrix& m) {
  double worst = 1.0;
  for (size_t v = 0; v < m.size(); ++v) {
    for (size_t u = 0; u + 1 < m.size(); ++u) {
      double a = m.Prob(u, v);
      double b = m.Prob(u + 1, v);
      if (a > 0 && b > 0) worst = std::max(worst, std::max(a / b, b / a));
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const mdrr::FlagSet flags = mdrr::ParseFlagsOrExit(
      argc, argv,
      mdrr::bench::AdultFlags({mdrr::RealFlag("alpha"),
                               mdrr::UintFlag("seed")}));
  mdrr::Dataset adult = mdrr::bench::LoadAdult(flags);
  const double alpha = flags.GetDouble("alpha", 0.4);
  const uint64_t seed = flags.GetUint64("seed", 1);

  const size_t attr = mdrr::kAdultEducation;
  const size_t r = adult.attribute(attr).cardinality();

  mdrr::RrMatrix geometric =
      mdrr::RrMatrix::GeometricOrdinal(r, alpha * static_cast<double>(r - 1));
  double alpha_geo = std::log(WorstAdjacentRatio(geometric));
  double p = (std::exp(alpha_geo) - 1.0) / (std::exp(alpha_geo) - 1.0 + r);
  mdrr::RrMatrix uniform = mdrr::RrMatrix::KeepUniform(r, p);

  mdrr::bench::PrintHeader(
      "Ablation: GeometricOrdinal vs KeepUniform on ordinal range queries "
      "(equal adjacent-category protection)");
  std::printf(
      "# Education (r=%zu), adjacent protection e^%.3f for both;\n"
      "# worst-case eps: geometric %.2f, keep-uniform %.2f\n",
      r, alpha_geo, geometric.Epsilon(), uniform.Epsilon());

  mdrr::Rng rng(seed);
  std::vector<uint32_t> truth = adult.column(attr);
  std::vector<uint32_t> geo_reports = geometric.RandomizeColumn(truth, rng);
  std::vector<uint32_t> uni_reports = uniform.RandomizeColumn(truth, rng);

  mdrr::Dataset geo_data = adult;
  geo_data.SetColumn(attr, geo_reports);
  mdrr::Dataset uni_data = adult;
  uni_data.SetColumn(attr, uni_reports);
  mdrr::EmpiricalCounts true_counts(adult);
  mdrr::EmpiricalCounts geo_counts(geo_data);
  mdrr::EmpiricalCounts uni_counts(uni_data);

  std::printf("%8s  %14s %14s\n", "width", "relerr(geom)", "relerr(KU)");
  for (uint32_t width : {2u, 4u, 6u, 8u, 12u}) {
    double geo_err = 0.0;
    double uni_err = 0.0;
    int windows = 0;
    for (uint32_t lo = 0; lo + width <= r; ++lo) {
      mdrr::CountQuery query =
          mdrr::eval::MakeRangeQuery(adult, attr, lo, lo + width - 1);
      double t = true_counts.EstimateCount(query);
      if (t == 0.0) continue;
      geo_err += mdrr::eval::RelativeError(geo_counts.EstimateCount(query), t);
      uni_err += mdrr::eval::RelativeError(uni_counts.EstimateCount(query), t);
      ++windows;
    }
    if (windows == 0) continue;
    std::printf("%8u  %14.4f %14.4f\n", width, geo_err / windows,
                uni_err / windows);
  }
  std::printf(
      "# shape check: the geometric design's raw range counts are several\n"
      "# times more accurate at every width; its price is the higher\n"
      "# worst-case epsilon printed above\n");
  return 0;
}
