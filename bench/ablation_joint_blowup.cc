// Ablation A1-empirical: the curse of dimensionality of Protocol 2
// (RR-Joint) measured rather than analytic -- total-variation distance
// between the estimated and true joint distribution of growing attribute
// prefixes of Adult, alongside the Section 3.3 analytic prediction.
//
// The total privacy budget is held FIXED across m (default eps_total = 4):
// under the Section 6.3.2 equivalent-risk calibration the budget would
// grow with every added attribute and mask the curse. A second column
// shows the growing-budget (per-attribute p) variant for contrast.
//
// Usage: ablation_joint_blowup [--eps_total=4] [--p=0.7] [--max_attrs=5]
//                              [--n=32561] [--seed=1]
// The Adult flags --adult_csv/--n/--data_seed are read by LoadAdult.
// Any other flag, a malformed number or a negative count or seed
// exits 1, naming the flag.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "mdrr/common/flags.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/rng/rng.h"
#include "mdrr/stats/error_bounds.h"

int main(int argc, char** argv) {
  const mdrr::FlagSet flags = mdrr::ParseFlagsOrExit(
      argc, argv,
      mdrr::bench::AdultFlags({mdrr::RealFlag("eps_total"),
                               mdrr::RealFlag("p", 0.0, 1.0),
                               mdrr::IntFlag("max_attrs", 1),
                               mdrr::UintFlag("seed")}));
  mdrr::Dataset adult = mdrr::bench::LoadAdult(flags);
  const double eps_total = flags.GetDouble("eps_total", 4.0);
  const double p = flags.GetDouble("p", 0.7);
  const int64_t max_attrs = flags.GetInt("max_attrs", 5);
  const uint64_t seed = flags.GetUint64("seed", 1);

  mdrr::bench::PrintHeader(
      "Ablation: empirical RR-Joint blow-up with attribute count");
  std::printf(
      "# n = %zu; fixed total budget eps=%.1f vs growing per-attribute "
      "budget (p=%.1f)\n",
      adult.num_rows(), eps_total, p);
  std::printf("%3s %10s  %14s %14s  %14s\n", "m", "domain",
              "TV (fixed eps)", "TV (grow eps)", "Sec3.3 e_rel");

  mdrr::Rng rng(seed);

  auto tv_distance = [&](const std::vector<size_t>& attrs, double budget) {
    auto joint = mdrr::RunRrJoint(adult, attrs, budget, rng);
    if (!joint.ok()) return -1.0;
    std::vector<uint32_t> true_codes =
        joint.value().domain.ComposeColumns(adult, attrs);
    std::vector<double> truth(joint.value().domain.size(), 0.0);
    for (uint32_t code : true_codes) {
      truth[code] += 1.0 / static_cast<double>(adult.num_rows());
    }
    double tv = 0.0;
    for (size_t k = 0; k < truth.size(); ++k) {
      tv += std::fabs(joint.value().estimated[k] - truth[k]);
    }
    return tv / 2.0;
  };

  std::vector<size_t> attrs;
  std::vector<int64_t> cards;
  for (size_t j = 0; j < adult.num_attributes() &&
                     j < static_cast<size_t>(max_attrs);
       ++j) {
    attrs.push_back(j);
    cards.push_back(static_cast<int64_t>(adult.attribute(j).cardinality()));
    mdrr::Domain domain = mdrr::Domain::ForAttributes(adult, attrs);

    double tv_fixed = tv_distance(attrs, eps_total);
    double tv_grow =
        tv_distance(attrs, mdrr::ClusterEpsilonBudget(adult, attrs, p));
    double analytic = mdrr::stats::RrJointEvenRelativeError(
        cards, static_cast<int64_t>(adult.num_rows()), 0.05);
    std::printf("%3zu %10llu  %14.4f %14.4f  %14.3f\n", attrs.size(),
                static_cast<unsigned long long>(domain.size()), tv_fixed,
                tv_grow, analytic);
  }
  std::printf(
      "# shape check: at fixed total epsilon the TV distance degrades\n"
      "# toward 1 as the domain outgrows n (Bound (7)); under the growing\n"
      "# Section 6.3.2 budget the extra epsilon masks the curse\n");
  return 0;
}
