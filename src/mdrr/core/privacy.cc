#include "mdrr/core/privacy.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "mdrr/common/check.h"

namespace mdrr {

double KeepUniformEpsilon(size_t r, double keep_probability) {
  MDRR_CHECK_GE(r, 1u);
  MDRR_CHECK_GE(keep_probability, 0.0);
  MDRR_CHECK_LE(keep_probability, 1.0);
  if (keep_probability >= 1.0) {
    return std::numeric_limits<double>::infinity();
  }
  return std::log(1.0 + keep_probability * static_cast<double>(r) /
                            (1.0 - keep_probability));
}

double PaperKeepUniformEpsilon(size_t r, double keep_probability) {
  MDRR_CHECK_GE(r, 1u);
  MDRR_CHECK_GT(keep_probability, 0.0);
  if (keep_probability >= 1.0) {
    return std::numeric_limits<double>::infinity();
  }
  return std::fabs(std::log(keep_probability * static_cast<double>(r) /
                            (1.0 - keep_probability)));
}

void PrivacyAccountant::Spend(const std::string& label, double epsilon) {
  MDRR_CHECK_GE(epsilon, 0.0);
  releases_.push_back(Release{label, epsilon, /*parallel=*/false});
}

void PrivacyAccountant::SpendParallel(const std::string& label,
                                      double epsilon) {
  MDRR_CHECK_GE(epsilon, 0.0);
  releases_.push_back(Release{label, epsilon, /*parallel=*/true});
}

double PrivacyAccountant::TotalEpsilon() const {
  double sequential = 0.0;
  double parallel_max = 0.0;
  bool has_parallel = false;
  for (const Release& r : releases_) {
    if (r.parallel) {
      parallel_max = std::max(parallel_max, r.epsilon);
      has_parallel = true;
    } else {
      sequential += r.epsilon;
    }
  }
  return sequential + (has_parallel ? parallel_max : 0.0);
}

std::string PrivacyAccountant::Report() const {
  std::string out;
  char buf[160];
  for (const Release& r : releases_) {
    std::snprintf(buf, sizeof(buf), "  %-40s eps=%.6f%s\n", r.label.c_str(),
                  r.epsilon, r.parallel ? " (parallel pool)" : "");
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  total (sequential composition): %.6f\n",
                TotalEpsilon());
  out += buf;
  return out;
}

}  // namespace mdrr
