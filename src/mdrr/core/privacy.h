// Differential-privacy accounting for randomized response (Sections 2.2,
// 4 and 6.3): per-matrix epsilon (Expression (4)), the paper's calibration
// formulas, and a sequential-composition accountant.

#ifndef MDRR_CORE_PRIVACY_H_
#define MDRR_CORE_PRIVACY_H_

#include <string>
#include <vector>

#include "mdrr/core/rr_matrix.h"

namespace mdrr {

// Exact epsilon of the KeepUniform(r, p) mechanism via Expression (4):
// ln(1 + p r / (1 - p)). +inf when p = 1.
double KeepUniformEpsilon(size_t r, double keep_probability);

// The paper's Section 6.3.1 expression eps_A = |ln(p |A| / (1 - p))|,
// which approximates the diagonal p + (1-p)/|A| by p. Kept for exact
// reproduction of the paper's calibration; see DESIGN.md.
double PaperKeepUniformEpsilon(size_t r, double keep_probability);

// Records named epsilon expenditures and reports the sequential-
// composition total. Releases marked `parallel` share the maximum rather
// than adding (the paper's Section 4.3 argument: unlinkable releases of
// the same attribute compose in parallel).
class PrivacyAccountant {
 public:
  struct Release {
    std::string label;
    double epsilon;
    bool parallel;  // Member of the parallel-composition pool.
  };

  // Sequentially-composed release.
  void Spend(const std::string& label, double epsilon);

  // Release in the parallel pool (counted once at the pool maximum).
  void SpendParallel(const std::string& label, double epsilon);

  // Sum of sequential releases + max of the parallel pool.
  double TotalEpsilon() const;

  const std::vector<Release>& releases() const { return releases_; }

  // Multi-line human-readable ledger.
  std::string Report() const;

 private:
  std::vector<Release> releases_;
};

}  // namespace mdrr

#endif  // MDRR_CORE_PRIVACY_H_
