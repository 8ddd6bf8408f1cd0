// PRAM (post-randomization method, Kooiman-Willenborg-Gouweleeuw 1998):
// the controller-side sibling of randomized response the paper discusses
// in Section 2.1 -- identical matrix mechanics, but the randomization is
// applied by the data controller *after* collecting the true data instead
// of by each respondent before submission. Estimation via Eq. (2) is
// shared with RR; only the trust model differs (PRAM protects the
// published file, not the collection channel).

#ifndef MDRR_CORE_PRAM_H_
#define MDRR_CORE_PRAM_H_

#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

struct PramResult {
  // The post-randomized data set the controller may publish.
  Dataset randomized;
  // Per-attribute Section 6.4 projected estimates of the true marginals,
  // recoverable by any consumer of the published file.
  std::vector<std::vector<double>> estimated;
  // Expression (4) epsilon of each attribute's matrix (protection of the
  // published file, not of the collection).
  std::vector<double> epsilons;
};

// Applies per-attribute PRAM with KeepUniform(|A_j|, keep_probability)
// matrices to the collected data set. Fails on empty data.
StatusOr<PramResult> ApplyPram(const Dataset& collected,
                               double keep_probability, Rng& rng);

}  // namespace mdrr

#endif  // MDRR_CORE_PRAM_H_
