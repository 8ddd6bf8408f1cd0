#include "mdrr/core/pram.h"

#include "mdrr/core/estimator.h"

namespace mdrr {

StatusOr<PramResult> ApplyPram(const Dataset& collected,
                               double keep_probability, Rng& rng) {
  if (collected.num_rows() == 0) {
    return Status::InvalidArgument("cannot apply PRAM to empty data");
  }
  PramResult result;
  result.randomized = collected;
  const size_t m = collected.num_attributes();
  result.estimated.resize(m);
  result.epsilons.resize(m);
  for (size_t j = 0; j < m; ++j) {
    const size_t r = collected.attribute(j).cardinality();
    RrMatrix matrix = RrMatrix::KeepUniform(r, keep_probability);
    // Randomize straight into the copied column: the output codes are
    // < r by construction, so the column invariant holds and the
    // per-attribute pass allocates nothing.
    matrix.RandomizeColumnInto(collected.column(j), rng,
                               result.randomized.MutableColumn(j));
    std::vector<double> lambda =
        EmpiricalDistribution(result.randomized.column(j), r);
    MDRR_ASSIGN_OR_RETURN(result.estimated[j],
                          EstimateProjectedDistribution(matrix, lambda));
    result.epsilons[j] = matrix.Epsilon();
  }
  return result;
}

}  // namespace mdrr
