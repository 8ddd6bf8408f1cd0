#include "mdrr/core/rr_independent.h"

#include "mdrr/core/estimator.h"
#include "mdrr/core/rr_matrix.h"

namespace mdrr {

RrMatrix MakeIndependentMatrix(size_t r, const RrIndependentOptions& options) {
  switch (options.design) {
    case IndependentDesign::kGeometricOrdinal:
      // A single-category attribute has nothing to protect; the ordinal
      // design needs r >= 2, so publish the only value (epsilon 0).
      if (r < 2) return RrMatrix::KeepUniform(r, 1.0);
      return RrMatrix::GeometricOrdinal(r, options.geometric_epsilon);
    case IndependentDesign::kKeepUniform:
      break;
  }
  return RrMatrix::KeepUniform(r, options.keep_probability);
}

StatusOr<RrIndependentResult> RunRrIndependent(
    const Dataset& dataset, const RrIndependentOptions& options, Rng& rng) {
  return RunRrIndependentWith(dataset, options, SequentialPerturber(rng));
}

StatusOr<RrIndependentResult> RunRrIndependentWith(
    const Dataset& dataset, const RrIndependentOptions& options,
    const ColumnPerturber& perturber) {
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("cannot run RR-Independent on empty data");
  }
  const size_t m = dataset.num_attributes();
  RrIndependentResult result;
  result.randomized = dataset;
  result.lambda.resize(m);
  result.raw_estimated.resize(m);
  result.estimated.resize(m);
  result.epsilons.resize(m);

  for (size_t j = 0; j < m; ++j) {
    const size_t r = dataset.attribute(j).cardinality();
    RrMatrix matrix = MakeIndependentMatrix(r, options);
    MDRR_ASSIGN_OR_RETURN(PerturbedColumn column,
                          perturber(matrix, dataset.column(j), j));
    result.randomized.SetColumn(j, std::move(column.codes));
    result.lambda[j] = std::move(column.lambda);
    MDRR_ASSIGN_OR_RETURN(result.raw_estimated[j],
                          EstimateDistribution(matrix, result.lambda[j]));
    result.estimated[j] = ProjectToSimplex(result.raw_estimated[j]);
    result.epsilons[j] = matrix.Epsilon();
    result.total_epsilon += result.epsilons[j];
  }
  return result;
}

IndependentMarginalsEstimate MakeIndependentEstimate(
    const RrIndependentResult& result) {
  return IndependentMarginalsEstimate(
      result.estimated, static_cast<double>(result.randomized.num_rows()));
}

}  // namespace mdrr
