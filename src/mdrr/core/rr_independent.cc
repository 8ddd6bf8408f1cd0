#include "mdrr/core/rr_independent.h"

#include <utility>

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

StatusOr<std::vector<std::unique_ptr<FrequencyOracle>>> MakeIndependentOracles(
    const Dataset& dataset, const RrIndependentOptions& design,
    OracleBackend backend, double epsilon) {
  const bool own_design = backend == OracleBackend::kDirect && epsilon == 0.0;
  std::vector<std::unique_ptr<FrequencyOracle>> oracles;
  oracles.reserve(dataset.num_attributes());
  for (const Attribute& attribute : dataset.schema()) {
    const size_t r = attribute.cardinality();
    if (own_design || r < 2) {
      oracles.push_back(std::make_unique<DirectEncodingOracle>(
          MakeIndependentMatrix(r, design)));
      continue;
    }
    MDRR_ASSIGN_OR_RETURN(
        std::unique_ptr<FrequencyOracle> oracle,
        MakeFrequencyOracle(
            backend, r,
            epsilon > 0.0 ? epsilon
                          : MakeIndependentMatrix(r, design).Epsilon()));
    oracles.push_back(std::move(oracle));
  }
  return oracles;
}

StatusOr<RrIndependentResult> RunRrIndependent(
    const Dataset& dataset, const RrIndependentOptions& options, Rng& rng) {
  MDRR_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<FrequencyOracle>> oracles,
      MakeIndependentOracles(dataset, options, OracleBackend::kDirect, 0.0));
  return RunRrIndependentWith(
      dataset, oracles, /*microdata=*/true,
      [&rng](const FrequencyOracle& oracle, const std::vector<uint32_t>& codes,
             size_t /*column_index*/) -> StatusOr<PerturbedColumn> {
        return PerturbColumnSequential(oracle, codes, rng);
      });
}

StatusOr<RrIndependentResult> RunRrIndependentWith(
    const Dataset& dataset,
    const std::vector<std::unique_ptr<FrequencyOracle>>& oracles,
    bool microdata, const OracleColumnPerturber& perturber) {
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("cannot run RR-Independent on empty data");
  }
  const size_t m = dataset.num_attributes();
  if (oracles.size() != m) {
    return Status::InvalidArgument(
        "RR-Independent needs one frequency oracle per attribute");
  }
  RrIndependentResult result;
  std::vector<std::vector<uint32_t>> columns(microdata ? m : 0);
  result.lambda.resize(m);
  result.raw_estimated.resize(m);
  result.estimated.resize(m);
  result.epsilons.resize(m);

  for (size_t j = 0; j < m; ++j) {
    const FrequencyOracle& oracle = *oracles[j];
    MDRR_ASSIGN_OR_RETURN(PerturbedColumn column,
                          perturber(oracle, dataset.column(j), j));
    if (microdata) columns[j] = std::move(column.codes);
    result.lambda[j] = std::move(column.lambda);
    MDRR_ASSIGN_OR_RETURN(result.raw_estimated[j],
                          oracle.EstimateFromLambda(result.lambda[j]));
    result.estimated[j] = ProjectToSimplex(result.raw_estimated[j]);
    result.epsilons[j] = oracle.epsilon();
    result.total_epsilon += result.epsilons[j];
  }
  if (microdata) {
    result.randomized = Dataset(dataset.schema(), std::move(columns));
  }
  return result;
}

IndependentMarginalsEstimate MakeIndependentEstimate(
    const RrIndependentResult& result) {
  return IndependentMarginalsEstimate(
      result.estimated, static_cast<double>(result.randomized.num_rows()));
}

}  // namespace mdrr
