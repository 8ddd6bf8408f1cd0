#include "mdrr/core/rr_joint.h"

#include "mdrr/core/estimator.h"
#include "mdrr/core/privacy.h"
#include "mdrr/core/rr_matrix.h"

namespace mdrr {

double ClusterEpsilonBudget(const Dataset& dataset,
                            const std::vector<size_t>& attributes,
                            double keep_probability, bool use_paper_formula) {
  double total = 0.0;
  for (size_t j : attributes) {
    size_t r = dataset.attribute(j).cardinality();
    total += use_paper_formula ? PaperKeepUniformEpsilon(r, keep_probability)
                               : KeepUniformEpsilon(r, keep_probability);
  }
  return total;
}

StatusOr<RrJointResult> RunRrJoint(const Dataset& dataset,
                                   const std::vector<size_t>& attributes,
                                   double epsilon, Rng& rng) {
  MDRR_ASSIGN_OR_RETURN(RrJointPerturbation perturbation,
                        PerturbRrJoint(dataset, attributes, epsilon,
                                       SequentialPerturber(rng)));
  return EstimateRrJoint(std::move(perturbation));
}

StatusOr<RrJointPerturbation> PerturbRrJoint(
    const Dataset& dataset, const std::vector<size_t>& attributes,
    double epsilon, const ColumnPerturber& perturber) {
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("cannot run RR-Joint on empty data");
  }
  if (attributes.empty()) {
    return Status::InvalidArgument("RR-Joint needs at least one attribute");
  }
  // Size the product domain with per-multiply overflow detection BEFORE
  // constructing the Domain: with enough moderate-cardinality attributes
  // the mixed-radix product wraps 64 bits long before any "> 2^31" test
  // could fire, and the Domain constructor treats that as a programmer
  // error (CHECK-abort) rather than bad input.
  MDRR_ASSIGN_OR_RETURN(uint64_t domain_size,
                        Domain::CheckedSizeForAttributes(dataset, attributes));
  if (domain_size > (1ull << 31)) {
    return Status::OutOfRange(
        "joint domain has " + std::to_string(domain_size) +
        " categories; too large to materialize (the curse of "
        "dimensionality of Section 3.2)");
  }
  Domain domain = Domain::ForAttributes(dataset, attributes);
  const size_t r = static_cast<size_t>(domain.size());
  RrMatrix matrix = RrMatrix::OptimalForEpsilon(r, epsilon);

  std::vector<uint32_t> true_codes = domain.ComposeColumns(dataset, attributes);

  MDRR_ASSIGN_OR_RETURN(PerturbedColumn column,
                        perturber(matrix, true_codes, 0));
  return RrJointPerturbation{attributes, std::move(domain), std::move(matrix),
                             std::move(column.codes),
                             std::move(column.lambda)};
}

StatusOr<RrJointResult> EstimateRrJoint(RrJointPerturbation perturbation,
                                        const EstimationOptions& options) {
  RrJointResult result{std::move(perturbation.attributes),
                       std::move(perturbation.domain),
                       std::move(perturbation.randomized_codes),
                       std::move(perturbation.lambda),
                       {},
                       {},
                       0.0};
  MDRR_ASSIGN_OR_RETURN(
      result.raw_estimated,
      EstimateDistribution(perturbation.matrix, result.lambda, options));
  result.estimated = ProjectToSimplex(result.raw_estimated);
  result.epsilon = perturbation.matrix.Epsilon();
  return result;
}

}  // namespace mdrr
