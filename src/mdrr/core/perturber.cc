#include "mdrr/core/perturber.h"

namespace mdrr {

PerturbedColumn PerturbColumnSequential(const FrequencyOracle& oracle,
                                        const std::vector<uint32_t>& codes,
                                        Rng& rng) {
  // Fused perturb+count: the frequency of each reported category is
  // accumulated inside the randomization sweep, so the column is
  // traversed once.
  PerturbedColumn result;
  const bool microdata = oracle.produces_microdata();
  if (microdata) result.codes.resize(codes.size());
  std::vector<int64_t> counts(oracle.domain_size(), 0);
  oracle.AccumulateRange(codes.data(), codes.size(), rng,
                         microdata ? result.codes.data() : nullptr,
                         counts.data());
  result.lambda.assign(counts.size(), 0.0);
  if (!codes.empty()) {
    const double inv_n = 1.0 / static_cast<double>(codes.size());
    for (size_t v = 0; v < counts.size(); ++v) {
      result.lambda[v] = static_cast<double>(counts[v]) * inv_n;
    }
  }
  return result;
}

ColumnPerturber SequentialPerturber(Rng& rng) {
  return [&rng](const RrMatrix& matrix, const std::vector<uint32_t>& codes,
                size_t /*column_index*/) -> StatusOr<PerturbedColumn> {
    return PerturbColumnSequential(DirectEncodingOracle(matrix), codes, rng);
  };
}

}  // namespace mdrr
