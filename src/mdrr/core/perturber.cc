#include "mdrr/core/perturber.h"

#include "mdrr/core/frequency_oracle.h"

namespace mdrr {

ColumnPerturber SequentialPerturber(Rng& rng) {
  return [&rng](const RrMatrix& matrix, const std::vector<uint32_t>& codes,
                size_t /*column_index*/) -> StatusOr<PerturbedColumn> {
    PerturbedColumn result;
    result.codes.resize(codes.size());
    // Fused perturb+count through the frequency-oracle seam: the direct-
    // encoding oracle delegates draw-for-draw to RandomizeRangeInto, so
    // the frequency of each output category is accumulated inside the
    // randomization sweep and the column is traversed once. λ̂ is then
    // counts * (1/n) -- the exact arithmetic EmpiricalDistribution
    // performs (reciprocal multiply, not per-entry division), so
    // estimates are bit-identical to the unfused path.
    DirectEncodingOracle oracle(matrix);
    std::vector<int64_t> counts(matrix.size(), 0);
    oracle.AccumulateRange(codes.data(), codes.size(), rng,
                           result.codes.data(), counts.data());
    result.lambda.assign(matrix.size(), 0.0);
    if (!codes.empty()) {
      const double inv_n = 1.0 / static_cast<double>(codes.size());
      for (size_t v = 0; v < counts.size(); ++v) {
        result.lambda[v] = static_cast<double>(counts[v]) * inv_n;
      }
    }
    return result;
  };
}

}  // namespace mdrr
