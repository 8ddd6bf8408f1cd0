// The controlled dependence ladder the assessment-estimator tests share:
// dep(A,B) > dep(C,D) > everything else ~ 0. All-nominal, so every
// sharded statistic is bitwise equal to its sequential counterpart.

#ifndef MDRR_TESTS_LADDER_DATASET_H_
#define MDRR_TESTS_LADDER_DATASET_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "mdrr/dataset/dataset.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

inline Dataset MakeLadderDataset(size_t n, uint64_t seed) {
  std::vector<Attribute> schema = {
      Attribute{"A", AttributeType::kNominal, {"0", "1", "2"}},
      Attribute{"B", AttributeType::kNominal, {"0", "1", "2"}},
      Attribute{"C", AttributeType::kNominal, {"0", "1"}},
      Attribute{"D", AttributeType::kNominal, {"0", "1"}},
  };
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> cols(4);
  for (size_t i = 0; i < n; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.UniformInt(3));
    // B copies A 90% of the time: very strong dependence.
    uint32_t b =
        rng.Bernoulli(0.9) ? a : static_cast<uint32_t>(rng.UniformInt(3));
    uint32_t c = static_cast<uint32_t>(rng.UniformInt(2));
    // D copies C 60% of the time: moderate dependence.
    uint32_t d =
        rng.Bernoulli(0.6) ? c : static_cast<uint32_t>(rng.UniformInt(2));
    cols[0].push_back(a);
    cols[1].push_back(b);
    cols[2].push_back(c);
    cols[3].push_back(d);
  }
  return Dataset(schema, std::move(cols));
}

}  // namespace mdrr

#endif  // MDRR_TESTS_LADDER_DATASET_H_
