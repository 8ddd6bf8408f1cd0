#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/estimator.h"
#include "mdrr/core/pram.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

Dataset MakeDataset(size_t n, uint64_t seed) {
  std::vector<Attribute> schema = {
      Attribute{"A", AttributeType::kNominal, {"0", "1", "2"}},
      Attribute{"B", AttributeType::kNominal, {"0", "1"}},
  };
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> cols(2);
  for (size_t i = 0; i < n; ++i) {
    cols[0].push_back(static_cast<uint32_t>(rng.Discrete({0.5, 0.3, 0.2})));
    cols[1].push_back(static_cast<uint32_t>(rng.Discrete({0.7, 0.3})));
  }
  return Dataset(schema, std::move(cols));
}

TEST(PramTest, EstimatesRecoverCollectedMarginals) {
  Dataset collected = MakeDataset(80000, 3);
  Rng rng(5);
  auto result = ApplyPram(collected, 0.6, rng);
  ASSERT_TRUE(result.ok());
  for (size_t j = 0; j < collected.num_attributes(); ++j) {
    std::vector<double> truth = EmpiricalDistribution(
        collected.column(j), collected.attribute(j).cardinality());
    for (size_t v = 0; v < truth.size(); ++v) {
      EXPECT_NEAR(result.value().estimated[j][v], truth[v], 0.02);
    }
  }
}

TEST(PramTest, PublishedFileDiffersFromCollected) {
  Dataset collected = MakeDataset(5000, 7);
  Rng rng(11);
  auto result = ApplyPram(collected, 0.5, rng);
  ASSERT_TRUE(result.ok());
  size_t changed = 0;
  for (size_t i = 0; i < collected.num_rows(); ++i) {
    if (result.value().randomized.at(i, 0) != collected.at(i, 0)) ++changed;
  }
  // About (1 - p) * (r - 1) / r = 0.5 * 2/3 of first-attribute values flip.
  EXPECT_GT(changed, collected.num_rows() / 4);
  EXPECT_LT(changed, collected.num_rows() / 2);
}

TEST(PramTest, RejectsEmptyData) {
  Dataset empty({Attribute{"A", AttributeType::kNominal, {"x", "y"}}},
                {std::vector<uint32_t>()});
  Rng rng(13);
  EXPECT_FALSE(ApplyPram(empty, 0.5, rng).ok());
}

}  // namespace
}  // namespace mdrr
