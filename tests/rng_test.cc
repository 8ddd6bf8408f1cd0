#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/rng/alias_sampler.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  uint64_t state_a = 123;
  uint64_t state_b = 123;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(SplitMix64Next(state_a), SplitMix64Next(state_b));
  }
}

TEST(SplitMix64Test, NearbySeedsDiverge) {
  uint64_t s1 = 1;
  uint64_t s2 = 2;
  EXPECT_NE(SplitMix64Next(s1), SplitMix64Next(s2));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(1000), b.UniformInt(1000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(1 << 30) != b.UniformInt(1 << 30)) ++differences;
  }
  EXPECT_GT(differences, 40);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(1), 0u);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, DiscreteMatchesWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.Discrete(weights)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(trials), 0.6, 0.02);
}

TEST(RngTest, DiscreteHandlesZeroWeightCategories) {
  Rng rng(19);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.Discrete(weights), 1u);
  }
}

TEST(RngTest, MultinomialCountsSumToN) {
  Rng rng(23);
  std::vector<double> p = {0.2, 0.5, 0.3};
  std::vector<int64_t> counts = rng.Multinomial(1000, p);
  int64_t total = 0;
  for (int64_t c : counts) {
    EXPECT_GE(c, 0);
    total += c;
  }
  EXPECT_EQ(total, 1000);
}

TEST(RngTest, MultinomialMatchesProbabilities) {
  Rng rng(29);
  std::vector<double> p = {0.7, 0.2, 0.1};
  std::vector<int64_t> counts = rng.Multinomial(100000, p);
  EXPECT_NEAR(counts[0] / 100000.0, 0.7, 0.01);
  EXPECT_NEAR(counts[1] / 100000.0, 0.2, 0.01);
  EXPECT_NEAR(counts[2] / 100000.0, 0.1, 0.01);
}

// --- AliasSampler ---

TEST(AliasSamplerTest, UniformWeights) {
  AliasSampler sampler(std::vector<double>(8, 1.0));
  EXPECT_EQ(sampler.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(sampler.ProbabilityOf(i), 0.125, 1e-12);
  }
}

TEST(AliasSamplerTest, ReconstructedProbabilitiesMatchWeights) {
  std::vector<double> weights = {0.5, 2.0, 0.25, 1.25, 4.0};
  double total = 8.0;
  AliasSampler sampler(weights);
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(sampler.ProbabilityOf(i), weights[i] / total, 1e-12);
  }
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  AliasSampler sampler({1.0, 0.0, 1.0});
  Rng rng(37);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(sampler.Sample(rng), 1u);
  }
}

TEST(AliasSamplerTest, SingleCategory) {
  AliasSampler sampler({5.0});
  Rng rng(41);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sampler.Sample(rng), 0u);
  }
}

class AliasSamplerSweep : public ::testing::TestWithParam<size_t> {};

// Property: for random weight vectors of any size, empirical sampling
// frequencies converge to the normalized weights.
TEST_P(AliasSamplerSweep, EmpiricalFrequenciesMatch) {
  const size_t n = GetParam();
  Rng weight_rng(n);
  std::vector<double> weights(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    weights[i] = weight_rng.UniformDouble() + 0.01;
    total += weights[i];
  }
  AliasSampler sampler(weights);
  Rng rng(n * 1000 + 7);
  std::vector<int> counts(n, 0);
  const int trials = 200000;
  for (int t = 0; t < trials; ++t) ++counts[sampler.Sample(rng)];
  for (size_t i = 0; i < n; ++i) {
    double expected = weights[i] / total;
    double observed = counts[i] / static_cast<double>(trials);
    EXPECT_NEAR(observed, expected, 0.015) << "category " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AliasSamplerSweep,
                         ::testing::Values(2, 3, 7, 16, 50, 128));

TEST(RngStreamFamilyTest, StreamsAreDeterministic) {
  RngStreamFamily family(99);
  Rng a = family.Stream(5);
  Rng b = family.Stream(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.engine()(), b.engine()());
  }
}

TEST(RngStreamFamilyTest, StreamsAreIndependentOfRequestOrder) {
  RngStreamFamily family(7);
  // Requesting other streams first must not perturb stream 3: the family
  // is a pure function.
  Rng direct = family.Stream(3);
  family.Stream(0);
  family.Stream(1);
  family.Stream(100);
  Rng after_others = family.Stream(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(direct.engine()(), after_others.engine()());
  }
}

TEST(RngStreamFamilyTest, DistinctIndicesAndSeedsDiverge) {
  RngStreamFamily family(1);
  EXPECT_NE(family.Stream(0).engine()(), family.Stream(1).engine()());
  EXPECT_NE(family.Stream(41).engine()(), family.Stream(42).engine()());
  RngStreamFamily other(2);
  EXPECT_NE(family.Stream(0).engine()(), other.Stream(0).engine()());
}

}  // namespace
}  // namespace mdrr
