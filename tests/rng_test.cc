#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/rng/alias_sampler.h"
#include "mdrr/rng/fast_seed.h"
#include "mdrr/rng/mersenne_twister.h"
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

// --- AliasSampler ---

// Sampling probability of index i reconstructed from the alias tables:
// its own bucket's acceptance mass plus the rejected mass of every
// bucket whose alias it is, over the bucket count.
double ProbabilityOf(const AliasSampler& sampler, size_t i) {
  std::vector<double> thresholds;
  std::vector<uint32_t> aliases;
  sampler.AppendTables(thresholds, aliases);
  double p = thresholds[i];
  for (size_t j = 0; j < thresholds.size(); ++j) {
    if (aliases[j] == i && thresholds[j] < 1.0) p += 1.0 - thresholds[j];
  }
  return p / static_cast<double>(thresholds.size());
}

TEST(AliasSamplerTest, UniformWeights) {
  AliasSampler sampler(std::vector<double>(8, 1.0));
  EXPECT_EQ(sampler.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(ProbabilityOf(sampler, i), 0.125, 1e-12);
  }
}

TEST(AliasSamplerTest, ReconstructedProbabilitiesMatchWeights) {
  std::vector<double> weights = {0.5, 2.0, 0.25, 1.25, 4.0};
  double total = 8.0;
  AliasSampler sampler(weights);
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(ProbabilityOf(sampler, i), weights[i] / total, 1e-12);
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

// --- MersenneTwister64 against std::mt19937_64. ---

static_assert(std::is_same_v<MersenneTwister64::result_type,
                             std::mt19937_64::result_type>);
static_assert(MersenneTwister64::min() == std::mt19937_64::min());
static_assert(MersenneTwister64::max() == std::mt19937_64::max());

// A library engine and a std::mt19937_64 seeded from the same words.
struct EnginePair {
  explicit EnginePair(uint64_t seed) : words(kEngineSeedWords) {
    FourWordSeedSeq(seed).GenerateEngineWords(words.data());
    engine.seed(SeedWords{words.data()});
    FourWordSeedSeq seq(seed);
    reference.seed(seq);
  }
  std::vector<uint32_t> words;
  MersenneTwister64 engine;
  std::mt19937_64 reference;
};

void ExpectSameDraws(MersenneTwister64& engine, std::mt19937_64& reference,
                     int draws) {
  for (int d = 0; d < draws; ++d) {
    ASSERT_EQ(engine(), reference()) << "draw " << d;
  }
}

TEST(MersenneTwister64Test, DefaultSeedMatchesThePredefinedValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  MersenneTwister64 engine;
  engine.discard(9999);
  EXPECT_EQ(engine(), 9981545732273789042ULL);

  MersenneTwister64 fresh;
  std::mt19937_64 reference;
  ExpectSameDraws(fresh, reference, 1000);
  MersenneTwister64 valued(12345);
  std::mt19937_64 valued_reference(12345);
  ExpectSameDraws(valued, valued_reference, 1000);
}

TEST(MersenneTwister64Test, StdSeedSeqDrawsMatchStd) {
  std::seed_seq seq{1u, 2u, 3u, 4u, 5u};
  MersenneTwister64 engine(seq);
  std::mt19937_64 reference(seq);
  // 1000 draws cross three twist boundaries (312, 624, 936).
  ExpectSameDraws(engine, reference, 1000);
}

TEST(MersenneTwister64Test, SeedWordBlockDrawsMatchStd) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{77},
                        ~uint64_t{0}}) {
    EnginePair pair(seed);
    SCOPED_TRACE(seed);
    ExpectSameDraws(pair.engine, pair.reference, 1000);
  }
}

// Words whose composed state is zero outside x[0]'s low 31 bits: the
// standard replaces x[0] with 2^63, and so must the word seeding.
TEST(MersenneTwister64Test, DegenerateSeedWordsFollowTheStandard) {
  struct Fill {
    using result_type = uint32_t;
    uint32_t first;
    void generate(uint32_t* begin, uint32_t* end) const {
      std::fill(begin, end, 0u);
      *begin = first;
    }
  };
  for (uint32_t first : {0u, 5u, 0x7fffffffu, 0x80000000u}) {
    Fill fill{first};
    MersenneTwister64 engine(fill);
    std::mt19937_64 reference(fill);
    SCOPED_TRACE(first);
    ExpectSameDraws(engine, reference, 700);
  }
}

// Hands a std:: engine the given words as its seed sequence.
struct Replay {
  using result_type = uint32_t;
  const uint32_t* words;
  void generate(uint32_t* begin, uint32_t* end) const {
    std::copy(words, words + (end - begin), begin);
  }
};

// The words laid out `stride` apart, as a seed block lays out a lane;
// the gaps hold a word no engine may read.
std::vector<uint32_t> Strided(const std::vector<uint32_t>& words,
                              size_t stride) {
  std::vector<uint32_t> out(words.size() * stride, 0xdeadbeefu);
  for (size_t i = 0; i < words.size(); ++i) out[i * stride] = words[i];
  return out;
}

MersenneTwister64 SeededFrom(SeedWords view, bool deferred) {
  return deferred ? MersenneTwister64(view, kDeferredSeed)
                  : MersenneTwister64(view);
}

// A strided view, seeded complete or deferred, draws what
// std::mt19937_64 seeded from the same words draws, through operator(),
// Generate and discard, with the first 0-350 words taken before or
// after the 16-word first chunk and the 312-word cycle.
TEST(MersenneTwister64Test, StridedAndDeferredSeedWordsMatchStd) {
  std::vector<uint32_t> words(kEngineSeedWords);
  FourWordSeedSeq(41).GenerateEngineWords(words.data());
  Replay replay{words.data()};
  std::mt19937_64 reference(replay);
  std::vector<uint64_t> want(400);
  for (uint64_t& w : want) w = reference();
  for (size_t stride : {size_t{1}, size_t{3}, kSeedLanes}) {
    const std::vector<uint32_t> strided = Strided(words, stride);
    const SeedWords view{strided.data(), stride};
    for (bool deferred : {false, true}) {
      for (size_t split : {0, 1, 15, 16, 17, 200, 311, 312, 313, 350}) {
        SCOPED_TRACE(testing::Message() << "stride " << stride << " deferred "
                                        << deferred << " split " << split);
        MersenneTwister64 drawn = SeededFrom(view, deferred);
        for (size_t k = 0; k < want.size(); ++k) {
          ASSERT_EQ(drawn(), want[k]) << "draw " << k;
        }
        MersenneTwister64 generated = SeededFrom(view, deferred);
        std::vector<uint64_t> got(want.size());
        generated.Generate(got.data(), split);
        generated.Generate(got.data() + split, got.size() - split);
        ASSERT_EQ(got, want);
        MersenneTwister64 skipped = SeededFrom(view, deferred);
        skipped.discard(split);
        for (size_t k = split; k < want.size(); ++k) {
          ASSERT_EQ(skipped(), want[k]) << "draw " << k;
        }
      }
    }
  }
}

// SeedDeferred checks only the 33 state words the first chunk's twist
// reads before it defers the rest. When those are zero apart from word
// 0's low 31 bits, the state may be the standard's all-zero one, so it
// must load the rest and decide on every word: with a non-zero seed word
// in the deferred rest (state words 17-155 and 172-311) the state is
// kept, with every word zero x[0] becomes 2^63. A non-zero word in the
// first chunk's ranges never needs the rest.
TEST(MersenneTwister64Test, DeferredDegenerateSeedWordsFollowTheStandard) {
  constexpr size_t kNone = kEngineSeedWords;
  for (uint32_t first : {0u, 5u, 0x7fffffffu, 0x80000000u}) {
    for (size_t nonzero :
         {kNone, size_t{3}, size_t{34}, size_t{201}, size_t{311},
          size_t{312}, size_t{344}, kEngineSeedWords - 1}) {
      std::vector<uint32_t> words(kEngineSeedWords, 0u);
      words[0] = first;
      if (nonzero != kNone) words[nonzero] = 0x10u;
      for (size_t stride : {size_t{1}, kSeedLanes}) {
        const std::vector<uint32_t> strided = Strided(words, stride);
        MersenneTwister64 engine(SeedWords{strided.data(), stride},
                                 kDeferredSeed);
        Replay replay{words.data()};
        std::mt19937_64 reference(replay);
        SCOPED_TRACE(testing::Message() << first << ", word " << nonzero
                                        << ", stride " << stride);
        ExpectSameDraws(engine, reference, 700);
      }
    }
  }
}

TEST(MersenneTwister64Test, CopiesContinueIdentically) {
  // Before the first draw, inside the first on-demand chunk, at its end,
  // mid-cycle, and in a later whole-block cycle.
  for (int drawn : {0, 3, 16, 17, 100, 700}) {
    EnginePair pair(9);
    ExpectSameDraws(pair.engine, pair.reference, drawn);
    MersenneTwister64 copy = pair.engine;
    std::mt19937_64 reference_copy = pair.reference;
    SCOPED_TRACE(drawn);
    ExpectSameDraws(copy, reference_copy, 1000);
    ExpectSameDraws(pair.engine, pair.reference, 1000);
  }
}

TEST(MersenneTwister64Test, DiscardMatchesStd) {
  for (int drawn : {0, 5, 16, 400}) {
    for (unsigned long long skip :
         {0ULL, 1ULL, 11ULL, 15ULL, 16ULL, 17ULL, 311ULL, 312ULL, 313ULL,
          1000ULL}) {
      EnginePair pair(21);
      ExpectSameDraws(pair.engine, pair.reference, drawn);
      pair.engine.discard(skip);
      pair.reference.discard(skip);
      SCOPED_TRACE(testing::Message() << drawn << " then " << skip);
      ExpectSameDraws(pair.engine, pair.reference, 400);
    }
  }
}

// Generate hands out the words operator() would, in runs that start and
// end inside the first-cycle chunk, the rest of the first cycle and
// later whole cycles, interleaved with single draws.
TEST(MersenneTwister64Test, GenerateMatchesStd) {
  for (int drawn : {0, 5, 16, 400}) {
    for (size_t run : {0, 1, 11, 16, 17, 311, 312, 313, 1024}) {
      EnginePair pair(33);
      ExpectSameDraws(pair.engine, pair.reference, drawn);
      SCOPED_TRACE(testing::Message() << drawn << " then runs of " << run);
      std::vector<uint64_t> words(run);
      for (int round = 0; round < 4; ++round) {
        pair.engine.Generate(words.data(), run);
        for (size_t k = 0; k < run; ++k) {
          ASSERT_EQ(words[k], pair.reference()) << "round " << round;
        }
        ExpectSameDraws(pair.engine, pair.reference, 1);
      }
    }
  }
}

TEST(MersenneTwister64Test, DistributionsAndShuffleMatchStd) {
  EnginePair pair(33);
  MersenneTwister64& engine = pair.engine;
  std::mt19937_64& reference = pair.reference;
  for (int i = 0; i < 300; ++i) {
    std::uniform_int_distribution<uint64_t> bounded(0, 6 + i);
    ASSERT_EQ(bounded(engine), bounded(reference));
    std::uniform_int_distribution<int> signed_range(-5, 1000);
    ASSERT_EQ(signed_range(engine), signed_range(reference));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    ASSERT_EQ(unit(engine), unit(reference));
  }
  // The binomial draws Rng::Multinomial makes, small and large n (the
  // large ones take the rejection branch). One distribution object per
  // engine: libstdc++'s caches a normal variate between calls.
  for (int64_t n : {int64_t{1}, int64_t{10}, int64_t{1000},
                    int64_t{100000}}) {
    for (double p : {0.01, 0.3, 0.5, 0.97}) {
      std::binomial_distribution<int64_t> binomial(n, p);
      std::binomial_distribution<int64_t> binomial_reference(n, p);
      for (int i = 0; i < 20; ++i) {
        ASSERT_EQ(binomial(engine), binomial_reference(reference))
            << "n " << n << " p " << p;
      }
    }
  }
  std::vector<int> shuffled(200), shuffled_reference(200);
  std::iota(shuffled.begin(), shuffled.end(), 0);
  std::iota(shuffled_reference.begin(), shuffled_reference.end(), 0);
  std::shuffle(shuffled.begin(), shuffled.end(), engine);
  std::shuffle(shuffled_reference.begin(), shuffled_reference.end(),
               reference);
  EXPECT_EQ(shuffled, shuffled_reference);
  ExpectSameDraws(engine, reference, 100);
}

TEST(MersenneTwister64Test, RngStreamsSeedFromTheirStreamSeed) {
  RngStreamFamily family(17);
  for (uint64_t index : {uint64_t{0}, uint64_t{1}, uint64_t{999}}) {
    Rng stream = family.Stream(index);
    FourWordSeedSeq seq(family.StreamSeed(index));
    std::mt19937_64 reference(seq);
    ExpectSameDraws(stream.engine(), reference, 700);
  }
}

}  // namespace
}  // namespace mdrr
