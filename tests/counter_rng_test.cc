// Pins the counter-based backend: Philox4x32-10 against the Random123
// published test vectors, the O(1) Jump contract, and the
// element-addressed draw plans of AliasSampler::SampleBlock and
// RrMatrix::RandomizeRangeCounterInto.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/rr_matrix.h"
#include "mdrr/rng/alias_sampler.h"
#include "mdrr/rng/counter_rng.h"

namespace mdrr {
namespace {

// Random123 kat_vectors, philox4x32-10. Counter and key are given in the
// kat file's word order (c0 c1 c2 c3, k0 k1).
TEST(PhiloxTest, KnownAnswerZero) {
  const PhiloxBlock b = Philox4x32(0, 0, 0, 0, 0, 0);
  EXPECT_EQ(b.w[0], 0x6627e8d5u);
  EXPECT_EQ(b.w[1], 0xe169c58du);
  EXPECT_EQ(b.w[2], 0xbc57ac4cu);
  EXPECT_EQ(b.w[3], 0x9b00dbd8u);
}

TEST(PhiloxTest, KnownAnswerAllOnes) {
  const PhiloxBlock b =
      Philox4x32(0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu,
                 0xffffffffu, 0xffffffffu);
  EXPECT_EQ(b.w[0], 0x408f276du);
  EXPECT_EQ(b.w[1], 0x41c83b0eu);
  EXPECT_EQ(b.w[2], 0xa20bc7c6u);
  EXPECT_EQ(b.w[3], 0x6d5451fdu);
}

TEST(PhiloxTest, KnownAnswerPiDigits) {
  const PhiloxBlock b =
      Philox4x32(0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u,
                 0xa4093822u, 0x299f31d0u);
  EXPECT_EQ(b.w[0], 0xd16cfe09u);
  EXPECT_EQ(b.w[1], 0x94fdccebu);
  EXPECT_EQ(b.w[2], 0x5001e420u);
  EXPECT_EQ(b.w[3], 0x24126ea1u);
}

TEST(CounterRngTest, WordsFollowElementBlockLayout) {
  CounterRng rng(/*seed=*/0x0123456789abcdefull, /*stream=*/42);
  for (uint64_t block = 0; block < 8; ++block) {
    const PhiloxBlock expected =
        PhiloxElementBlock(0x0123456789abcdefull, 42, block);
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(rng.NextU32(), expected.w[w]);
    }
  }
}

TEST(CounterRngTest, JumpEqualsSequentialDraws) {
  for (uint64_t n : {0ull, 1ull, 3ull, 4ull, 7ull, 1000ull, 123457ull}) {
    CounterRng jumped(5, 9);
    jumped.Jump(n);
    CounterRng walked(5, 9);
    for (uint64_t i = 0; i < n; ++i) walked.NextU32();
    EXPECT_EQ(jumped.position(), walked.position());
    // Same continuation after the skip.
    for (int i = 0; i < 12; ++i) {
      EXPECT_EQ(jumped.NextU32(), walked.NextU32());
    }
  }
}

TEST(CounterRngTest, JumpIsReachableFromAnywhere) {
  // A jump far beyond anything walkable stays O(1) and lands on the
  // element-block layout.
  CounterRng rng(1, 0);
  rng.Jump((1ull << 40) * 4);
  const PhiloxBlock expected = PhiloxElementBlock(1, 0, 1ull << 40);
  EXPECT_EQ(rng.NextU32(), expected.w[0]);
}

TEST(CounterRngTest, StreamsAndSeedsAreIndependent) {
  CounterRng a(1, 0);
  CounterRng b(1, 1);
  CounterRng c(2, 0);
  int differ_ab = 0;
  int differ_ac = 0;
  for (int i = 0; i < 64; ++i) {
    const uint32_t wa = a.NextU32();
    if (wa != b.NextU32()) ++differ_ab;
    if (wa != c.NextU32()) ++differ_ac;
  }
  EXPECT_GT(differ_ab, 60);
  EXPECT_GT(differ_ac, 60);
}

TEST(CounterRngTest, AlignedScalarPairReplaysElementBlock) {
  // The documented consumption order: NextDouble then NextU64 from an
  // aligned position consumes exactly element block position/4.
  const uint64_t seed = 77;
  const uint64_t stream = 3;
  CounterRng rng(seed, stream);
  for (uint64_t element = 0; element < 16; ++element) {
    const PhiloxBlock block = PhiloxElementBlock(seed, stream, element);
    const uint64_t lo64 =
        (static_cast<uint64_t>(block.w[1]) << 32) | block.w[0];
    const uint64_t hi64 =
        (static_cast<uint64_t>(block.w[3]) << 32) | block.w[2];
    EXPECT_EQ(rng.NextDouble(), PhiloxUnitFromU64(lo64));
    EXPECT_EQ(rng.NextU64(), hi64);
  }
}

TEST(CounterRngTest, BoundedDrawsRespectBound) {
  CounterRng rng(11, 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.BoundedU64(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.BoundedU64(1), 0u);
  }
}

TEST(PhiloxFillTest, ElementDrawsMatchAlignedScalar) {
  const uint64_t seed = 31;
  const uint64_t stream = 8;
  const uint64_t first = 1000;
  const size_t count = 600;
  std::vector<double> units(count);
  std::vector<uint64_t> raws(count);
  PhiloxFillElementDraws(seed, stream, first, count, units.data(),
                         raws.data());
  CounterRng scalar(seed, stream);
  scalar.Jump(first * 4);
  for (size_t k = 0; k < count; ++k) {
    EXPECT_EQ(units[k], scalar.NextDouble());
    EXPECT_EQ(raws[k], scalar.NextU64());
  }
}

TEST(AliasSamplerTest, SampleBlockMatchesSampleFrom) {
  // One table with rows == nullptr: the single-table form of the kernel
  // RrMatrix's dense tiles run.
  AliasSampler sampler({0.5, 0.2, 0.1, 0.15, 0.05});
  std::vector<double> thresholds;
  std::vector<uint32_t> aliases;
  sampler.AppendTables(thresholds, aliases);
  const size_t count = 4096;
  std::vector<double> units(count);
  std::vector<uint64_t> raws(count);
  PhiloxFillElementDraws(3, 1, 0, count, units.data(), raws.data());
  std::vector<uint32_t> block(count);
  AliasLookupBlock(thresholds.data(), aliases.data(), sampler.size(),
                   thresholds.size(), /*rows=*/nullptr, units.data(),
                   raws.data(), count, block.data());
  for (size_t k = 0; k < count; ++k) {
    EXPECT_EQ(block[k], sampler.SampleFrom(units[k], raws[k]));
    EXPECT_LT(block[k], sampler.size());
  }
}

TEST(AliasSamplerTest, SampleFromTracksWeights) {
  const std::vector<double> weights = {0.5, 0.2, 0.1, 0.15, 0.05};
  AliasSampler sampler(weights);
  const size_t count = 200000;
  std::vector<double> units(count);
  std::vector<uint64_t> raws(count);
  PhiloxFillElementDraws(99, 0, 0, count, units.data(), raws.data());
  std::vector<size_t> hist(weights.size(), 0);
  for (size_t k = 0; k < count; ++k) {
    ++hist[sampler.SampleFrom(units[k], raws[k])];
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hist[i]) / count, weights[i], 0.01);
  }
}

// The range kernel's tiling invariance: any [begin, end) decomposition,
// including per-element, yields the same column and counts.
void ExpectTilingInvariant(const RrMatrix& matrix,
                           const std::vector<uint32_t>& codes) {
  const uint64_t seed = 17;
  const uint64_t stream = 5;
  const size_t n = codes.size();

  std::vector<uint32_t> whole(n);
  std::vector<int64_t> whole_counts(matrix.size(), 0);
  matrix.RandomizeRangeCounterInto(codes.data(), n, seed, stream, 0,
                                   whole.data(), whole_counts.data());

  // Per-element scalar draws.
  std::vector<int64_t> histogram(matrix.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(whole[i], matrix.RandomizeCounter(codes[i], seed, stream, i));
    ++histogram[whole[i]];
  }
  EXPECT_EQ(whole_counts, histogram);

  // An uneven tiling.
  std::vector<uint32_t> tiled(n);
  std::vector<int64_t> tiled_counts(matrix.size(), 0);
  size_t begin = 0;
  size_t step = 1;
  while (begin < n) {
    const size_t end = std::min(n, begin + step);
    matrix.RandomizeRangeCounterInto(codes.data() + begin, end - begin, seed,
                                     stream, begin, tiled.data() + begin,
                                     tiled_counts.data());
    begin = end;
    step = step * 3 + 1;
  }
  EXPECT_EQ(tiled, whole);
  EXPECT_EQ(tiled_counts, whole_counts);
}

TEST(RrMatrixCounterTest, StructuredMixedTilingInvariant) {
  RrMatrix matrix = RrMatrix::KeepUniform(6, 0.7);
  std::vector<uint32_t> codes(1531);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<uint32_t>(i % 6);
  }
  ExpectTilingInvariant(matrix, codes);
}

TEST(RrMatrixCounterTest, IdentityAndUniformDesigns) {
  std::vector<uint32_t> codes(700);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<uint32_t>(i % 5);
  }
  ExpectTilingInvariant(RrMatrix::KeepUniform(5, 1.0), codes);
  ExpectTilingInvariant(RrMatrix::KeepUniform(5, 0.0), codes);

  // Identity must pass codes through untouched.
  std::vector<uint32_t> out(codes.size());
  RrMatrix::KeepUniform(5, 1.0).RandomizeRangeCounterInto(
      codes.data(), codes.size(), 1, 0, 0, out.data(), nullptr);
  EXPECT_EQ(out, codes);
}

TEST(RrMatrixCounterTest, DenseTilingInvariant) {
  // A dense (non-uniform-mixture) design exercises the alias path.
  linalg::Matrix p(3, 3);
  p(0, 0) = 0.8; p(0, 1) = 0.1; p(0, 2) = 0.1;
  p(1, 0) = 0.2; p(1, 1) = 0.6; p(1, 2) = 0.2;
  p(2, 0) = 0.05; p(2, 1) = 0.15; p(2, 2) = 0.8;
  auto matrix = RrMatrix::FromDense(p);
  ASSERT_TRUE(matrix.ok());
  std::vector<uint32_t> codes(911);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<uint32_t>(i % 3);
  }
  ExpectTilingInvariant(matrix.value(), codes);
}

TEST(RrMatrixCounterTest, KeepProbabilityIsHonored) {
  // unit < alpha replaces, so the keep rate tracks 1 - alpha + alpha/r.
  RrMatrix matrix = RrMatrix::KeepUniform(4, 0.6);
  const size_t n = 200000;
  std::vector<uint32_t> codes(n, 2);
  std::vector<uint32_t> out(n);
  matrix.RandomizeRangeCounterInto(codes.data(), n, 23, 0, 0, out.data(),
                                   nullptr);
  size_t kept = 0;
  for (uint32_t y : out) {
    if (y == 2) ++kept;
  }
  const double expected = matrix.Prob(2, 2);
  EXPECT_NEAR(static_cast<double>(kept) / n, expected, 0.01);
}

}  // namespace
}  // namespace mdrr
