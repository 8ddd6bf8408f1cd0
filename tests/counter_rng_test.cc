// Pins the counter-based backend: Philox4x32-10 against the Random123
// published test vectors, the O(1) Jump contract, and the
// element-addressed draw plans of AliasSampler::SampleBlock and
// RrMatrix::RandomizeRangeCounterInto, and every body of the element
// fill and of the keep-or-uniform and alias block kernels byte for
// byte.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
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

// Each body this build and CPU have must write exactly the bytes of a
// PhiloxElementBlock loop: at counts around the 16-element step and the
// 512-element tile, at firsts whose low counter word wraps inside a
// step, and at seeds and streams with their high words set.
TEST(PhiloxFillTest, EveryBodyMatchesElementBlocksByteForByte) {
  struct Body {
    SimdBody body;
    const char* name;
    bool ran = false;
  };
  Body bodies[] = {{SimdBody::kPortable, "portable"},
                   {SimdBody::kAvx2, "AVX2"}};
  const uint64_t high = 0xfedcba9800000000ull;
  const uint64_t keys[] = {0, 0x0123456789abcdefull, high | 5};
  const uint64_t firsts[] = {0, 7, (1ull << 32) - 5, (1ull << 32) - 300,
                             ~uint64_t{0} - 599};
  const size_t counts[] = {0, 1, 15, 16, 17, 511, 512, 513};
  for (uint64_t seed : keys) {
    for (uint64_t stream : keys) {
      for (uint64_t first : firsts) {
        for (size_t count : counts) {
          // One spare slot past the end, which no body may touch.
          std::vector<double> want_units(count + 1, -1.0);
          std::vector<uint64_t> want_raws(count + 1, 42);
          for (size_t k = 0; k < count; ++k) {
            const PhiloxBlock b = PhiloxElementBlock(seed, stream, first + k);
            want_units[k] = PhiloxUnitFromU64(
                (static_cast<uint64_t>(b.w[1]) << 32) | b.w[0]);
            want_raws[k] = (static_cast<uint64_t>(b.w[3]) << 32) | b.w[2];
          }
          for (Body& body : bodies) {
            std::vector<double> units(count + 1, -1.0);
            std::vector<uint64_t> raws(count + 1, 42);
            body.ran = PhiloxFillElementDrawsOn(body.body, seed, stream,
                                                first, count, units.data(),
                                                raws.data());
            if (!body.ran) continue;
            SCOPED_TRACE(::testing::Message()
                         << body.name << ": seed " << seed << ", stream "
                         << stream << ", first " << first << ", count "
                         << count);
            ASSERT_EQ(std::memcmp(units.data(), want_units.data(),
                                  units.size() * sizeof(double)),
                      0);
            ASSERT_EQ(std::memcmp(raws.data(), want_raws.data(),
                                  raws.size() * sizeof(uint64_t)),
                      0);
          }
        }
      }
    }
  }
  EXPECT_TRUE(bodies[0].ran);
  for (const Body& body : bodies) {
    if (!body.ran) {
      std::printf("%s fill body not checked: the build or the CPU lacks it\n",
                  body.name);
    }
  }
}

// The vector body's unit conversion: x = (w1:w0) >> 11 split at bit 32
// under the exponent words of counter_internal, biased back and scaled,
// is PhiloxUnitFromU64's double bit for bit, at the ends of each half
// and of the 53-bit range.
TEST(PhiloxFillTest, UnitSplitIsExact) {
  const auto as_double = [](uint64_t bits) {
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  };
  const uint64_t k32 = 1ull << 32;
  const uint64_t k52 = 1ull << 52;
  const uint64_t xs[] = {0, 1, k32 - 1, k32, k52 - 1, k52, 2 * k52 - 1};
  for (uint64_t x : xs) {
    const double hi = as_double(counter_internal::kUnitHiExponent | (x >> 32));
    const double lo =
        as_double(counter_internal::kUnitLoExponent | (x & 0xffffffffu));
    const double split = ((hi - counter_internal::kUnitBias) + lo) * 0x1.0p-53;
    const double want = PhiloxUnitFromU64(x << 11);
    EXPECT_EQ(std::memcmp(&split, &want, sizeof want), 0) << "x = " << x;
    EXPECT_EQ(want, static_cast<double>(x) * 0x1.0p-53) << "x = " << x;
  }
}

// Fills `count` pre-drawn pairs from stream (seed, 0) and overwrites
// some with the edge values the block kernels must get right: raw words
// at the ends of each 32-bit half, units at 0, just below 1 and exactly
// at, just below and just above `alpha` (the compare is strict).
void EdgeDraws(uint64_t seed, size_t count, double alpha,
               std::vector<double>& units, std::vector<uint64_t>& raws) {
  units.assign(count, 0.0);
  raws.assign(count, 0);
  PhiloxFillElementDraws(seed, 0, 0, count, units.data(), raws.data());
  const uint64_t edge_raws[] = {0, 1, 0xffffffffull, 1ull << 32,
                                ~uint64_t{0}};
  const double edge_units[] = {0.0, std::nextafter(1.0, 0.0), alpha,
                               std::nextafter(alpha, 0.0),
                               std::nextafter(alpha, 2.0)};
  for (size_t k = 0; k < count; k += 3) {
    raws[k] = edge_raws[(k / 3) % 5];
    units[k] = edge_units[(k / 3 + k / 15) % 5];
  }
}

// Each body of KeepUniformBlock this build and CPU have writes exactly
// the words of the scalar formula, at bounds on both sides of the AVX2
// body's 2^32 limit, at alphas from tiny through >= 1, and at counts
// around its four-lane step and the 512-element tile, leaving one slot
// past the end untouched.
TEST(KeepUniformBlockTest, EveryBodyMatchesScalarFormula) {
  struct Body {
    SimdBody body;
    const char* name;
    bool ran = false;
  };
  Body bodies[] = {{SimdBody::kPortable, "portable"},
                   {SimdBody::kAvx2, "AVX2"}};
  const uint64_t bounds[] = {2,          5,           16,
                             300,        65537,       (1ull << 31) + 11,
                             0xffffffffull, 1ull << 32};
  const double alphas[] = {1e-9, 0.3, std::nextafter(1.0, 0.0), 1.0, 1.5};
  const size_t counts[] = {0, 1, 3, 4, 5, 511, 512, 513};
  for (uint64_t bound : bounds) {
    for (double alpha : alphas) {
      for (size_t count : counts) {
        std::vector<double> units;
        std::vector<uint64_t> raws;
        EdgeDraws(bound + count, count, alpha, units, raws);
        std::vector<uint32_t> codes(count);
        for (size_t k = 0; k < count; ++k) {
          codes[k] = static_cast<uint32_t>(raws[k] >> 17) ^
                     (k % 2 == 0 ? 0xffffffffu : 0u);
        }
        std::vector<uint32_t> want(count + 1, 0xabcdef01u);
        for (size_t k = 0; k < count; ++k) {
          const auto bucket =
              static_cast<uint32_t>(PhiloxBoundedFromRaw(raws[k], bound));
          want[k] = units[k] < alpha ? bucket : codes[k];
        }
        for (Body& body : bodies) {
          std::vector<uint32_t> out(count + 1, 0xabcdef01u);
          body.ran = KeepUniformBlockOn(body.body, codes.data(), units.data(),
                                        raws.data(), alpha, bound, count,
                                        out.data());
          if (!body.ran) continue;
          SCOPED_TRACE(::testing::Message()
                       << body.name << ": bound " << bound << ", alpha "
                       << alpha << ", count " << count);
          ASSERT_EQ(std::memcmp(out.data(), want.data(),
                                out.size() * sizeof(uint32_t)),
                    0);
        }
      }
    }
  }
  EXPECT_TRUE(bodies[0].ran);
  for (const Body& body : bodies) {
    if (!body.ran) {
      std::printf("%s keep-uniform body not checked: the build or the CPU "
                  "lacks it\n",
                  body.name);
    }
  }
}

// Each body of AliasLookupBlockOn writes exactly the words of per-row
// AliasSampler::SampleFrom, with one table (rows == nullptr) and with
// per-element rows over fused tables, at the same counts.
TEST(AliasLookupBlockTest, EveryBodyMatchesSampleFrom) {
  struct Body {
    SimdBody body;
    const char* name;
    bool ran = false;
  };
  Body bodies[] = {{SimdBody::kPortable, "portable"},
                   {SimdBody::kAvx2, "AVX2"}};
  const size_t bounds[] = {2, 5, 16, 300};
  const size_t counts[] = {0, 1, 3, 4, 5, 511, 512, 513};
  for (size_t bound : bounds) {
    // Three tables with different weights, fused row-major.
    std::vector<AliasSampler> samplers;
    std::vector<double> thresholds;
    std::vector<uint32_t> aliases;
    for (size_t t = 0; t < 3; ++t) {
      std::vector<double> weights(bound);
      for (size_t v = 0; v < bound; ++v) {
        weights[v] = 1.0 + static_cast<double>((v * (t + 3)) % 7);
      }
      samplers.emplace_back(weights);
      samplers.back().AppendTables(thresholds, aliases);
    }
    for (size_t count : counts) {
      std::vector<double> units;
      std::vector<uint64_t> raws;
      EdgeDraws(bound + count, count, 0.5, units, raws);
      std::vector<uint32_t> rows(count);
      for (size_t k = 0; k < count; ++k) rows[k] = (k * 7 + 1) % 3;
      for (const bool fused : {false, true}) {
        std::vector<uint32_t> want(count + 1, 0xabcdef01u);
        for (size_t k = 0; k < count; ++k) {
          want[k] = samplers[fused ? rows[k] : 0].SampleFrom(units[k],
                                                             raws[k]);
        }
        for (Body& body : bodies) {
          std::vector<uint32_t> out(count + 1, 0xabcdef01u);
          body.ran = AliasLookupBlockOn(
              body.body, thresholds.data(), aliases.data(), bound,
              fused ? thresholds.size() : bound,
              fused ? rows.data() : nullptr, units.data(), raws.data(),
              count, out.data());
          if (!body.ran) continue;
          SCOPED_TRACE(::testing::Message()
                       << body.name << ": bound " << bound << ", count "
                       << count << (fused ? ", fused rows" : ", one table"));
          ASSERT_EQ(std::memcmp(out.data(), want.data(),
                                out.size() * sizeof(uint32_t)),
                    0);
        }
      }
    }
  }
  EXPECT_TRUE(bodies[0].ran);
  for (const Body& body : bodies) {
    if (!body.ran) {
      std::printf("%s alias body not checked: the build or the CPU lacks "
                  "it\n",
                  body.name);
    }
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

// The counts a range call adds equal the histogram of the column it
// writes, for domains on both sides of the sub-histogram cutoff and for
// calls long and short enough to use them, structured and dense.
TEST(RrMatrixCounterTest, CountsMatchOutputHistogramAroundSplitCutoff) {
  const size_t cutoff = RrMatrix::kSplitCountDomain;
  for (size_t r : {cutoff - 1, cutoff, cutoff + 1}) {
    const RrMatrix structured = RrMatrix::KeepUniform(r, 0.4);
    const RrMatrix dense = RrMatrix::GeometricOrdinal(r, 3.0);
    ASSERT_FALSE(dense.is_structured());
    for (const RrMatrix* matrix : {&structured, &dense}) {
      for (size_t n : {size_t{7}, 4 * r + 3}) {
        std::vector<uint32_t> codes(n);
        for (size_t i = 0; i < n; ++i) {
          codes[i] = static_cast<uint32_t>((i * 37) % r);
        }
        std::vector<uint32_t> out(n);
        std::vector<int64_t> counts(r, 5);  // Counts add to what is there.
        matrix->RandomizeRangeCounterInto(codes.data(), n, /*seed=*/41,
                                          /*stream=*/2, /*first_element=*/9,
                                          out.data(), counts.data());
        std::vector<int64_t> histogram(r, 5);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i], matrix->RandomizeCounter(codes[i], 41, 2, 9 + i));
          ++histogram[out[i]];
        }
        EXPECT_EQ(counts, histogram)
            << "r = " << r << ", n = " << n
            << (matrix->is_structured() ? ", structured" : ", dense");
      }
    }
  }
}

// Keep probability 0 replaces every code with the element's bounded raw
// word, as the per-element draw does: alpha = r * (1 / r) is at least 1
// here, and every unit lies below it.
TEST(RrMatrixCounterTest, KeepZeroReplacesEveryCodeWithItsBoundedDraw) {
  for (size_t r : {size_t{3}, size_t{5}, size_t{7}, size_t{16}, size_t{300}}) {
    const RrMatrix matrix = RrMatrix::KeepUniform(r, 0.0);
    const size_t n = 1100;
    std::vector<uint32_t> codes(n);
    for (size_t i = 0; i < n; ++i) codes[i] = static_cast<uint32_t>(i % r);
    std::vector<uint32_t> out(n);
    matrix.RandomizeRangeCounterInto(codes.data(), n, /*seed=*/8,
                                     /*stream=*/3, /*first_element=*/100,
                                     out.data(), nullptr);
    for (size_t i = 0; i < n; ++i) {
      const PhiloxBlock block = PhiloxElementBlock(8, 3, 100 + i);
      const uint64_t raw =
          (static_cast<uint64_t>(block.w[3]) << 32) | block.w[2];
      ASSERT_EQ(out[i], PhiloxBoundedFromRaw(raw, r)) << "r = " << r;
      ASSERT_EQ(out[i], matrix.RandomizeCounter(codes[i], 8, 3, 100 + i));
    }
  }
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
