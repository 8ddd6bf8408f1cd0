// The buffered structured RR kernel (RrMatrix::RandomizeMixedRangeInto)
// against the per-element std:: loop it replaces: std::mt19937_64 words
// through std::uniform_real_distribution and
// std::uniform_int_distribution. Every output, every count and the word
// the engine yields next must match, over buffer edges, engine offsets
// and the Lemire rejection path that random words practically never
// reach.

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/rr_matrix.h"
#include "mdrr/linalg/structured.h"
#include "mdrr/rng/fast_seed.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

constexpr uint64_t kTopDomain = (uint64_t{1} << 31) - 1;
// A word Lemire's draw accepts for every r here (lo64(w * r) >= r).
constexpr uint64_t kAccept = 0x9e3779b97f4a7c15ULL;

double Alpha(const RrMatrix& matrix) {
  return static_cast<double>(matrix.size()) *
         matrix.structured()->off_diagonal;
}

// One element of the per-element reference loop: Rng::Bernoulli, then
// Rng::UniformInt, spelled with the std:: distributions.
template <typename Urbg>
uint32_t ReferenceDraw(double alpha, uint64_t r, uint32_t code, Urbg& urbg) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  if (unit(urbg) < alpha) {
    std::uniform_int_distribution<uint64_t> bounded(0, r - 1);
    return static_cast<uint32_t>(bounded(urbg));
  }
  return code;
}

std::vector<uint32_t> Codes(size_t count, uint64_t r) {
  std::vector<uint32_t> codes(count);
  for (size_t i = 0; i < count; ++i) {
    codes[i] = static_cast<uint32_t>((i * 2654435761u + i / 3) % r);
  }
  return codes;
}

// Runs every slice length in turn on one Rng and one std::mt19937_64
// seeded from the same words and `offset` words in, checking outputs,
// counts (when the domain is small enough to count) and, after each
// slice, the engine's next word.
void ExpectKernelMatchesStdLoop(const RrMatrix& matrix, uint64_t seed,
                                int offset, bool with_counts) {
  const uint64_t r = matrix.size();
  const double alpha = Alpha(matrix);
  ASSERT_GT(alpha, 0.0);
  ASSERT_LT(alpha, 1.0);
  FourWordSeedSeq seq(seed);
  std::mt19937_64 reference(seq);
  Rng rng(seed);
  for (int k = 0; k < offset; ++k) ASSERT_EQ(rng.engine()(), reference());

  for (size_t count : {0, 1, 2, 1023, 1024, 1025, 2047, 2048, 2049, 100000}) {
    SCOPED_TRACE(testing::Message() << "count " << count);
    const std::vector<uint32_t> codes = Codes(count, r);
    std::vector<uint32_t> out(count);
    std::vector<int64_t> counts(with_counts ? r : 0, 0);
    matrix.RandomizeRangeInto(codes.data(), count, rng, out.data(),
                              with_counts ? counts.data() : nullptr);
    std::vector<int64_t> want_counts(counts.size(), 0);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t want = ReferenceDraw(alpha, r, codes[i], reference);
      ASSERT_EQ(out[i], want) << "element " << i;
      if (with_counts) ++want_counts[want];
    }
    EXPECT_EQ(counts, want_counts);
    ASSERT_EQ(rng.engine()(), reference());
  }
}

TEST(StructuredKernelTest, MatchesStdLoopOverDesignsAndSlices) {
  for (uint64_t r : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{7},
                     uint64_t{30}, uint64_t{300}, kTopDomain}) {
    const std::vector<RrMatrix> designs = {
        RrMatrix::KeepUniform(r, 0.3), RrMatrix::KeepUniform(r, 0.5),
        RrMatrix::KeepUniform(r, 0.7), RrMatrix::OptimalForEpsilon(r, 1.0)};
    for (size_t d = 0; d < designs.size(); ++d) {
      for (int offset = 0; offset < 4; ++offset) {
        // A count per category of a 2^31-category domain is 16 GiB.
        for (bool with_counts : {false, true}) {
          if (with_counts && r == kTopDomain) continue;
          SCOPED_TRACE(testing::Message()
                       << "r " << r << " design " << d << " offset "
                       << offset << " counts " << with_counts);
          ExpectKernelMatchesStdLoop(designs[d], 100 * r + d, offset,
                                     with_counts);
        }
      }
    }
  }
}

// FromStructured designs whose alpha sits at either end of (0, 1).
std::vector<RrMatrix> ExtremeDesigns() {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double top = std::nextafter(1.0, 0.0);
  std::vector<RrMatrix> designs;
  for (auto [r, off] : {std::pair<uint64_t, double>{1, tiny}, {7, tiny},
                        {1, top}, {2, top / 2}, {8, top / 8}}) {
    auto matrix = RrMatrix::FromStructured(linalg::UniformMixture{
        r, 1.0 - static_cast<double>(r - 1) * off, off});
    EXPECT_TRUE(matrix.ok());
    designs.push_back(std::move(matrix).value());
  }
  EXPECT_EQ(Alpha(designs[0]), tiny);
  EXPECT_EQ(Alpha(designs[2]), top);
  EXPECT_EQ(Alpha(designs[3]), top);
  return designs;
}

TEST(StructuredKernelTest, MatchesStdLoopAtAlphaExtremes) {
  const std::vector<RrMatrix> designs = ExtremeDesigns();
  for (size_t d = 0; d < designs.size(); ++d) {
    SCOPED_TRACE(testing::Message() << "design " << d);
    ExpectKernelMatchesStdLoop(designs[d], 7 + d, static_cast<int>(d % 4),
                               /*with_counts=*/true);
  }
}

// A scripted word stream, both as the kernel's WordSource and as the
// std:: distributions' generator. Reading past the script fails the test.
class ScriptedWords final : public WordSource {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit ScriptedWords(const std::vector<uint64_t>& words)
      : words_(words) {}

  result_type operator()() {
    EXPECT_LT(next_, words_.size()) << "read past the script";
    return next_ < words_.size() ? words_[next_++] : 0;
  }
  void Fill(uint64_t* words, size_t n) override {
    for (size_t k = 0; k < n; ++k) words[k] = (*this)();
  }
  size_t consumed() const { return next_; }

 private:
  const std::vector<uint64_t>& words_;
  size_t next_ = 0;
};

// Runs the kernel and the std:: loop over the same script and requires
// the same outputs and the same number of words consumed.
void ExpectScriptMatches(const RrMatrix& matrix,
                         const std::vector<uint64_t>& script, size_t count) {
  const uint64_t r = matrix.size();
  const double alpha = Alpha(matrix);
  const std::vector<uint32_t> codes = Codes(count, r);
  std::vector<uint32_t> out(count);
  ScriptedWords kernel_words(script);
  matrix.RandomizeMixedRangeInto(codes.data(), count, kernel_words,
                                 out.data(), nullptr);
  ScriptedWords reference_words(script);
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(out[i], ReferenceDraw(alpha, r, codes[i], reference_words))
        << "element " << i;
  }
  EXPECT_EQ(kernel_words.consumed(), reference_words.consumed());
}

// The inverse of odd r modulo 2^64 (Newton's iteration).
uint64_t InverseMod64(uint64_t r) {
  uint64_t inverse = r;
  for (int k = 0; k < 6; ++k) inverse *= 2 - r * inverse;
  return inverse;
}

// Lemire's draw rejects when lo64(w * r) < 2^64 mod r, which random
// words hit with probability < r / 2^64. A script forces it: an element
// that takes (first word 0 < W) followed by words whose product with r
// has low half 0 (w = 0, rejected unless r is a power of two) or exactly
// r - 1 (accepted by the exact check, for odd r). Every other element
// keeps (first word 2^64 - 1 never takes), so the taking element starts
// at word `start`, which puts the rejection mid-buffer, on the buffer's
// last word and across a refill.
TEST(StructuredKernelTest, LemireRejectionMatchesStdDistribution) {
  constexpr uint64_t kKeep = ~uint64_t{0};
  constexpr size_t kCount = 3000;
  for (uint64_t r : {uint64_t{2}, uint64_t{3}, uint64_t{7}, uint64_t{30},
                     uint64_t{300}, kTopDomain}) {
    const RrMatrix matrix = RrMatrix::KeepUniform(r, 0.5);
    std::vector<std::vector<uint64_t>> draws = {
        {0, kAccept}, {0, 0, kAccept}, {0, 0, 0, kAccept}};
    if (r % 2 == 1) {
      const uint64_t low_top = (r - 1) * InverseMod64(r);  // lo64 = r - 1
      draws.push_back({0, low_top});
      draws.push_back({0, 0, low_top});
    }
    for (size_t start : {500, 1020, 1021, 1022, 1023, 1024, 2046, 2047}) {
      for (size_t d = 0; d < draws.size(); ++d) {
        SCOPED_TRACE(testing::Message() << "r " << r << " start " << start
                                        << " draw " << d);
        std::vector<uint64_t> script(start, kKeep);
        script.insert(script.end(), draws[d].begin(), draws[d].end());
        script.resize(kCount + draws[d].size() - 1, kKeep);
        ExpectScriptMatches(matrix, script, kCount);
      }
    }
  }
}

// The take threshold is exact: with W the first word whose canonical
// double is not below alpha (found here from std:: alone), an element
// whose first word is W - 1 takes (two words) and one whose first word
// is W keeps (one word).
TEST(StructuredKernelTest, TakeThresholdIsExact) {
  std::vector<RrMatrix> designs = ExtremeDesigns();
  for (double p : {0.0001, 0.3, 0.5, 0.7, 0.9999}) {
    designs.push_back(RrMatrix::KeepUniform(300, p));
  }
  designs.push_back(RrMatrix::OptimalForEpsilon(kTopDomain, 1.0));
  for (size_t d = 0; d < designs.size(); ++d) {
    SCOPED_TRACE(testing::Message() << "design " << d);
    const double alpha = Alpha(designs[d]);
    const auto canonical = [](uint64_t w) {
      const std::vector<uint64_t> one = {w};
      ScriptedWords words(one);
      return std::uniform_real_distribution<double>(0.0, 1.0)(words);
    };
    uint64_t below = 0;
    uint64_t at_or_above = ~uint64_t{0};
    while (at_or_above - below > 1) {
      const uint64_t mid = below + (at_or_above - below) / 2;
      (canonical(mid) < alpha ? below : at_or_above) = mid;
    }
    for (uint64_t first : {at_or_above - 1, at_or_above}) {
      ExpectScriptMatches(designs[d], {first, kAccept}, 1);
    }
  }
}

}  // namespace
}  // namespace mdrr
