// A bit-exact std::mt19937_64 whose first cycle twists on demand.
//
// The standard engine ([rand.eng.mers]) regenerates all 312 state words
// the first time it is drawn from, but a randomized report draws only a
// few words from its own freshly seeded stream (two per attribute). This
// engine produces the identical output sequence and differs only in when
// it twists: in the first cycle after seeding it twists one small chunk,
// then the rest of the block once the chunk is used up. Every later cycle
// twists the whole block, as std::mt19937_64 does. The twist of word k
// reads words k, k+1 and k+m of the state in place, in ascending k, so
// splitting the loop anywhere leaves every word bit-identical.
//
// Seeding from precomputed seed words can defer the load as well
// (SeedDeferred): the first chunk's twist reads only state words 0-16
// and 156-171, so those 33 are copied at seeding and the other 279 are
// read from the caller's words when the twist reaches the rest of the
// first cycle. A per-report engine seeded from its lane of a seed block
// (fast_seed.h) then never copies the words its report does not reach.
//
// The twist is branch-free: the matrix constant is xored in under a mask
// made from the low bit of the mixed word. Written as a conditional, GCC
// 12 at -O3 compiles it to a jump on that random bit, which mispredicts
// on about half the words; sustained draws then cost about 7.1-7.6 ns
// per word, against 2.1-2.5 ns branch-free (bench_micro_primitives
// BM_EngineSustainedDraws, medians of 5, 4-core Xeon VM, Release).
// Generate hands out a run of words at once for buffered consumers; it
// and the twist run four words wide where the CPU has AVX2.
//
// result_type, min() and max() equal the standard engine's, so every
// std distribution and std::shuffle consume it exactly as they consume
// std::mt19937_64 (tests/rng_test.cc checks both side by side).

#ifndef MDRR_RNG_MERSENNE_TWISTER_H_
#define MDRR_RNG_MERSENNE_TWISTER_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace mdrr {

// The number of 32-bit words an mt19937_64 requests when seeded from a
// seed sequence (312 state words x 2 words each).
inline constexpr size_t kEngineSeedWords = 624;

// A seed sequence's kEngineSeedWords-word expansion, already generated
// (FourWordSeedSeq::GenerateEngineWords, or a lane of GenerateSeedBlock's
// block in fast_seed.h), as a strided view: word i is words[i * stride],
// stride 1 for a contiguous array and kSeedLanes for a block lane.
// Seeding from it equals seeding from the sequence itself, minus the
// generate() round trip. Non-owning: how long the words must stay valid
// depends on the seeding call (MersenneTwister64::seed, SeedDeferred).
struct SeedWords {
  const uint32_t* words;
  size_t stride = 1;

  uint32_t operator[](size_t i) const { return words[i * stride]; }
};

// Selects the deferring seeding (MersenneTwister64::SeedDeferred) in a
// constructor.
struct DeferredSeedTag {};
inline constexpr DeferredSeedTag kDeferredSeed{};

class MersenneTwister64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kStateWords = 312;
  static constexpr result_type default_seed = 5489u;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  MersenneTwister64() { seed(default_seed); }
  explicit MersenneTwister64(result_type value) { seed(value); }
  explicit MersenneTwister64(SeedWords seed_words) { seed(seed_words); }
  MersenneTwister64(SeedWords seed_words, DeferredSeedTag) {
    SeedDeferred(seed_words);
  }
  template <typename Sseq,
            typename = std::enable_if_t<
                !std::is_convertible_v<Sseq, result_type> &&
                !std::is_same_v<std::remove_cv_t<Sseq>, MersenneTwister64>>>
  explicit MersenneTwister64(Sseq& seq) {
    seed(seq);
  }

  // [rand.eng.mers] seeding from one value.
  void seed(result_type value);
  // Seeding from a seed sequence's kEngineSeedWords words, exactly as
  // std::mt19937_64::seed(Sseq&) composes them. Copies every word, so the
  // view need only stay valid for this call.
  void seed(SeedWords seed_words);
  // The same engine, but copies only the 33 state words the first
  // chunk's twist reads; the rest are read from the view when the twist
  // first reaches the rest of the first cycle (a draw, Generate or
  // discard past the first kFirstChunk words). The view must stay valid
  // until then, or until the engine, and every copy of it, is dropped or
  // reseeded. Words that may be the standard's all-zero state are all
  // loaded at once, for its exact check.
  void SeedDeferred(SeedWords seed_words);
  template <typename Sseq,
            typename = std::enable_if_t<
                !std::is_convertible_v<Sseq, result_type> &&
                !std::is_same_v<std::remove_cv_t<Sseq>, SeedWords>>>
  void seed(Sseq& seq) {
    uint32_t words[kEngineSeedWords];
    seq.generate(words, words + kEngineSeedWords);
    seed(SeedWords{words});
  }

  result_type operator()() {
    if (next_ >= ready_) Twist();
    return Temper(state_[next_++]);
  }

  // Writes the next n words to out[0, n), as n calls of operator() would,
  // tempering each twisted run in one vectorized loop.
  void Generate(uint64_t* out, size_t n);

  // Advances as `count` calls of operator() would.
  void discard(unsigned long long count);

  // The [rand.eng.mers] tempering of one twisted state word.
  static uint64_t Temper(uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  // Words of the first cycle twisted on its first draw.
  static constexpr uint32_t kFirstChunk = 16;

  // Makes state_[next_] ready: the first chunk of a freshly seeded
  // state, the rest of the first cycle, or a whole new cycle.
  void Twist();

  // state_[i] = the state word of seed words 2i and 2i+1, for i in
  // [begin, end).
  void LoadStateWords(SeedWords seed_words, size_t begin, size_t end);

  uint64_t state_[kStateWords];
  // Index of the next word to temper.
  uint32_t next_ = 0;
  // Words [0, ready_) of the current cycle are twisted; 0 right after
  // seeding, kStateWords once the whole cycle is.
  uint32_t ready_ = 0;
  // The seed words SeedDeferred has not copied yet; null once loaded.
  SeedWords rest_{nullptr, 0};
};

}  // namespace mdrr

#endif  // MDRR_RNG_MERSENNE_TWISTER_H_
