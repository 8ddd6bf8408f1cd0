// Deterministic pseudo-random number generation for the library.
//
// All randomized components take an Rng& so experiments are reproducible
// from a single seed. Seeding goes through SplitMix64 so that nearby seeds
// produce unrelated streams.

#ifndef MDRR_RNG_RNG_H_
#define MDRR_RNG_RNG_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "mdrr/common/check.h"
#include "mdrr/rng/mersenne_twister.h"

namespace mdrr {

// SplitMix64 step: returns the next value of the sequence and advances
// `state`. Used for seed expansion and as a tiny standalone generator.
uint64_t SplitMix64Next(uint64_t& state);

// A stream of 64-bit words, read in order a block at a time. The
// buffered structured RR kernel (RrMatrix::RandomizeMixedRangeInto)
// reads an Rng's engine through it; tests drive the same kernel with
// scripted words.
class WordSource {
 public:
  // Writes the next n words of the stream to words[0, n).
  virtual void Fill(uint64_t* words, size_t n) = 0;

 protected:
  ~WordSource() = default;  // Sources are never deleted through this base.
};

// A seeded 64-bit Mersenne Twister with convenience draws.
// Not thread-safe; use one Rng per thread.
//
// UniformDouble and UniformInt are the std:: distributions over the
// engine, and their libstdc++ algorithms define the mt19937 transcript:
// generate_canonical<double, 53> takes one word w to double(w) / 2^64
// (clamped below 1), and uniform_int_distribution<uint64_t> is Lemire's
// multiply-and-reject over one or more words. RrMatrix's buffered
// structured kernel reproduces exactly these draws word for word, so
// these stay the reference it is tested against.
class Rng {
 public:
  // The engine seeded from the four-word SplitMix64 expansion of `seed`
  // (FourWordSeedSeq in fast_seed.h).
  explicit Rng(uint64_t seed);

  // The engine seeded from a precomputed seed-sequence expansion: the
  // hook the lane-batched seeding walk (ForEachSeedSequence in
  // fast_seed.h) uses to seed from a block's lane in place.
  // MersenneTwister64::SeedDeferred keeps reading the view until its
  // first cycle is twisted, so the engine must be dropped while the view
  // is still valid.
  Rng(SeedWords seed_words, DeferredSeedTag tag) : engine_(seed_words, tag) {}

  // Uniform on {0, ..., bound - 1}. Precondition: bound > 0.
  // Inline: one draw of this sits inside every randomized-response
  // publication, so the call must vanish into the caller's loop.
  uint64_t UniformInt(uint64_t bound) {
    MDRR_DCHECK_GT(bound, 0u);
    std::uniform_int_distribution<uint64_t> dist(0, bound - 1);
    return dist(engine_);
  }

  // Uniform on [0, 1).
  double UniformDouble() {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
  }

  // True with probability p (clamped to [0, 1]). p <= 0 and p >= 1 decide
  // without consuming a draw -- part of the transcript contract.
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  // Draws an index from the (not necessarily normalized) non-negative
  // weight vector by inverse transform. O(n); for repeated draws from the
  // same distribution use AliasSampler.
  size_t Discrete(const std::vector<double>& weights);

  // Uniform Fisher-Yates shuffle of data[0, count). Unlike std::shuffle,
  // whose draw sequence is implementation-defined, this consumes exactly
  // count - 1 UniformInt draws in a fixed order, so shuffled output is
  // part of the library's cross-platform determinism contract (per-shard
  // synthetic release).
  void ShuffleU32(uint32_t* data, size_t count);

  MersenneTwister64& engine() { return engine_; }

 private:
  MersenneTwister64 engine_;
};

// A deterministic family of independent sub-streams derived from one base
// seed. Stream(i) depends only on (base_seed, i) -- never on how many
// streams exist or the order they are requested -- so sharded workloads
// can hand each shard its own generator and produce bit-identical output
// for any thread count. A family is immutable and safe to share across
// threads.
class RngStreamFamily {
 public:
  explicit RngStreamFamily(uint64_t base_seed);

  // The index-th sub-stream, in its initial state. Pure function of
  // (base_seed, index).
  Rng Stream(uint64_t index) const { return Rng(StreamSeed(index)); }

  // The seed Stream(index) expands, for seeding streams a lane block at
  // a time (ForEachSeedSequence in fast_seed.h).
  uint64_t StreamSeed(uint64_t index) const;

  uint64_t base_seed() const { return base_seed_; }

 private:
  uint64_t base_seed_;
};

}  // namespace mdrr

#endif  // MDRR_RNG_RNG_H_
