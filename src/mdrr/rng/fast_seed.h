// Fast, bit-exact mt19937_64 seeding.
//
// Rng(seed) has always meant "mt19937_64 seeded from
// std::seed_seq{SplitMix64 x 4}", and every transcript the library
// publishes inherits that contract, so seeding cannot change behavior --
// but it can change cost. The [rand.util.seedseq] generate() algorithm is
// specified exactly by the standard, which makes two optimizations legal:
//
//   * FourWordSeedSeq runs the standard recurrence with the previous
//     word carried in a register and each pass split at its two wrap
//     boundaries, so the hot loops are branch-free and allocation-free.
//     It is still one serial chain of 1 248 dependent steps per seed.
//   * GenerateSeedBlock runs kSeedLanes = 32 independent expansions at
//     once, one vector lane each, so 32 chains run side by side (an AVX2
//     body where the CPU has it, chosen at run time, else a portable
//     one). The expansion is latency-bound: what pays is the number of
//     chains in flight, not the width of one register.
//
// Measured by bench_micro_primitives (BM_SerialSeedExpansion,
// BM_SeedBlockExpansion/{0,1}) on a 4-vCPU Xeon VM, GCC 12, Release:
// about 3.7 us per seed serially; per seed in a block, staging
// included, a median 0.57 us (0.51-0.73) on AVX2 and 1.6 us (1.5-2.1)
// portable. A per-report engine then seeds straight from its lane of
// the block (ForEachSeedSequence, MersenneTwister64::SeedDeferred):
// it copies the 33 state words its first twist reads and loads the rest
// only if its report draws past them, so the streaming path neither
// stages nor copies the other words. Engines that outlive the walk, the
// session's per-party ones, are seeded complete from lanes staged
// contiguous (ForEachStagedSeedSequence, StageSeedLanes). Both walks run
// under protocol::RandomizeRecords, which is what makes one engine per
// record affordable.
//
// Both paths are golden-tested against std::seed_seq in
// tests/session_fast_path_test.cc; any divergence is a test failure, not
// a silent transcript change.

#ifndef MDRR_RNG_FAST_SEED_H_
#define MDRR_RNG_FAST_SEED_H_

#include <cstddef>
#include <cstdint>
#include <random>

#include "mdrr/rng/rng.h"
#include "mdrr/rng/simd_body.h"

namespace mdrr {

// Engines seeded per GenerateSeedBlock call. Each lane is one serial
// chain of 1 248 dependent steps, so the lanes are what puts work in
// flight while a multiply's latency runs: four 8 x u32 vectors per step.
inline constexpr size_t kSeedLanes = 32;

// Lanes StageSeedLanes copies out at a time: one 8 x 8 transpose tile.
inline constexpr size_t kSeedStageLanes = 8;

// Drop-in replacement for the library's historical engine seeding
// sequence std::seed_seq{SplitMix64Next(s) x 4}: generate() output is
// bit-identical for every request length, by the exactness of the
// [rand.util.seedseq] specification.
class FourWordSeedSeq {
 public:
  // Expands `seed` through SplitMix64 into the four entropy words, the
  // same expansion Rng(seed) has always used. (std::seed_seq stores its
  // inputs mod 2^32, hence the uint32_t entropy.)
  explicit FourWordSeedSeq(uint64_t seed);

  using result_type = uint32_t;
  size_t size() const { return 4; }

  template <typename It>
  void generate(It begin, It end) {
    if (end - begin == static_cast<ptrdiff_t>(kEngineSeedWords)) {
      uint32_t buffer[kEngineSeedWords];
      GenerateEngineWords(buffer);
      for (size_t i = 0; i < kEngineSeedWords; ++i, ++begin) {
        *begin = buffer[i];
      }
      return;
    }
    GenerateGeneric(begin, end);
  }

  // The specialized 624-word expansion (the mt19937_64 request).
  void GenerateEngineWords(uint32_t out[kEngineSeedWords]) const;

 private:
  // Any other request length is off the hot path (an mt19937_64 always
  // asks for 624 words), so delegate to std::seed_seq itself -- correct
  // by construction for hypothetical non-mt19937_64 consumers.
  template <typename It>
  void GenerateGeneric(It begin, It end) const {
    std::seed_seq seq(entropy_, entropy_ + 4);
    seq.generate(begin, end);
  }

  uint32_t entropy_[4];
};

// The expansion state of one seed block, word-major: words[i][l] is word
// i of lane l's expansion. 80 KB: callers keep it on the seeding
// thread's stack or in a per-call buffer, never in thread_local storage
// (glibc zeroes a thread's .tbss when it starts, so every thread would
// pay for its pages).
struct alignas(64) SeedBlock {
  uint32_t words[kEngineSeedWords][kSeedLanes];
};

// Runs kSeedLanes FourWordSeedSeq 624-word expansions at once into
// *block, seeds[l] into lane l, on the fastest body the CPU has (decided
// once, at run time).
void GenerateSeedBlock(const uint64_t seeds[kSeedLanes], SeedBlock* block);

// The same on one named body, so tests check and benchmarks time each
// one. Returns false without writing when the CPU or the compiler lacks
// the body's instructions.
bool GenerateSeedBlockOn(SimdBody body, const uint64_t seeds[kSeedLanes],
                         SeedBlock* block);

// Copies lanes [first, first + kSeedStageLanes) of `block` out
// lane-major, so each lane's words are contiguous for an engine to seed
// from: out[l * kEngineSeedWords + i] = block.words[i][first + l].
// `first` is a multiple of kSeedStageLanes. Runs on the same body as
// GenerateSeedBlock.
void StageSeedLanes(const SeedBlock& block, size_t first, uint32_t* out);

// The same on one named body; false without writing when the body is
// unavailable, as for GenerateSeedBlockOn.
bool StageSeedLanesOn(SimdBody body, const SeedBlock& block, size_t first,
                      uint32_t* out);

// Lane l of `block` as a seed view: word i is block.words[i][l].
inline SeedWords LaneWords(const SeedBlock& block, size_t lane) {
  return SeedWords{&block.words[0][lane], kSeedLanes};
}

// The block walk under both loops below: for every block start i in
// [0, count), expands seeds[i, i + lanes) into *block and calls
// per_block(i, lanes). A final partial block runs through
// GenerateSeedBlock too, padded with zero seeds whose words nobody
// reads.
template <typename PerBlock>
void ForEachSeedBlock(const uint64_t* seeds, size_t count, SeedBlock* block,
                      PerBlock&& per_block) {
  for (size_t i = 0; i < count; i += kSeedLanes) {
    const size_t lanes = count - i < kSeedLanes ? count - i : kSeedLanes;
    uint64_t lane_seeds[kSeedLanes] = {};
    for (size_t l = 0; l < lanes; ++l) lane_seeds[l] = seeds[i + l];
    GenerateSeedBlock(lane_seeds, block);
    per_block(i, lanes);
  }
}

// The one lane-batching walk over a seed range: invokes
// fn(index, SeedWords) for every index in [0, count) with the 624-word
// expansion of seeds[index], kSeedLanes seeds per GenerateSeedBlock
// call. The view is the seed's lane of the word-major block
// (LaneWords), nothing is copied out, and it is valid during the call
// only: an engine seeded from it with SeedDeferred must be dropped
// before fn returns. The words are exactly std::seed_seq{SplitMix64 x
// 4}'s for that seed, so each element is a pure function of its own
// seed and disjoint ranges can be walked concurrently with any
// grouping.
template <typename Fn>
void ForEachSeedSequence(const uint64_t* seeds, size_t count, Fn&& fn) {
  SeedBlock block;
  ForEachSeedBlock(seeds, count, &block, [&](size_t first, size_t lanes) {
    for (size_t l = 0; l < lanes; ++l) fn(first + l, LaneWords(block, l));
  });
}

// The same walk with each lane's words staged contiguous first
// (StageSeedLanes, kSeedStageLanes lanes at a time), for engines that
// outlive the call and so copy every word at seeding: gathering 624
// words, each on its own block row, costs about twice the staging plus
// a contiguous copy.
// The view is again valid during the call only.
template <typename Fn>
void ForEachStagedSeedSequence(const uint64_t* seeds, size_t count,
                               Fn&& fn) {
  SeedBlock block;
  uint32_t stage[kSeedStageLanes * kEngineSeedWords];
  ForEachSeedBlock(seeds, count, &block, [&](size_t first, size_t lanes) {
    for (size_t l = 0; l < lanes; ++l) {
      if (l % kSeedStageLanes == 0) StageSeedLanes(block, l, stage);
      fn(first + l,
         SeedWords{stage + (l % kSeedStageLanes) * kEngineSeedWords});
    }
  });
}

}  // namespace mdrr

#endif  // MDRR_RNG_FAST_SEED_H_
