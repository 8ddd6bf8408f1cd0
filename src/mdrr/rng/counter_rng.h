// Counter-based pseudo-random generation: Philox4x32-10 (Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11 -- the Random123
// reference design, pinned here against its published test vectors).
//
// Unlike the stateful mt19937 engine of rng.h, a counter-based generator
// is a pure function block = Philox(counter, key): producing output N of
// a stream costs the same whether or not outputs 0..N-1 were ever
// computed. That gives the library two properties mt19937 + seed_seq
// cannot offer:
//
//   * O(1) stream jump -- CounterRng::Jump(n) is an integer add, so shard
//     boundaries cost nothing (no 624-word seed_seq expansion per shard
//     or per party);
//   * element addressing -- a kernel can hand element i of a stream its
//     OWN 128-bit block, making the output a pure function of
//     (seed, stream, i) that cannot depend on shard grain, thread count,
//     or chunking.
//
// Stream/element layout used by every counter-policy kernel in the
// library (RrMatrix::RandomizeRangeCounterInto, AliasLookupBlock and
// KeepUniformBlock, the batch engine, streaming ingest and the protocol
// session):
//
//   key     = { lo32(seed),    hi32(seed)    }
//   counter = { lo32(element), hi32(element), lo32(stream), hi32(stream) }
//
// and the four output words of element i's block are consumed as
//
//   unit = ((w1 << 32 | w0) >> 11) * 2^-53          -- a double in [0, 1)
//   raw  =  (w3 << 32 | w2)                         -- full-entropy u64
//   bounded(b) = floor(raw * b / 2^64)              -- integer in [0, b)
//
// The bounded draw is the fixed-budget form of Lemire's multiplicative
// range reduction: the rejection step is elided so every element consumes
// exactly one block regardless of data or branches (what makes the draw
// plan grain-proof), at the cost of a selection bias below b * 2^-64 --
// under 2^-33 for every domain the library can publish (codes are capped
// at 2^31 categories), orders of magnitude below the sampling noise of
// any finite release.
//
// The same four-words-per-block sequence read linearly is the sequential
// facade CounterRng (32-bit output words in block order), so an aligned
// scalar NextDouble-then-NextU64 pair replays exactly one element block.

#ifndef MDRR_RNG_COUNTER_RNG_H_
#define MDRR_RNG_COUNTER_RNG_H_

#include <cstddef>
#include <cstdint>

#include "mdrr/common/check.h"
#include "mdrr/rng/simd_body.h"

namespace mdrr {

// Which RNG backend a policy draws its per-record randomness from.
// Declared here (the lowest layer that knows both engines exist) so core
// and release can share the token without a dependency cycle.
enum class RngKind : uint8_t {
  // mt19937_64 (MersenneTwister64, bit-exact with std::mt19937_64)
  // seeded through the bit-exact seed_seq expansion of rng.h /
  // fast_seed.h. The default; every transcript committed before the
  // counter backend existed is an mt19937 transcript.
  kMt19937,
  // Philox4x32-10 counter streams (this header). Per-record output is a
  // pure function of (seed, stream, element) -- bit-identical at any
  // thread count AND any shard grain -- and stream jump is O(1).
  kPhilox,
};

// One 128-bit Philox output block.
struct PhiloxBlock {
  uint32_t w[4];
};

namespace counter_internal {

// Random123 reference constants for philox4x32.
constexpr uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr uint32_t kPhiloxW0 = 0x9E3779B9u;  // golden ratio
constexpr uint32_t kPhiloxW1 = 0xBB67AE85u;  // sqrt(3) - 1

// The exact split the AVX2 element fill converts a unit's
// x = (w1:w0) >> 11 < 2^53 with: x >> 32 under the exponent bits of 2^84
// reads as the double 2^84 + (x >> 32) * 2^32, the low 32 bits of x under
// those of 2^52 as 2^52 + (x mod 2^32), both exactly. Subtracting
// kUnitBias (exact) from the first and adding the second gives x exactly,
// so scaling by 2^-53 then gives PhiloxUnitFromU64's double.
constexpr uint64_t kUnitHiExponent = 0x4530000000000000u;  // 2^84
constexpr uint64_t kUnitLoExponent = 0x4330000000000000u;  // 2^52
constexpr double kUnitBias = 0x1.0p84 + 0x1.0p52;

}  // namespace counter_internal

// The 10-round philox4x32 bijection, exactly as specified by Random123
// (verified against its published kat_vectors in counter_rng_test.cc).
// Inline: the whole function is ~40 multiply/xor ops with no memory
// traffic, and the block kernels call it once per element.
inline PhiloxBlock Philox4x32(uint32_t c0, uint32_t c1, uint32_t c2,
                              uint32_t c3, uint32_t k0, uint32_t k1) {
  using counter_internal::kPhiloxM0;
  using counter_internal::kPhiloxM1;
  using counter_internal::kPhiloxW0;
  using counter_internal::kPhiloxW1;
  for (int round = 0; round < 10; ++round) {
    if (round > 0) {
      k0 += kPhiloxW0;
      k1 += kPhiloxW1;
    }
    const uint64_t product0 = static_cast<uint64_t>(kPhiloxM0) * c0;
    const uint64_t product1 = static_cast<uint64_t>(kPhiloxM1) * c2;
    const uint32_t hi0 = static_cast<uint32_t>(product0 >> 32);
    const uint32_t lo0 = static_cast<uint32_t>(product0);
    const uint32_t hi1 = static_cast<uint32_t>(product1 >> 32);
    const uint32_t lo1 = static_cast<uint32_t>(product1);
    const uint32_t n0 = hi1 ^ c1 ^ k0;
    const uint32_t n2 = hi0 ^ c3 ^ k1;
    c0 = n0;
    c1 = lo1;
    c2 = n2;
    c3 = lo0;
  }
  return PhiloxBlock{{c0, c1, c2, c3}};
}

// The block owned by element `element` of stream (seed, stream) -- the
// layout documented at the top of this header.
inline PhiloxBlock PhiloxElementBlock(uint64_t seed, uint64_t stream,
                                      uint64_t element) {
  return Philox4x32(static_cast<uint32_t>(element),
                    static_cast<uint32_t>(element >> 32),
                    static_cast<uint32_t>(stream),
                    static_cast<uint32_t>(stream >> 32),
                    static_cast<uint32_t>(seed),
                    static_cast<uint32_t>(seed >> 32));
}

// 53-bit canonical double in [0, 1) from a full-entropy u64 -- the same
// mantissa construction for the block kernels and the scalar facade.
inline double PhiloxUnitFromU64(uint64_t raw) {
  return static_cast<double>(raw >> 11) * 0x1.0p-53;
}

// Fixed-budget Lemire range reduction: an integer in [0, bound) from one
// full-entropy u64, branch-free (see the bias note at the top).
// Precondition: bound > 0.
inline uint64_t PhiloxBoundedFromRaw(uint64_t raw, uint64_t bound) {
  MDRR_DCHECK_GT(bound, 0u);
#if defined(__SIZEOF_INT128__)
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(raw) * bound) >> 64);
#else
  // Portable 64x64->high-64 via four 32-bit partial products.
  const uint64_t a_lo = raw & 0xFFFFFFFFu, a_hi = raw >> 32;
  const uint64_t b_lo = bound & 0xFFFFFFFFu, b_hi = bound >> 32;
  const uint64_t mid = a_hi * b_lo + ((a_lo * b_lo) >> 32);
  const uint64_t mid2 = a_lo * b_hi + (mid & 0xFFFFFFFFu);
  return a_hi * b_hi + (mid >> 32) + (mid2 >> 32);
#endif
}

// SoA fill of the per-element draws for elements
// [first, first + count) of stream (seed, stream): units[k] is element
// (first + k)'s unit double, raws[k] its full-entropy u64. Every
// counter-policy kernel draws through it. It runs on one of two bodies,
// picked once at run time, that write the same bytes:
//
//   * portable: one PhiloxElementBlock per element, about 8.8 ns per
//     element;
//   * AVX2: sixteen elements per step, two 8 x u32 groups whose rounds
//     interleave (one group alone waits on its multiplies), the unit
//     built through the exact split of counter_internal::kUnitBias;
//     about 3.5 ns per element. A step whose low counter word wraps
//     runs portable.
//
// (Medians of BM_PhiloxFillElementDraws/{0,1} in bench_micro_primitives,
// 512-element calls; 4-vCPU Xeon VM, GCC 12, Release.)
void PhiloxFillElementDraws(uint64_t seed, uint64_t stream, uint64_t first,
                            size_t count, double* units, uint64_t* raws);

// The same on one named body, so tests check and benchmarks time each
// one. Returns false without writing when the CPU or the compiler lacks
// the body's instructions.
bool PhiloxFillElementDrawsOn(SimdBody body, uint64_t seed, uint64_t stream,
                              uint64_t first, size_t count, double* units,
                              uint64_t* raws);

// Sequential facade over one philox stream: a stateful generator whose
// output word N is word N & 3 of block N >> 2 -- so it replays exactly
// the element-block sequence when consumed four words at a time, and any
// position is reachable in O(1). No library kernel draws through it: it
// is the scalar reference counter_rng_test checks the block kernels
// against.
//
// Not thread-safe (like Rng); copy freely -- state is 24 bytes.
class CounterRng {
 public:
  explicit CounterRng(uint64_t seed, uint64_t stream = 0)
      : seed_(seed), stream_(stream) {}

  uint64_t seed() const { return seed_; }
  uint64_t stream() const { return stream_; }

  // Index of the next 32-bit output word.
  uint64_t position() const { return position_; }

  // Skips n 32-bit output words in O(1). (Jump(4 * k) advances exactly k
  // element blocks.)
  void Jump(uint64_t n) { position_ += n; }

  // The next 32-bit word of the stream.
  uint32_t NextU32() {
    const uint64_t block = position_ >> 2;
    if (block != cached_block_ || !cached_valid_) {
      words_ = PhiloxElementBlock(seed_, stream_, block);
      cached_block_ = block;
      cached_valid_ = true;
    }
    return words_.w[position_++ & 3];
  }

  // Two words, low word first (matches the element-block layout).
  uint64_t NextU64() {
    const uint32_t lo = NextU32();
    const uint32_t hi = NextU32();
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }

  // Canonical double in [0, 1), 53 bits.
  double NextDouble() { return PhiloxUnitFromU64(NextU64()); }

  // Uniform on {0, ..., bound - 1}; consumes one u64 (fixed budget, same
  // reduction as the block kernels). Precondition: bound > 0.
  uint64_t BoundedU64(uint64_t bound) {
    return PhiloxBoundedFromRaw(NextU64(), bound);
  }

 private:
  uint64_t seed_;
  uint64_t stream_;
  uint64_t position_ = 0;
  uint64_t cached_block_ = 0;
  bool cached_valid_ = false;
  PhiloxBlock words_{{0, 0, 0, 0}};
};

}  // namespace mdrr

#endif  // MDRR_RNG_COUNTER_RNG_H_
