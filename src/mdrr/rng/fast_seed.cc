#include "mdrr/rng/fast_seed.h"


namespace mdrr {

namespace {

// Parameters of [rand.util.seedseq] generate() for an n = 624 request
// with s = 4 entropy words: t = 11, p = 306, q = 317, m = max(s+1, n).
constexpr size_t kN = kEngineSeedWords;
constexpr size_t kP = 306;
constexpr size_t kQ = 317;
// Every word of the request starts as this fill word.
constexpr uint32_t kFill = 0x8b8b8b8bu;

inline uint32_t Mix(uint32_t x) { return x ^ (x >> 27); }

}  // namespace

FourWordSeedSeq::FourWordSeedSeq(uint64_t seed) {
  uint64_t state = seed;
  // Braced seed_seq construction evaluates left to right; keep that order.
  for (uint32_t& word : entropy_) {
    word = static_cast<uint32_t>(SplitMix64Next(state));
  }
}

void FourWordSeedSeq::GenerateEngineWords(
    uint32_t out[kEngineSeedWords]) const {
  // The recurrence runs in place in the output.
  uint32_t* b = out;
  for (size_t i = 0; i < kN; ++i) b[i] = kFill;

  // First pass: b[k+p] += r1, b[k+q] += r2, b[k] = r2. b[(k-1) % n] is
  // always the previous iteration's r2 (no other write can land on it in
  // between: k+p and k+q are never congruent to k-1 mod n), so it rides
  // in `prev` instead of a load.
  uint32_t prev = b[kN - 1];
  for (size_t k = 0; k <= 4; ++k) {  // Entropy-carrying head.
    uint32_t r1 = 1664525u * Mix(b[k] ^ b[k + kP] ^ prev);
    uint32_t r2 =
        r1 + (k == 0 ? 4u : static_cast<uint32_t>(k) + entropy_[k - 1]);
    b[k + kP] += r1;
    b[k + kQ] += r2;
    b[k] = r2;
    prev = r2;
  }
  for (size_t k = 5; k < kN - kQ; ++k) {  // Neither index wrapped.
    uint32_t r1 = 1664525u * Mix(b[k] ^ b[k + kP] ^ prev);
    uint32_t r2 = r1 + static_cast<uint32_t>(k);
    b[k + kP] += r1;
    b[k + kQ] += r2;
    b[k] = r2;
    prev = r2;
  }
  for (size_t k = kN - kQ; k < kN - kP; ++k) {  // k+q wrapped.
    uint32_t r1 = 1664525u * Mix(b[k] ^ b[k + kP] ^ prev);
    uint32_t r2 = r1 + static_cast<uint32_t>(k);
    b[k + kP] += r1;
    b[k + kQ - kN] += r2;
    b[k] = r2;
    prev = r2;
  }
  for (size_t k = kN - kP; k < kN; ++k) {  // Both wrapped.
    uint32_t r1 = 1664525u * Mix(b[k] ^ b[k + kP - kN] ^ prev);
    uint32_t r2 = r1 + static_cast<uint32_t>(k);
    b[k + kP - kN] += r1;
    b[k + kQ - kN] += r2;
    b[k] = r2;
    prev = r2;
  }

  // Second pass: b[k+p] ^= r3, b[k+q] ^= r4, b[k] = r4, with k counting
  // m..m+n-1 in standard terms (k mod n below). `prev` hands over from
  // the first pass: b[n-1] was last assigned at first-pass k = n-1.
  for (size_t k = 0; k < kN - kQ; ++k) {
    uint32_t r3 = 1566083941u * Mix(b[k] + b[k + kP] + prev);
    uint32_t r4 = r3 - static_cast<uint32_t>(k);
    b[k + kP] ^= r3;
    b[k + kQ] ^= r4;
    b[k] = r4;
    prev = r4;
  }
  for (size_t k = kN - kQ; k < kN - kP; ++k) {
    uint32_t r3 = 1566083941u * Mix(b[k] + b[k + kP] + prev);
    uint32_t r4 = r3 - static_cast<uint32_t>(k);
    b[k + kP] ^= r3;
    b[k + kQ - kN] ^= r4;
    b[k] = r4;
    prev = r4;
  }
  for (size_t k = kN - kP; k < kN; ++k) {
    uint32_t r3 = 1566083941u * Mix(b[k] + b[k + kP - kN] + prev);
    uint32_t r4 = r3 - static_cast<uint32_t>(k);
    b[k + kP - kN] ^= r3;
    b[k + kQ - kN] ^= r4;
    b[k] = r4;
    prev = r4;
  }
}

namespace {

// Lane vectors over SeedBlock rows (may_alias: they load and store the
// block's uint32_t words). Both bodies step four U32x8 per word.
typedef uint32_t U32x8 __attribute__((vector_size(32), __may_alias__));
// Unaligned stores into a caller's staging buffer.
typedef uint32_t U32x8u
    __attribute__((vector_size(32), __may_alias__, __aligned__(4)));
static_assert(kSeedLanes % 8 == 0, "lanes come in whole 8 x u32 vectors");
static_assert(kSeedLanes % kSeedStageLanes == 0 && kSeedStageLanes == 8,
              "a stage is one 8 x 8 transpose tile");

// Everything below is always_inline so that each target body compiles
// the whole recurrence for its own ISA.
#define MDRR_SEED_INLINE __attribute__((always_inline)) inline

// A block's words as rows of kVectors lane vectors.
constexpr size_t kWidth = sizeof(U32x8) / sizeof(uint32_t);
constexpr size_t kVectors = kSeedLanes / kWidth;
using Rows = U32x8 (*)[kVectors];

// First-pass step k: b[kp] += r1, b[kq] += r2, b[k] = r2. The block is
// never filled: a row no earlier step has written would hold the fill
// word, so the step uses kFill for it instead of a load. kFreshK,
// kFreshP and kFreshQ say which of rows k, kp and kq that is.
template <bool kFreshK, bool kFreshP, bool kFreshQ>
MDRR_SEED_INLINE void Pass1Step(Rows b, U32x8* prev, size_t k, size_t kp,
                                size_t kq, const U32x8* extra) {
  const U32x8 fill = U32x8{} + kFill;
  for (size_t h = 0; h < kVectors; ++h) {
    const U32x8 bk = kFreshK ? fill : b[k][h];
    const U32x8 bp = kFreshP ? fill : b[kp][h];
    const U32x8 x = bk ^ bp ^ prev[h];
    const U32x8 r1 = 1664525u * (x ^ (x >> 27));
    const U32x8 r2 = r1 + extra[h];
    b[kp][h] = bp + r1;
    b[kq][h] = (kFreshQ ? fill : b[kq][h]) + r2;
    b[k][h] = r2;
    prev[h] = r2;
  }
}

// First-pass steps k in [begin, end), with the extra term k. The index
// vector is carried and incremented rather than splat from k at every
// step, which saves a broadcast per step.
template <bool kFreshK, bool kFreshP, bool kFreshQ>
MDRR_SEED_INLINE void Pass1Range(Rows b, U32x8* prev, size_t begin,
                                 size_t end, size_t wrap_p, size_t wrap_q) {
  U32x8 index = U32x8{} + static_cast<uint32_t>(begin);
  for (size_t k = begin; k < end; ++k, index += 1u) {
    U32x8 extra[kVectors];
    for (U32x8& v : extra) v = index;
    Pass1Step<kFreshK, kFreshP, kFreshQ>(b, prev, k, k + kP - wrap_p,
                                         k + kQ - wrap_q, extra);
  }
}

// Second-pass steps k in [begin, end): b[kp] ^= r3, b[kq] ^= r4,
// b[k] = r4.
MDRR_SEED_INLINE void Pass2Range(Rows b, U32x8* prev, size_t begin,
                                 size_t end, size_t wrap_p, size_t wrap_q) {
  U32x8 index = U32x8{} + static_cast<uint32_t>(begin);
  for (size_t k = begin; k < end; ++k, index += 1u) {
    const size_t kp = k + kP - wrap_p, kq = k + kQ - wrap_q;
    for (size_t h = 0; h < kVectors; ++h) {
      const U32x8 x = b[k][h] + b[kp][h] + prev[h];
      const U32x8 r3 = 1566083941u * (x ^ (x >> 27));
      const U32x8 r4 = r3 - index;
      b[kp][h] ^= r3;
      b[kq][h] ^= r4;
      b[k][h] = r4;
      prev[h] = r4;
    }
  }
}

// The GenerateEngineWords recurrence with every scalar replaced by a row
// of lane vectors, over the same index ranges. No step has cross-lane
// data flow, so each lane computes exactly its scalar expansion.
MDRR_SEED_INLINE void SeedBlockBody(const uint64_t* seeds, SeedBlock* block) {
  const Rows b = reinterpret_cast<Rows>(block->words);
  U32x8 entropy[4][kVectors];
  for (size_t l = 0; l < kSeedLanes; ++l) {
    uint64_t state = seeds[l];
    for (size_t w = 0; w < 4; ++w) {
      entropy[w][l / kWidth][l % kWidth] =
          static_cast<uint32_t>(SplitMix64Next(state));
    }
  }
  U32x8 prev[kVectors];
  for (U32x8& v : prev) v = U32x8{} + kFill;

  // Before step k, row k has been written iff k >= p (as step k-p's kp)
  // or k >= q; row k+p iff k >= q-p = 11 (as step k-11's kq); row k+q
  // (mod n) iff k >= n-q = 307 (as row k+q-n's own step). Every row is
  // written at its own step, so no fill word survives the first pass.
  U32x8 extra[kVectors];
  for (U32x8& v : extra) v = U32x8{} + 4u;
  Pass1Step<true, true, true>(b, prev, 0, kP, kQ, extra);
  for (size_t k = 1; k <= 4; ++k) {
    for (size_t h = 0; h < kVectors; ++h) {
      extra[h] = entropy[k - 1][h] + static_cast<uint32_t>(k);
    }
    Pass1Step<true, true, true>(b, prev, k, k + kP, k + kQ, extra);
  }
  static_assert(kQ - kP == 11 && kN - kQ == 307 && kN - kP == 318,
                "the ranges below split at these step numbers");
  Pass1Range<true, true, true>(b, prev, 5, 11, 0, 0);
  Pass1Range<true, false, true>(b, prev, 11, kP, 0, 0);
  Pass1Range<false, false, true>(b, prev, kP, kN - kQ, 0, 0);
  // k+q wrapped, then both wrapped.
  Pass1Range<false, false, false>(b, prev, kN - kQ, kN - kP, 0, kN);
  Pass1Range<false, false, false>(b, prev, kN - kP, kN, kN, kN);

  Pass2Range(b, prev, 0, kN - kQ, 0, 0);
  Pass2Range(b, prev, kN - kQ, kN - kP, 0, kN);
  Pass2Range(b, prev, kN - kP, kN, kN, kN);
}

// out[l][j] = r_j[l]: rows of words i..i+7 in, one vector per lane out
// (unpack 32-bit pairs, then 64-bit pairs, then swap 128-bit halves).
MDRR_SEED_INLINE void Transpose8x8(const U32x8* r, U32x8 out[8]) {
#define MDRR_LO32(a, b) __builtin_shufflevector(a, b, 0, 8, 1, 9, 4, 12, 5, 13)
#define MDRR_HI32(a, b) \
  __builtin_shufflevector(a, b, 2, 10, 3, 11, 6, 14, 7, 15)
#define MDRR_LO64(a, b) __builtin_shufflevector(a, b, 0, 1, 8, 9, 4, 5, 12, 13)
#define MDRR_HI64(a, b) \
  __builtin_shufflevector(a, b, 2, 3, 10, 11, 6, 7, 14, 15)
#define MDRR_LO128(a, b) \
  __builtin_shufflevector(a, b, 0, 1, 2, 3, 8, 9, 10, 11)
#define MDRR_HI128(a, b) \
  __builtin_shufflevector(a, b, 4, 5, 6, 7, 12, 13, 14, 15)
  const U32x8 t0 = MDRR_LO32(r[0], r[1]), t1 = MDRR_HI32(r[0], r[1]);
  const U32x8 t2 = MDRR_LO32(r[2], r[3]), t3 = MDRR_HI32(r[2], r[3]);
  const U32x8 t4 = MDRR_LO32(r[4], r[5]), t5 = MDRR_HI32(r[4], r[5]);
  const U32x8 t6 = MDRR_LO32(r[6], r[7]), t7 = MDRR_HI32(r[6], r[7]);
  const U32x8 u0 = MDRR_LO64(t0, t2), u1 = MDRR_HI64(t0, t2);
  const U32x8 u2 = MDRR_LO64(t1, t3), u3 = MDRR_HI64(t1, t3);
  const U32x8 u4 = MDRR_LO64(t4, t6), u5 = MDRR_HI64(t4, t6);
  const U32x8 u6 = MDRR_LO64(t5, t7), u7 = MDRR_HI64(t5, t7);
  out[0] = MDRR_LO128(u0, u4);
  out[1] = MDRR_LO128(u1, u5);
  out[2] = MDRR_LO128(u2, u6);
  out[3] = MDRR_LO128(u3, u7);
  out[4] = MDRR_HI128(u0, u4);
  out[5] = MDRR_HI128(u1, u5);
  out[6] = MDRR_HI128(u2, u6);
  out[7] = MDRR_HI128(u3, u7);
#undef MDRR_LO32
#undef MDRR_HI32
#undef MDRR_LO64
#undef MDRR_HI64
#undef MDRR_LO128
#undef MDRR_HI128
}

// Lane-major staging of lanes first..first+7, word by word. Without
// 256-bit registers GCC builds Transpose8x8's shuffles lane by lane and
// the plain loop stages three times faster (~0.5 against ~1.5 us per
// seed); with them, GCC vectorizes the loop poorly and the transpose
// wins (~0.18 against ~1.0 us).
MDRR_SEED_INLINE void StagePortable(const SeedBlock& block, size_t first,
                                    uint32_t* out) {
  for (size_t i = 0; i < kN; ++i) {
    for (size_t l = 0; l < kSeedStageLanes; ++l) {
      out[l * kN + i] = block.words[i][first + l];
    }
  }
}

// The same, 8 words x 8 lanes at a time.
MDRR_SEED_INLINE void StageTransposed(const SeedBlock& block, size_t first,
                                      uint32_t* out) {
  static_assert(kN % 8 == 0, "the transpose takes whole 8-word groups");
  for (size_t i = 0; i < kN; i += 8) {
    U32x8 rows[8], lanes[8];
    for (size_t r = 0; r < 8; ++r) {
      rows[r] = *reinterpret_cast<const U32x8*>(&block.words[i + r][first]);
    }
    Transpose8x8(rows, lanes);
    for (size_t l = 0; l < 8; ++l) {
      *reinterpret_cast<U32x8u*>(out + l * kN + i) = lanes[l];
    }
  }
}

#undef MDRR_SEED_INLINE

#ifdef MDRR_RNG_X86
__attribute__((target("avx2"))) void SeedBlockAvx2(const uint64_t* seeds,
                                                   SeedBlock* block) {
  SeedBlockBody(seeds, block);
}

__attribute__((target("avx2"))) void StageAvx2(const SeedBlock& block,
                                               size_t first, uint32_t* out) {
  StageTransposed(block, first, out);
}
#endif

}  // namespace

bool GenerateSeedBlockOn(SimdBody body, const uint64_t seeds[kSeedLanes],
                         SeedBlock* block) {
  switch (body) {
    case SimdBody::kPortable:
      SeedBlockBody(seeds, block);
      return true;
#ifdef MDRR_RNG_X86
    case SimdBody::kAvx2:
      if (!HaveAvx2()) return false;
      SeedBlockAvx2(seeds, block);
      return true;
#endif
    default:
      return false;
  }
}

bool StageSeedLanesOn(SimdBody body, const SeedBlock& block, size_t first,
                      uint32_t* out) {
  switch (body) {
    case SimdBody::kPortable:
      StagePortable(block, first, out);
      return true;
#ifdef MDRR_RNG_X86
    case SimdBody::kAvx2:
      if (!HaveAvx2()) return false;
      StageAvx2(block, first, out);
      return true;
#endif
    default:
      return false;
  }
}

void GenerateSeedBlock(const uint64_t seeds[kSeedLanes], SeedBlock* block) {
  GenerateSeedBlockOn(BestSimdBody(), seeds, block);
}

void StageSeedLanes(const SeedBlock& block, size_t first, uint32_t* out) {
  StageSeedLanesOn(BestSimdBody(), block, first, out);
}

}  // namespace mdrr
