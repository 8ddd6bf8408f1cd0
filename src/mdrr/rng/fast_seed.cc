#include "mdrr/rng/fast_seed.h"

#include <cstring>

namespace mdrr {

namespace {

// Parameters of [rand.util.seedseq] generate() for an n = 624 request
// with s = 4 entropy words: t = 11, p = 306, q = 317, m = max(s+1, n).
constexpr size_t kN = kEngineSeedWords;
constexpr size_t kP = 306;
constexpr size_t kQ = 317;

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
  for (size_t i = 0; i < kN; ++i) b[i] = 0x8b8b8b8bu;

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

// Eight lanes of 32-bit words; a block step works on two of them.
typedef uint32_t U32x8 __attribute__((vector_size(32)));
constexpr size_t kHalves = kSeedLanes / 8;
static_assert(kSeedLanes % 8 == 0, "lanes come in whole 8 x u32 vectors");

// The block's state: b[i][h] holds word i of lanes 8h..8h+7.
typedef U32x8 BlockWords[kN][kHalves];

// Everything below is always_inline so that each target body compiles
// the whole recurrence for its own ISA.
#define MDRR_SEED_INLINE __attribute__((always_inline)) inline

// First-pass step k: b[kp] += r1, b[kq] += r2, b[k] = r2.
MDRR_SEED_INLINE void Pass1Step(BlockWords& b, U32x8* prev, size_t k,
                                size_t kp, size_t kq, const U32x8* extra) {
  for (size_t h = 0; h < kHalves; ++h) {
    const U32x8 x = b[k][h] ^ b[kp][h] ^ prev[h];
    const U32x8 r1 = 1664525u * (x ^ (x >> 27));
    const U32x8 r2 = r1 + extra[h];
    b[kp][h] += r1;
    b[kq][h] += r2;
    b[k][h] = r2;
    prev[h] = r2;
  }
}

MDRR_SEED_INLINE void Pass1IndexStep(BlockWords& b, U32x8* prev, size_t k,
                                     size_t kp, size_t kq) {
  U32x8 index[kHalves];
  for (size_t h = 0; h < kHalves; ++h) {
    index[h] = U32x8{} + static_cast<uint32_t>(k);
  }
  Pass1Step(b, prev, k, kp, kq, index);
}

// Second-pass step k: b[kp] ^= r3, b[kq] ^= r4, b[k] = r4.
MDRR_SEED_INLINE void Pass2Step(BlockWords& b, U32x8* prev, size_t k,
                                size_t kp, size_t kq) {
  for (size_t h = 0; h < kHalves; ++h) {
    const U32x8 x = b[k][h] + b[kp][h] + prev[h];
    const U32x8 r3 = 1566083941u * (x ^ (x >> 27));
    const U32x8 r4 = r3 - static_cast<uint32_t>(k);
    b[kp][h] ^= r3;
    b[kq][h] ^= r4;
    b[k][h] = r4;
    prev[h] = r4;
  }
}

// out[l][j] = r_j[l]: rows of words i..i+7 in, one vector per lane out
// (unpack 32-bit pairs, then 64-bit pairs, then swap 128-bit halves).
MDRR_SEED_INLINE void Transpose8x8(const U32x8& r0, const U32x8& r1,
                                   const U32x8& r2, const U32x8& r3,
                                   const U32x8& r4, const U32x8& r5,
                                   const U32x8& r6, const U32x8& r7,
                                   U32x8 out[8]) {
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
  const U32x8 t0 = MDRR_LO32(r0, r1), t1 = MDRR_HI32(r0, r1);
  const U32x8 t2 = MDRR_LO32(r2, r3), t3 = MDRR_HI32(r2, r3);
  const U32x8 t4 = MDRR_LO32(r4, r5), t5 = MDRR_HI32(r4, r5);
  const U32x8 t6 = MDRR_LO32(r6, r7), t7 = MDRR_HI32(r6, r7);
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

// The GenerateEngineWords recurrence with every scalar replaced by a pair
// of lane vectors, over the same index ranges. No step has cross-lane
// data flow, so each lane computes exactly its scalar expansion.
MDRR_SEED_INLINE void SeedBlockBody(const uint64_t* seeds, uint32_t* out) {
  alignas(32) BlockWords b;
  U32x8 entropy[4][kHalves];
  for (size_t l = 0; l < kSeedLanes; ++l) {
    uint64_t state = seeds[l];
    for (size_t w = 0; w < 4; ++w) {
      entropy[w][l / 8][l % 8] = static_cast<uint32_t>(SplitMix64Next(state));
    }
  }
  const U32x8 fill = U32x8{} + 0x8b8b8b8bu;
  for (size_t i = 0; i < kN; ++i) {
    for (size_t h = 0; h < kHalves; ++h) b[i][h] = fill;
  }
  U32x8 prev[kHalves];
  for (size_t h = 0; h < kHalves; ++h) prev[h] = fill;

  U32x8 extra[kHalves];
  for (size_t h = 0; h < kHalves; ++h) extra[h] = U32x8{} + 4u;
  Pass1Step(b, prev, 0, kP, kQ, extra);
  for (size_t k = 1; k <= 4; ++k) {
    for (size_t h = 0; h < kHalves; ++h) {
      extra[h] = entropy[k - 1][h] + static_cast<uint32_t>(k);
    }
    Pass1Step(b, prev, k, k + kP, k + kQ, extra);
  }
  for (size_t k = 5; k < kN - kQ; ++k) {
    Pass1IndexStep(b, prev, k, k + kP, k + kQ);
  }
  for (size_t k = kN - kQ; k < kN - kP; ++k) {
    Pass1IndexStep(b, prev, k, k + kP, k + kQ - kN);
  }
  for (size_t k = kN - kP; k < kN; ++k) {
    Pass1IndexStep(b, prev, k, k + kP - kN, k + kQ - kN);
  }

  for (size_t k = 0; k < kN - kQ; ++k) Pass2Step(b, prev, k, k + kP, k + kQ);
  for (size_t k = kN - kQ; k < kN - kP; ++k) {
    Pass2Step(b, prev, k, k + kP, k + kQ - kN);
  }
  for (size_t k = kN - kP; k < kN; ++k) {
    Pass2Step(b, prev, k, k + kP - kN, k + kQ - kN);
  }

  // Lane-major output: transpose 8 words x 8 lanes at a time.
  static_assert(kN % 8 == 0, "the transpose takes whole 8-word groups");
  for (size_t i = 0; i < kN; i += 8) {
    for (size_t h = 0; h < kHalves; ++h) {
      U32x8 lanes[8];
      Transpose8x8(b[i + 0][h], b[i + 1][h], b[i + 2][h], b[i + 3][h],
                   b[i + 4][h], b[i + 5][h], b[i + 6][h], b[i + 7][h],
                   lanes);
      for (size_t l = 0; l < 8; ++l) {
        std::memcpy(out + (8 * h + l) * kN + i, &lanes[l], sizeof(U32x8));
      }
    }
  }
}

#undef MDRR_SEED_INLINE

}  // namespace

void GenerateSeedBlockPortable(const uint64_t seeds[kSeedLanes],
                               uint32_t* out) {
  SeedBlockBody(seeds, out);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
namespace {

__attribute__((target("avx2"))) void SeedBlockAvx2(const uint64_t* seeds,
                                                   uint32_t* out) {
  SeedBlockBody(seeds, out);
}

bool HaveAvx2() {
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
}

}  // namespace

bool GenerateSeedBlockAvx2(const uint64_t seeds[kSeedLanes], uint32_t* out) {
  if (!HaveAvx2()) return false;
  SeedBlockAvx2(seeds, out);
  return true;
}
#else
bool GenerateSeedBlockAvx2(const uint64_t* /*seeds*/, uint32_t* /*out*/) {
  return false;
}
#endif

void GenerateSeedBlock(const uint64_t seeds[kSeedLanes], uint32_t* out) {
  if (!GenerateSeedBlockAvx2(seeds, out)) {
    GenerateSeedBlockPortable(seeds, out);
  }
}

}  // namespace mdrr
