#include "mdrr/rng/counter_rng.h"

#ifdef MDRR_RNG_X86
#include <immintrin.h>
#endif

namespace mdrr {
namespace {

void FillPortable(uint64_t seed, uint64_t stream, uint64_t first,
                  size_t count, double* units, uint64_t* raws) {
  for (size_t k = 0; k < count; ++k) {
    const PhiloxBlock block = PhiloxElementBlock(seed, stream, first + k);
    units[k] = PhiloxUnitFromU64(
        (static_cast<uint64_t>(block.w[1]) << 32) | block.w[0]);
    raws[k] = (static_cast<uint64_t>(block.w[3]) << 32) | block.w[2];
  }
}

#ifdef MDRR_RNG_X86
// Everything the AVX2 body calls is always_inline under its target, so
// no __m256i crosses a call boundary.
#define MDRR_PHILOX_AVX2 __attribute__((target("avx2"), always_inline)) inline

using counter_internal::kPhiloxM0;
using counter_internal::kPhiloxM1;
using counter_internal::kPhiloxW0;
using counter_internal::kPhiloxW1;

constexpr int kRounds = 10;
// Elements per 8 x u32 group. A group's ten rounds are one dependent
// chain of multiplies, so each step runs two groups side by side.
constexpr size_t kGroupLanes = 8;
constexpr size_t kStepLanes = 2 * kGroupLanes;

// Eight blocks' words, word-major: c[j] lane l is word j of block l.
struct Group {
  __m256i c[4];
};

// Every lane's 32 x 32 -> 64 product a * m, split into its high and low
// words. _mm256_mul_epu32 multiplies the even lanes; the odd lanes go
// through it shifted down, and the two halves are blended back.
MDRR_PHILOX_AVX2 void MulHiLo(__m256i a, __m256i m, __m256i* hi,
                              __m256i* lo) {
  const __m256i even = _mm256_mul_epu32(a, m);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), m);
  *lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
  *hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
}

// One Philox4x32 round (Philox4x32 in the header) on all eight lanes.
MDRR_PHILOX_AVX2 void Round(Group* g, __m256i k0, __m256i k1) {
  __m256i hi0, lo0, hi1, lo1;
  MulHiLo(g->c[0], _mm256_set1_epi32(static_cast<int>(kPhiloxM0)), &hi0,
          &lo0);
  MulHiLo(g->c[2], _mm256_set1_epi32(static_cast<int>(kPhiloxM1)), &hi1,
          &lo1);
  g->c[0] = _mm256_xor_si256(_mm256_xor_si256(hi1, g->c[1]), k0);
  g->c[1] = lo1;
  g->c[2] = _mm256_xor_si256(_mm256_xor_si256(hi0, g->c[3]), k1);
  g->c[3] = lo0;
}

// Four unit doubles, one element per 64-bit lane, from the halves of
// x = (w1:w0) >> 11 under their exponent words: `hi` holds x >> 32 under
// kUnitHiExponent's, `lo` the low 32 bits under kUnitLoExponent's (the
// exact split documented at counter_internal::kUnitBias).
MDRR_PHILOX_AVX2 __m256d UnitsFromHalves(__m256i hi, __m256i lo) {
  const __m256d x = _mm256_add_pd(
      _mm256_sub_pd(_mm256_castsi256_pd(hi),
                    _mm256_set1_pd(counter_internal::kUnitBias)),
      _mm256_castsi256_pd(lo));
  return _mm256_mul_pd(x, _mm256_set1_pd(0x1.0p-53));
}

// Writes the group's eight unit doubles and raw words. The unpacks work
// within 128-bit halves, so the `a` vectors hold elements {0, 1, 4, 5}
// and the `b` vectors {2, 3, 6, 7} until the final permutes.
MDRR_PHILOX_AVX2 void StoreGroup(const Group& g, double* units,
                                 uint64_t* raws) {
  using counter_internal::kUnitHiExponent;
  using counter_internal::kUnitLoExponent;
  const __m256i hi = _mm256_srli_epi32(g.c[1], 11);
  const __m256i lo = _mm256_or_si256(_mm256_slli_epi32(g.c[1], 21),
                                     _mm256_srli_epi32(g.c[0], 11));
  const __m256i hi_exponent =
      _mm256_set1_epi32(static_cast<int>(kUnitHiExponent >> 32));
  const __m256i lo_exponent =
      _mm256_set1_epi32(static_cast<int>(kUnitLoExponent >> 32));
  const __m256d unit_a =
      UnitsFromHalves(_mm256_unpacklo_epi32(hi, hi_exponent),
                      _mm256_unpacklo_epi32(lo, lo_exponent));
  const __m256d unit_b =
      UnitsFromHalves(_mm256_unpackhi_epi32(hi, hi_exponent),
                      _mm256_unpackhi_epi32(lo, lo_exponent));
  _mm256_storeu_pd(units, _mm256_permute2f128_pd(unit_a, unit_b, 0x20));
  _mm256_storeu_pd(units + 4, _mm256_permute2f128_pd(unit_a, unit_b, 0x31));
  const __m256i raw_a = _mm256_unpacklo_epi32(g.c[2], g.c[3]);
  const __m256i raw_b = _mm256_unpackhi_epi32(g.c[2], g.c[3]);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(raws),
                      _mm256_permute2x128_si256(raw_a, raw_b, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(raws + 4),
                      _mm256_permute2x128_si256(raw_a, raw_b, 0x31));
}

// Sixteen elements per step in two groups. A step whose low counter word
// would wrap inside it, and the final partial step, run FillPortable.
__attribute__((target("avx2"))) void FillAvx2(uint64_t seed, uint64_t stream,
                                              uint64_t first, size_t count,
                                              double* units, uint64_t* raws) {
  __m256i keys[kRounds][2];
  uint32_t k0 = static_cast<uint32_t>(seed);
  uint32_t k1 = static_cast<uint32_t>(seed >> 32);
  for (int round = 0; round < kRounds; ++round) {
    keys[round][0] = _mm256_set1_epi32(static_cast<int>(k0));
    keys[round][1] = _mm256_set1_epi32(static_cast<int>(k1));
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
  const __m256i c2 = _mm256_set1_epi32(static_cast<int>(stream));
  const __m256i c3 = _mm256_set1_epi32(static_cast<int>(stream >> 32));
  const __m256i lane_a = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i lane_b = _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15);
  size_t k = 0;
  for (; k + kStepLanes <= count; k += kStepLanes) {
    const uint64_t element = first + k;
    const uint32_t low = static_cast<uint32_t>(element);
    if (low > UINT32_MAX - (kStepLanes - 1)) {
      FillPortable(seed, stream, element, kStepLanes, units + k, raws + k);
      continue;
    }
    const __m256i c0 = _mm256_set1_epi32(static_cast<int>(low));
    const __m256i c1 = _mm256_set1_epi32(static_cast<int>(element >> 32));
    Group a{{_mm256_add_epi32(c0, lane_a), c1, c2, c3}};
    Group b{{_mm256_add_epi32(c0, lane_b), c1, c2, c3}};
    for (int round = 0; round < kRounds; ++round) {
      Round(&a, keys[round][0], keys[round][1]);
      Round(&b, keys[round][0], keys[round][1]);
    }
    StoreGroup(a, units + k, raws + k);
    StoreGroup(b, units + k + kGroupLanes, raws + k + kGroupLanes);
  }
  FillPortable(seed, stream, first + k, count - k, units + k, raws + k);
}

#undef MDRR_PHILOX_AVX2
#endif  // MDRR_RNG_X86

}  // namespace

bool PhiloxFillElementDrawsOn(SimdBody body, uint64_t seed, uint64_t stream,
                              uint64_t first, size_t count, double* units,
                              uint64_t* raws) {
  switch (body) {
    case SimdBody::kPortable:
      FillPortable(seed, stream, first, count, units, raws);
      return true;
#ifdef MDRR_RNG_X86
    case SimdBody::kAvx2:
      if (!HaveAvx2()) return false;
      FillAvx2(seed, stream, first, count, units, raws);
      return true;
#endif
    default:
      return false;
  }
}

void PhiloxFillElementDraws(uint64_t seed, uint64_t stream, uint64_t first,
                            size_t count, double* units, uint64_t* raws) {
  PhiloxFillElementDrawsOn(BestSimdBody(), seed, stream, first, count, units,
                           raws);
}

}  // namespace mdrr
