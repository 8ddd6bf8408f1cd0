#include "mdrr/rng/alias_sampler.h"

#include <limits>

#include "mdrr/common/check.h"
#include "mdrr/rng/simd_body.h"

#ifdef MDRR_RNG_X86
#include <immintrin.h>
#endif

namespace mdrr {
namespace {

// Reference lookup; also the tail loop of the vector body. The vector
// body reproduces exactly this arithmetic (same bucket derivation,
// same IEEE `<` on the same threshold value), so the two are bitwise
// interchangeable.
void AliasLookupPortable(const double* thresholds, const uint32_t* aliases,
                         uint64_t bound, const uint32_t* rows,
                         const double* units, const uint64_t* raws,
                         size_t count, uint32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    const uint32_t bucket =
        static_cast<uint32_t>(PhiloxBoundedFromRaw(raws[k], bound));
    const size_t idx =
        (rows != nullptr ? static_cast<size_t>(rows[k]) * bound : 0) + bucket;
    out[k] = units[k] < thresholds[idx] ? bucket : aliases[idx];
  }
}

// Reference keep-or-uniform lookup; also the tail loop of the vector
// body. A mask, not `take ? bucket : code`: GCC 12 compiles the
// conditional to a jump on the random take bit.
void KeepUniformPortable(const uint32_t* codes, const double* units,
                         const uint64_t* raws, double alpha, uint64_t bound,
                         size_t count, uint32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    const uint32_t bucket =
        static_cast<uint32_t>(PhiloxBoundedFromRaw(raws[k], bound));
    const uint32_t mask = 0u - static_cast<uint32_t>(units[k] < alpha);
    out[k] = (bucket & mask) | (codes[k] & ~mask);
  }
}

#ifdef MDRR_RNG_X86
// Everything the AVX2 bodies call is always_inline under their target, so
// no __m256i crosses a call boundary.
#define MDRR_ALIAS_AVX2 __attribute__((target("avx2"), always_inline)) inline

// PhiloxBoundedFromRaw(x, b) in each 64-bit lane, for b < 2^32 (every
// lane of `b` holds b). With x = x_hi * 2^32 + x_lo,
//   hi64(x * b) = (x_hi * b + (x_lo * b >> 32)) >> 32
// exactly, and the sum stays below 2^64: x_hi * b <= (2^32 - 1)^2 and
// the carry term is below 2^32. The result lies in [0, b), in each
// lane's low 32 bits.
MDRR_ALIAS_AVX2 __m256i BoundedFromRaws(__m256i x, __m256i b) {
  const __m256i lo_product = _mm256_mul_epu32(x, b);
  const __m256i hi_product = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), b);
  return _mm256_srli_epi64(
      _mm256_add_epi64(hi_product, _mm256_srli_epi64(lo_product, 32)), 32);
}

// The low 32 bits of each 64-bit lane, in lane order.
MDRR_ALIAS_AVX2 __m128i NarrowLanes(__m256i v) {
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      v, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)));
}

// Four lanes per step: buckets from BoundedFromRaws, the threshold/alias
// loads as gathers on 64-bit indices, and the accept/alias choice a
// branch-free blend keyed off the compare mask narrowed to 32 bits.
// Caller guarantees bound < 2^32.
__attribute__((target("avx2"))) void AliasLookupAvx2(
    const double* thresholds, const uint32_t* aliases, uint64_t bound,
    const uint32_t* rows, const double* units, const uint64_t* raws,
    size_t count, uint32_t* out) {
  const __m256i vbound = _mm256_set1_epi64x(static_cast<int64_t>(bound));
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256i bucket = BoundedFromRaws(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raws + k)),
        vbound);
    __m256i idx = bucket;
    if (rows != nullptr) {
      const __m256i row = _mm256_cvtepu32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + k)));
      idx = _mm256_add_epi64(_mm256_mul_epu32(row, vbound), bucket);
    }
    const __m256d vthreshold =
        _mm256_i64gather_pd(thresholds, idx, /*scale=*/8);
    const __m256d vunit = _mm256_loadu_pd(units + k);
    // _CMP_LT_OQ is IEEE operator< (ordered, quiet); units and
    // thresholds are finite by construction, so NaN semantics never
    // enter the transcript.
    const __m256d lt = _mm256_cmp_pd(vunit, vthreshold, _CMP_LT_OQ);
    const __m128i valias = _mm256_i64gather_epi32(
        reinterpret_cast<const int*>(aliases), idx, /*scale=*/4);
    const __m128i result = _mm_blendv_epi8(
        valias, NarrowLanes(bucket), NarrowLanes(_mm256_castpd_si256(lt)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k), result);
  }
  AliasLookupPortable(thresholds, aliases, bound,
                      rows != nullptr ? rows + k : nullptr, units + k,
                      raws + k, count - k, out + k);
}

// Four lanes per step: the bounded draw from BoundedFromRaws, the codes
// widened to 64-bit lanes, and the compare mask blending the two before
// one narrowing permute. A bound of 2^32 or more runs the portable body.
__attribute__((target("avx2"))) void KeepUniformAvx2(
    const uint32_t* codes, const double* units, const uint64_t* raws,
    double alpha, uint64_t bound, size_t count, uint32_t* out) {
  if (bound > UINT32_MAX) {
    KeepUniformPortable(codes, units, raws, alpha, bound, count, out);
    return;
  }
  const __m256i vbound = _mm256_set1_epi64x(static_cast<int64_t>(bound));
  const __m256d valpha = _mm256_set1_pd(alpha);
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256i bucket = BoundedFromRaws(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raws + k)),
        vbound);
    const __m256i code = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + k)));
    // _CMP_LT_OQ is IEEE operator<, as in AliasLookupAvx2.
    const __m256d take =
        _mm256_cmp_pd(_mm256_loadu_pd(units + k), valpha, _CMP_LT_OQ);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(out + k),
        NarrowLanes(
            _mm256_blendv_epi8(code, bucket, _mm256_castpd_si256(take))));
  }
  KeepUniformPortable(codes + k, units + k, raws + k, alpha, bound, count - k,
                      out + k);
}

#undef MDRR_ALIAS_AVX2
#endif  // MDRR_RNG_X86

}  // namespace

bool AliasLookupBlockOn(SimdBody body, const double* thresholds,
                        const uint32_t* aliases, uint64_t bound,
                        size_t table_entries, const uint32_t* rows,
                        const double* units, const uint64_t* raws,
                        size_t count, uint32_t* out) {
  // Every bucket indexes the table, so bound <= table_entries.
  MDRR_DCHECK_LE(bound, table_entries);
  switch (body) {
    case SimdBody::kPortable:
      AliasLookupPortable(thresholds, aliases, bound, rows, units, raws,
                          count, out);
      return true;
#ifdef MDRR_RNG_X86
    case SimdBody::kAvx2:
      if (!HaveAvx2()) return false;
      if (bound > UINT32_MAX) {  // Past the vector multiply's range.
        AliasLookupPortable(thresholds, aliases, bound, rows, units, raws,
                            count, out);
      } else {
        AliasLookupAvx2(thresholds, aliases, bound, rows, units, raws, count,
                        out);
      }
      return true;
#endif
    default:
      return false;
  }
}

void AliasLookupBlock(const double* thresholds, const uint32_t* aliases,
                      uint64_t bound, size_t table_entries,
                      const uint32_t* rows, const double* units,
                      const uint64_t* raws, size_t count, uint32_t* out) {
  AliasLookupBlockOn(BestSimdBody(), thresholds, aliases, bound,
                     table_entries, rows, units, raws, count, out);
}

bool KeepUniformBlockOn(SimdBody body, const uint32_t* codes,
                        const double* units, const uint64_t* raws,
                        double alpha, uint64_t bound, size_t count,
                        uint32_t* out) {
  MDRR_DCHECK_GT(bound, 0u);
  switch (body) {
    case SimdBody::kPortable:
      KeepUniformPortable(codes, units, raws, alpha, bound, count, out);
      return true;
#ifdef MDRR_RNG_X86
    case SimdBody::kAvx2:
      if (!HaveAvx2()) return false;
      KeepUniformAvx2(codes, units, raws, alpha, bound, count, out);
      return true;
#endif
    default:
      return false;
  }
}

void KeepUniformBlock(const uint32_t* codes, const double* units,
                      const uint64_t* raws, double alpha, uint64_t bound,
                      size_t count, uint32_t* out) {
  KeepUniformBlockOn(BestSimdBody(), codes, units, raws, alpha, bound, count,
                     out);
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  MDRR_CHECK(!weights.empty());
  // Alias indices are stored as uint32_t; a longer weight vector would
  // silently truncate them.
  MDRR_CHECK_LE(weights.size(), std::numeric_limits<uint32_t>::max());
  const size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    MDRR_CHECK_GE(w, 0.0);
    total += w;
  }
  MDRR_CHECK_GT(total, 0.0);

  probability_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Scale weights so the average bucket is exactly 1.
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] * n / total;

  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    probability_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Remaining buckets are exactly 1 up to round-off.
  for (uint32_t i : large) probability_[i] = 1.0;
  for (uint32_t i : small) probability_[i] = 1.0;
}

void AliasSampler::AppendTables(std::vector<double>& thresholds,
                                std::vector<uint32_t>& aliases) const {
  thresholds.insert(thresholds.end(), probability_.begin(),
                    probability_.end());
  aliases.insert(aliases.end(), alias_.begin(), alias_.end());
}

}  // namespace mdrr
