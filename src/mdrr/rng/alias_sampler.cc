#include "mdrr/rng/alias_sampler.h"

#include <limits>

#include "mdrr/common/check.h"
#include "mdrr/rng/simd_body.h"

#ifdef MDRR_RNG_X86
#include <immintrin.h>
#endif

namespace mdrr {
namespace {

// Reference lookup; also the tail loop of the vector path. The vector
// kernel reproduces exactly this arithmetic (same bucket derivation,
// same IEEE `<` on the same threshold value), so the two are bitwise
// interchangeable.
void AliasLookupScalar(const double* thresholds, const uint32_t* aliases,
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

#ifdef MDRR_RNG_X86
// Four lanes per step: buckets come from the scalar 64x64->128 Lemire
// high-multiply (no AVX2 equivalent, and it is not the bottleneck), the
// threshold/alias loads are gathers, and the accept/alias choice is a
// branch-free blend keyed off the 64-bit compare mask narrowed to 32
// bits. Caller guarantees every index fits in int32 (gather indices are
// signed 32-bit).
__attribute__((target("avx2"))) void AliasLookupAvx2(
    const double* thresholds, const uint32_t* aliases, uint64_t bound,
    const uint32_t* rows, const double* units, const uint64_t* raws,
    size_t count, uint32_t* out) {
  const __m256i even_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    alignas(16) int32_t idx[4];
    alignas(16) int32_t bucket[4];
    for (int j = 0; j < 4; ++j) {
      const uint32_t b =
          static_cast<uint32_t>(PhiloxBoundedFromRaw(raws[k + j], bound));
      bucket[j] = static_cast<int32_t>(b);
      const uint64_t flat =
          (rows != nullptr ? static_cast<uint64_t>(rows[k + j]) * bound : 0) +
          b;
      idx[j] = static_cast<int32_t>(flat);
    }
    const __m128i vidx =
        _mm_load_si128(reinterpret_cast<const __m128i*>(idx));
    const __m256d vthreshold =
        _mm256_i32gather_pd(thresholds, vidx, /*scale=*/8);
    const __m256d vunit = _mm256_loadu_pd(units + k);
    // _CMP_LT_OQ is IEEE operator< (ordered, quiet); units and
    // thresholds are finite by construction, so NaN semantics never
    // enter the transcript.
    const __m256d lt = _mm256_cmp_pd(vunit, vthreshold, _CMP_LT_OQ);
    const __m256i narrowed = _mm256_permutevar8x32_epi32(
        _mm256_castpd_si256(lt), even_dwords);
    const __m128i mask32 = _mm256_castsi256_si128(narrowed);
    const __m128i valias = _mm_i32gather_epi32(
        reinterpret_cast<const int*>(aliases), vidx, /*scale=*/4);
    const __m128i vbucket =
        _mm_load_si128(reinterpret_cast<const __m128i*>(bucket));
    const __m128i result = _mm_blendv_epi8(valias, vbucket, mask32);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k), result);
  }
  AliasLookupScalar(thresholds, aliases, bound,
                    rows != nullptr ? rows + k : nullptr, units + k, raws + k,
                    count - k, out + k);
}
#endif  // MDRR_RNG_X86

}  // namespace

void AliasLookupBlock(const double* thresholds, const uint32_t* aliases,
                      uint64_t bound, size_t table_entries,
                      const uint32_t* rows, const double* units,
                      const uint64_t* raws, size_t count, uint32_t* out) {
#ifdef MDRR_RNG_X86
  if (table_entries <=
          static_cast<size_t>(std::numeric_limits<int32_t>::max()) &&
      HaveAvx2()) {
    AliasLookupAvx2(thresholds, aliases, bound, rows, units, raws, count,
                    out);
    return;
  }
#else
  (void)table_entries;
#endif
  AliasLookupScalar(thresholds, aliases, bound, rows, units, raws, count,
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
