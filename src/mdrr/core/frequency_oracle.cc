#include "mdrr/core/frequency_oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mdrr/common/check.h"
#include "mdrr/common/enum_tokens.h"
#include "mdrr/common/parallel.h"
#include "mdrr/core/estimator.h"

namespace mdrr {

namespace {

// OLH hash range: g = floor(e^eps) + 1 (Wang et al., Section 5.2), at
// least 2, capped so an extreme epsilon cannot blow up the bucket GRR
// domain (beyond the cap the mechanism is effectively noiseless anyway).
size_t OlhNumBuckets(double epsilon) {
  constexpr double kMaxBuckets = 1 << 20;
  const double raw = std::floor(std::exp(std::min(epsilon, 30.0))) + 1.0;
  return static_cast<size_t>(std::max(2.0, std::min(raw, kMaxBuckets)));
}

constexpr EnumToken<OracleBackend> kOracleBackendTokens[] = {
    {OracleBackend::kDirect, "de"},
    {OracleBackend::kSymmetricUnary, "sue"},
    {OracleBackend::kOptimizedUnary, "oue"},
    {OracleBackend::kLocalHashing, "olh"},
};

}  // namespace

const char* ToString(OracleBackend backend) {
  return TokenOf(kOracleBackendTokens, backend);
}

StatusOr<OracleBackend> OracleBackendFromString(std::string_view token) {
  return ValueOf(kOracleBackendTokens, token, "oracle backend");
}

StatusOr<std::vector<double>> FrequencyOracle::EstimateFromLambda(
    const std::vector<double>& lambda) const {
  if (lambda.size() != r_) {
    return Status::InvalidArgument("lambda size does not match domain size");
  }
  std::vector<double> estimates(r_);
  double denom = p_ - q_;
  for (size_t v = 0; v < r_; ++v) {
    estimates[v] = (lambda[v] - q_) / denom;
  }
  return estimates;
}

StatusOr<std::vector<double>> FrequencyOracle::EstimateFrequencies(
    const std::vector<int64_t>& counts, int64_t n) const {
  if (counts.size() != r_) {
    return Status::InvalidArgument("support count vector size mismatch");
  }
  if (n <= 0) {
    return Status::InvalidArgument("sample size must be positive");
  }
  std::vector<double> lambda(r_);
  for (size_t v = 0; v < r_; ++v) {
    lambda[v] = static_cast<double>(counts[v]) / static_cast<double>(n);
  }
  return EstimateFromLambda(lambda);
}

double FrequencyOracle::TheoreticalVariance(double pi_v, int64_t n) const {
  MDRR_CHECK_GT(n, 0);
  double nd = static_cast<double>(n);
  double denom = p_ - q_;
  return q_ * (1.0 - q_) / (nd * denom * denom) +
         pi_v * (1.0 - p_ - q_) / (nd * denom);
}

DirectEncodingOracle::DirectEncodingOracle(size_t r, double epsilon)
    : FrequencyOracle(r, epsilon),
      matrix_(RrMatrix::OptimalForEpsilon(r, epsilon)) {
  MDRR_CHECK_GE(r, 2u);
  MDRR_CHECK_GT(epsilon, 0.0);
  p_ = matrix_.Prob(0, 0);
  q_ = matrix_.Prob(0, 1);
}

DirectEncodingOracle::DirectEncodingOracle(RrMatrix matrix)
    : FrequencyOracle(matrix.size(), matrix.Epsilon()),
      matrix_(std::move(matrix)) {
  p_ = matrix_.Prob(0, 0);
  q_ = r_ > 1 ? matrix_.Prob(0, 1) : 0.0;
}

uint32_t DirectEncodingOracle::Randomize(uint32_t value, Rng& rng) const {
  return matrix_.Randomize(value, rng);
}

StatusOr<std::vector<double>> DirectEncodingOracle::EstimateFrequencies(
    const std::vector<uint32_t>& reports) const {
  if (reports.empty()) {
    return Status::InvalidArgument("no reports to estimate from");
  }
  return EstimateFromLambda(EmpiricalDistribution(reports, r_));
}

void DirectEncodingOracle::AccumulateRange(const uint32_t* codes, size_t count,
                                           Rng& rng, uint32_t* out,
                                           int64_t* counts) const {
  matrix_.RandomizeRangeInto(codes, count, rng, out, counts);
}

void DirectEncodingOracle::AccumulateRangeCounter(
    const uint32_t* codes, size_t count, uint64_t seed, uint64_t stream,
    uint64_t first_record, uint32_t* out, int64_t* counts) const {
  matrix_.RandomizeRangeCounterInto(codes, count, seed, stream, first_record,
                                    out, counts);
}

StatusOr<std::vector<double>> DirectEncodingOracle::EstimateFromLambda(
    const std::vector<double>& lambda) const {
  // The single implementation of the RR inversion: for uniform-mixture
  // matrices the structured Eq. (2) estimator evaluates the
  // (lambda - q)/(p - q) closed form in O(r) with no factorization.
  return EstimateDistribution(matrix_, lambda);
}

UnaryEncodingOracle::UnaryEncodingOracle(size_t r, double epsilon,
                                         Variant variant)
    : FrequencyOracle(r, epsilon), variant_(variant) {
  MDRR_CHECK_GE(r, 2u);
  MDRR_CHECK_GT(epsilon, 0.0);
  if (variant == Variant::kSymmetric) {
    // Each report perturbs two bits "against" the truth in the worst
    // case, so each bit gets eps/2: p/(1-p) = e^{eps/2}.
    double half = std::exp(epsilon / 2.0);
    p_ = half / (half + 1.0);
    q_ = 1.0 - p_;
  } else {
    // OUE: p fixed at 1/2; q tuned so the full-report ratio is e^{eps}.
    p_ = 0.5;
    q_ = 1.0 / (std::exp(epsilon) + 1.0);
  }
}

std::vector<uint8_t> UnaryEncodingOracle::Randomize(uint32_t value,
                                                    Rng& rng) const {
  MDRR_CHECK_LT(value, r_);
  std::vector<uint8_t> bits(r_);
  for (size_t v = 0; v < r_; ++v) {
    double keep_one = (v == value) ? p_ : q_;
    bits[v] = rng.Bernoulli(keep_one) ? 1 : 0;
  }
  return bits;
}

void UnaryEncodingOracle::AccumulateRange(const uint32_t* codes, size_t count,
                                          Rng& rng, uint32_t* /*out*/,
                                          int64_t* counts) const {
  // Per record, bits flip in value order -- the exact draw sequence of
  // Randomize, so batched and per-record paths share one transcript.
  for (size_t i = 0; i < count; ++i) {
    const uint32_t code = codes[i];
    MDRR_DCHECK_LT(code, r_);
    for (size_t v = 0; v < r_; ++v) {
      const bool bit = rng.Bernoulli(v == code ? p_ : q_);
      if (counts != nullptr && bit) ++counts[v];
    }
  }
}

void UnaryEncodingOracle::AccumulateRangeCounter(
    const uint32_t* codes, size_t count, uint64_t seed, uint64_t stream,
    uint64_t first_record, uint32_t* /*out*/, int64_t* counts) const {
  // Record i's bit v owns element i * r + v: r elements per record, fixed
  // budget, so the draw plan is invariant under shard grain and threads.
  // The range's elements are contiguous, so they are drawn a tile at a
  // time through the element fill; (k, v) walks them in order. The bit
  // counts are the only output.
  if (counts == nullptr) return;
  constexpr size_t kTile = 512;
  double units[kTile];
  uint64_t raws[kTile];
  const size_t elements = count * r_;
  size_t k = 0;
  size_t v = 0;
  for (size_t tile = 0; tile < elements; tile += kTile) {
    const size_t len = std::min(kTile, elements - tile);
    PhiloxFillElementDraws(seed, stream, first_record * r_ + tile, len, units,
                           raws);
    for (size_t e = 0; e < len; ++e) {
      MDRR_DCHECK_LT(codes[k], r_);
      counts[v] += units[e] < (v == codes[k] ? p_ : q_);
      if (++v == r_) {
        v = 0;
        ++k;
      }
    }
  }
}

LocalHashingOracle::LocalHashingOracle(size_t r, double epsilon)
    : FrequencyOracle(r, epsilon),
      g_(OlhNumBuckets(epsilon)),
      grr_(RrMatrix::OptimalForEpsilon(g_, epsilon)) {
  MDRR_CHECK_GE(r, 2u);
  MDRR_CHECK_GT(epsilon, 0.0);
  p_ = grr_.Prob(0, 0);
  q_ = 1.0 / static_cast<double>(g_);
}

uint32_t LocalHashingOracle::HashBucket(uint64_t hash_seed, uint32_t value,
                                        size_t num_buckets) {
  // SplitMix64 finalizer over the (seed, value) pair: full avalanche,
  // then the fixed-budget multiplicative range reduction.
  uint64_t z = hash_seed + 0x9e3779b97f4a7c15ULL *
                               (static_cast<uint64_t>(value) + 1ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<uint32_t>(PhiloxBoundedFromRaw(z, num_buckets));
}

void LocalHashingOracle::AccumulateRange(const uint32_t* codes, size_t count,
                                         Rng& rng, uint32_t* /*out*/,
                                         int64_t* counts) const {
  for (size_t i = 0; i < count; ++i) {
    MDRR_DCHECK_LT(codes[i], r_);
    const uint64_t hash_seed = rng.engine()();
    const uint32_t bucket = HashBucket(hash_seed, codes[i], g_);
    const uint32_t y = grr_.Randomize(bucket, rng);
    if (counts == nullptr) continue;
    for (size_t v = 0; v < r_; ++v) {
      if (HashBucket(hash_seed, static_cast<uint32_t>(v), g_) == y) {
        ++counts[v];
      }
    }
  }
}

void LocalHashingOracle::AccumulateRangeCounter(
    const uint32_t* codes, size_t count, uint64_t seed, uint64_t stream,
    uint64_t first_record, uint32_t* /*out*/, int64_t* counts) const {
  // Record i owns elements 2i (raw channel = its hash seed) and 2i + 1
  // (the bucket GRR's element block): two elements per record, fixed.
  for (size_t k = 0; k < count; ++k) {
    MDRR_DCHECK_LT(codes[k], r_);
    const uint64_t element = 2 * (first_record + k);
    const PhiloxBlock block = PhiloxElementBlock(seed, stream, element);
    const uint64_t hash_seed =
        (static_cast<uint64_t>(block.w[3]) << 32) | block.w[2];
    const uint32_t bucket = HashBucket(hash_seed, codes[k], g_);
    const uint32_t y = grr_.RandomizeCounter(bucket, seed, stream,
                                             element + 1);
    if (counts == nullptr) continue;
    for (size_t v = 0; v < r_; ++v) {
      if (HashBucket(hash_seed, static_cast<uint32_t>(v), g_) == y) {
        ++counts[v];
      }
    }
  }
}

StatusOr<std::unique_ptr<FrequencyOracle>> MakeFrequencyOracle(
    OracleBackend backend, size_t r, double epsilon) {
  if (r < 2) {
    return Status::InvalidArgument(
        "frequency oracles need a domain of at least 2 categories");
  }
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument(
        "frequency oracles need a finite epsilon > 0");
  }
  switch (backend) {
    case OracleBackend::kDirect:
      return std::unique_ptr<FrequencyOracle>(
          new DirectEncodingOracle(r, epsilon));
    case OracleBackend::kSymmetricUnary:
      return std::unique_ptr<FrequencyOracle>(new UnaryEncodingOracle(
          r, epsilon, UnaryEncodingOracle::Variant::kSymmetric));
    case OracleBackend::kOptimizedUnary:
      return std::unique_ptr<FrequencyOracle>(new UnaryEncodingOracle(
          r, epsilon, UnaryEncodingOracle::Variant::kOptimized));
    case OracleBackend::kLocalHashing:
      return std::unique_ptr<FrequencyOracle>(
          new LocalHashingOracle(r, epsilon));
  }
  return Status::InvalidArgument("unknown oracle backend");
}

void PerturbShard(const FrequencyOracle& oracle, const ColumnAddress& address,
                  uint64_t shard_index, uint64_t first_record,
                  const uint32_t* codes, size_t count, uint32_t* out,
                  int64_t* counts) {
  if (address.rng == RngKind::kPhilox) {
    oracle.AccumulateRangeCounter(codes, count, address.seed,
                                  address.counter_stream, first_record, out,
                                  counts);
    return;
  }
  Rng rng = RngStreamFamily(address.seed).Stream(address.stream_base +
                                                 shard_index);
  oracle.AccumulateRange(codes, count, rng, out, counts);
}

OracleColumnResult PerturbColumnSharded(const FrequencyOracle& oracle,
                                        const std::vector<uint32_t>& codes,
                                        const ColumnAddress& address,
                                        size_t shard_size,
                                        size_t num_threads) {
  const size_t n = codes.size();
  const size_t r = oracle.domain_size();
  OracleColumnResult result;
  const bool microdata = oracle.produces_microdata();
  if (microdata) result.codes.resize(n);

  // Per-worker counts: O(threads x r) memory, not O(shards x r) -- joint
  // domains can be huge.
  std::vector<std::vector<int64_t>> worker_counts(
      ResolveWorkerCount(num_threads, n, shard_size),
      std::vector<int64_t>(r, 0));
  ParallelChunks(n, shard_size, num_threads,
                 [&](size_t worker, size_t shard, size_t begin, size_t end) {
                   PerturbShard(oracle, address, shard, begin,
                                codes.data() + begin, end - begin,
                                microdata ? result.codes.data() + begin
                                          : nullptr,
                                worker_counts[worker].data());
                 });

  result.counts.assign(r, 0);
  for (const std::vector<int64_t>& partial : worker_counts) {
    for (size_t v = 0; v < r; ++v) result.counts[v] += partial[v];
  }
  result.lambda.assign(r, 0.0);
  if (n > 0) {
    for (size_t v = 0; v < r; ++v) {
      result.lambda[v] = static_cast<double>(result.counts[v]) /
                         static_cast<double>(n);
    }
  }
  return result;
}

}  // namespace mdrr
