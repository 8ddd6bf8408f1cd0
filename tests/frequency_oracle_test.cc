#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/estimator.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

std::vector<double> TestDistribution(size_t r, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> pi(r);
  double total = 0.0;
  for (double& x : pi) {
    x = rng.UniformDouble() + 0.05;
    total += x;
  }
  for (double& x : pi) x /= total;
  return pi;
}

TEST(DirectEncodingTest, EstimatesAreUnbiased) {
  const size_t r = 6;
  const double eps = 2.0;
  DirectEncodingOracle oracle(r, eps);
  std::vector<double> pi = TestDistribution(r, 3);

  Rng rng(5);
  const int n = 200000;
  std::vector<uint32_t> reports(n);
  for (int i = 0; i < n; ++i) {
    uint32_t truth = static_cast<uint32_t>(rng.Discrete(pi));
    reports[i] = oracle.Randomize(truth, rng);
  }
  auto estimates = oracle.EstimateFrequencies(reports);
  ASSERT_TRUE(estimates.ok());
  for (size_t v = 0; v < r; ++v) {
    EXPECT_NEAR(estimates.value()[v], pi[v], 0.01) << "category " << v;
  }
}

TEST(DirectEncodingTest, MatchesEquationTwoEstimator) {
  // The direct-encoding oracle IS the structured Eq. (2) estimator:
  // EstimateFromLambda delegates to core/estimator's EstimateDistribution
  // on the wrapped matrix, so the two must agree bit for bit -- there is
  // exactly one closed-form RR estimator in the codebase.
  const size_t r = 5;
  const double eps = 1.5;
  DirectEncodingOracle oracle(r, eps);
  RrMatrix matrix = RrMatrix::OptimalForEpsilon(r, eps);

  Rng rng(7);
  std::vector<uint32_t> reports(5000);
  for (auto& x : reports) x = static_cast<uint32_t>(rng.UniformInt(r));
  auto fast = oracle.EstimateFrequencies(reports);
  ASSERT_TRUE(fast.ok());
  auto general =
      EstimateDistribution(matrix, EmpiricalDistribution(reports, r));
  ASSERT_TRUE(general.ok());
  for (size_t v = 0; v < r; ++v) {
    EXPECT_EQ(fast.value()[v], general.value()[v]) << "category " << v;
  }
}

TEST(DirectEncodingTest, AccumulateRangeMatchesPerRecordRandomize) {
  // The batched entry point must consume draws exactly like a hand
  // written per-record loop: same Rng seed, same codes, same counts.
  const size_t r = 7;
  const double eps = 1.2;
  DirectEncodingOracle oracle(r, eps);
  Rng loop_rng(91);
  std::vector<uint32_t> input(4096);
  for (auto& x : input) x = static_cast<uint32_t>(loop_rng.UniformInt(r));

  Rng a(17);
  std::vector<uint32_t> expected(input.size());
  std::vector<int64_t> expected_counts(r, 0);
  for (size_t i = 0; i < input.size(); ++i) {
    expected[i] = oracle.Randomize(input[i], a);
    ++expected_counts[expected[i]];
  }

  Rng b(17);
  std::vector<uint32_t> batched(input.size());
  std::vector<int64_t> batched_counts(r, 0);
  oracle.AccumulateRange(input.data(), input.size(), b, batched.data(),
                         batched_counts.data());
  EXPECT_EQ(expected, batched);
  EXPECT_EQ(expected_counts, batched_counts);
}

TEST(DirectEncodingTest, RejectsEmptyReports) {
  DirectEncodingOracle oracle(4, 1.0);
  EXPECT_FALSE(oracle.EstimateFrequencies({}).ok());
}

TEST(UnaryEncodingTest, SymmetricParameters) {
  UnaryEncodingOracle sue(8, 2.0, UnaryEncodingOracle::Variant::kSymmetric);
  double half = std::exp(1.0);
  EXPECT_NEAR(sue.p(), half / (half + 1.0), 1e-12);
  EXPECT_NEAR(sue.q(), 1.0 - sue.p(), 1e-12);
}

TEST(UnaryEncodingTest, OptimizedParameters) {
  UnaryEncodingOracle oue(8, 2.0, UnaryEncodingOracle::Variant::kOptimized);
  EXPECT_DOUBLE_EQ(oue.p(), 0.5);
  EXPECT_NEAR(oue.q(), 1.0 / (std::exp(2.0) + 1.0), 1e-12);
}

TEST(UnaryEncodingTest, ReportPrivacyRatioBounded) {
  // Worst-case report-probability ratio between two true values must not
  // exceed e^eps: the flipped pair of bits contributes
  // (p / q) * ((1-q) / (1-p)).
  for (double eps : {0.5, 1.0, 3.0}) {
    for (auto variant : {UnaryEncodingOracle::Variant::kSymmetric,
                         UnaryEncodingOracle::Variant::kOptimized}) {
      UnaryEncodingOracle oracle(10, eps, variant);
      double ratio = (oracle.p() / oracle.q()) *
                     ((1.0 - oracle.q()) / (1.0 - oracle.p()));
      EXPECT_LE(std::log(ratio), eps + 1e-9);
      // Both variants are tight (equality).
      EXPECT_NEAR(std::log(ratio), eps, 1e-9);
    }
  }
}

class UnaryEncodingSweep
    : public ::testing::TestWithParam<
          std::tuple<size_t, double, UnaryEncodingOracle::Variant>> {};

// Property: unary-encoding estimates converge to the true distribution
// for every (domain size, epsilon, variant) combination.
TEST_P(UnaryEncodingSweep, EstimatesAreUnbiased) {
  auto [r, eps, variant] = GetParam();
  UnaryEncodingOracle oracle(r, eps, variant);
  std::vector<double> pi = TestDistribution(r, r * 17);

  Rng rng(r * 31 + static_cast<uint64_t>(eps * 10));
  const int n = 150000;
  std::vector<int64_t> bit_counts(r, 0);
  for (int i = 0; i < n; ++i) {
    uint32_t truth = static_cast<uint32_t>(rng.Discrete(pi));
    std::vector<uint8_t> report = oracle.Randomize(truth, rng);
    for (size_t v = 0; v < r; ++v) bit_counts[v] += report[v];
  }
  auto estimates = oracle.EstimateFrequencies(bit_counts, n);
  ASSERT_TRUE(estimates.ok());
  for (size_t v = 0; v < r; ++v) {
    EXPECT_NEAR(estimates.value()[v], pi[v], 0.02)
        << "r=" << r << " eps=" << eps << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DomainsAndEpsilons, UnaryEncodingSweep,
    ::testing::Combine(
        ::testing::Values<size_t>(4, 16, 64),
        ::testing::Values(1.0, 3.0),
        ::testing::Values(UnaryEncodingOracle::Variant::kSymmetric,
                          UnaryEncodingOracle::Variant::kOptimized)));

TEST(UnaryEncodingTest, InputValidation) {
  UnaryEncodingOracle oracle(3, 1.0,
                             UnaryEncodingOracle::Variant::kSymmetric);
  EXPECT_FALSE(oracle.EstimateFrequencies({1, 2}, 10).ok());
  EXPECT_FALSE(oracle.EstimateFrequencies({1, 2, 3}, 0).ok());
}

TEST(UnaryEncodingTest, CounterPathDrawsEachBitAtItsElement) {
  // Record i's bit v is set iff the unit of element i * r + v falls
  // below p (v is the record's value) or q. 97 records of r = 12 span
  // three 512-element fill tiles, none aligned to a record.
  const size_t r = 12;
  const size_t n = 97;
  const uint64_t first_record = 1000;
  Rng rng(11);
  std::vector<uint32_t> truths(n);
  for (auto& x : truths) x = static_cast<uint32_t>(rng.UniformInt(r));
  for (auto variant : {UnaryEncodingOracle::Variant::kSymmetric,
                       UnaryEncodingOracle::Variant::kOptimized}) {
    const UnaryEncodingOracle oracle(r, 1.5, variant);
    std::vector<int64_t> counts(r, 0);
    oracle.AccumulateRangeCounter(truths.data(), n, /*seed=*/21,
                                  /*stream=*/4, first_record, nullptr,
                                  counts.data());
    std::vector<int64_t> want(r, 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t v = 0; v < r; ++v) {
        const PhiloxBlock block =
            PhiloxElementBlock(21, 4, (first_record + i) * r + v);
        const double unit = PhiloxUnitFromU64(
            (static_cast<uint64_t>(block.w[1]) << 32) | block.w[0]);
        if (unit < (v == truths[i] ? oracle.p() : oracle.q())) ++want[v];
      }
    }
    EXPECT_EQ(counts, want);
  }
}

TEST(LocalHashingTest, BucketCountTracksEpsilon) {
  // g = floor(e^eps) + 1, clamped to [2, 2^20].
  EXPECT_EQ(LocalHashingOracle(16, 0.5).num_buckets(), 2u);
  EXPECT_EQ(LocalHashingOracle(16, 1.0).num_buckets(), 3u);
  EXPECT_EQ(LocalHashingOracle(16, 2.0).num_buckets(), 8u);
  EXPECT_EQ(LocalHashingOracle(16, 100.0).num_buckets(), 1u << 20);
}

TEST(LocalHashingTest, HashBucketIsDeterministicAndInRange) {
  const size_t g = 8;
  for (uint64_t seed : {0ull, 1ull, 0xdeadbeefull}) {
    for (uint32_t v = 0; v < 64; ++v) {
      uint32_t bucket = LocalHashingOracle::HashBucket(seed, v, g);
      EXPECT_LT(bucket, g);
      EXPECT_EQ(bucket, LocalHashingOracle::HashBucket(seed, v, g));
    }
  }
}

class LocalHashingSweep
    : public ::testing::TestWithParam<std::tuple<size_t, double, int>> {};

// Property: OLH support-count estimates converge to the true
// distribution, with per-category error within a few theoretical
// standard deviations, for every (domain size, epsilon, n).
TEST_P(LocalHashingSweep, EstimatesAreUnbiasedWithinTheoreticalVariance) {
  auto [r, eps, n] = GetParam();
  LocalHashingOracle oracle(r, eps);
  std::vector<double> pi = TestDistribution(r, r * 13 + 1);

  Rng rng(r * 101 + static_cast<uint64_t>(eps * 10) + n);
  std::vector<uint32_t> truths(n);
  for (auto& x : truths) x = static_cast<uint32_t>(rng.Discrete(pi));
  std::vector<int64_t> counts(r, 0);
  oracle.AccumulateRange(truths.data(), truths.size(), rng, /*out=*/nullptr,
                         counts.data());
  auto estimates = oracle.EstimateFrequencies(counts, n);
  ASSERT_TRUE(estimates.ok());
  for (size_t v = 0; v < r; ++v) {
    const double sigma = std::sqrt(oracle.TheoreticalVariance(pi[v], n));
    EXPECT_NEAR(estimates.value()[v], pi[v], 5.0 * sigma + 1e-9)
        << "r=" << r << " eps=" << eps << " n=" << n << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DomainsEpsilonsSamples, LocalHashingSweep,
    ::testing::Combine(::testing::Values<size_t>(4, 16, 64),
                       ::testing::Values(1.0, 3.0),
                       ::testing::Values(60000, 150000)));

TEST(LocalHashingTest, CounterPathIsShardInvariant) {
  // Philox element addressing: a record's draws are addressed by its
  // index in the column, not by consumption order, so perturbing
  // standalone slice buffers at their first_record -- the way a
  // distributed worker holds its shards -- reproduces the whole-column
  // call: the codes for DE, the summed counts for every backend.
  const size_t r = 12;
  const size_t n = 5000;
  Rng rng(7);
  std::vector<uint32_t> truths(n);
  for (auto& x : truths) x = static_cast<uint32_t>(rng.UniformInt(r));

  const ColumnAddress philox{RngKind::kPhilox, /*seed=*/99,
                             /*stream_base=*/0, /*counter_stream=*/3};
  for (OracleBackend backend :
       {OracleBackend::kDirect, OracleBackend::kSymmetricUnary,
        OracleBackend::kOptimizedUnary, OracleBackend::kLocalHashing}) {
    SCOPED_TRACE(ToString(backend));
    auto made = MakeFrequencyOracle(backend, r, 2.0);
    ASSERT_TRUE(made.ok());
    const FrequencyOracle& oracle = *made.value();
    const bool microdata = oracle.produces_microdata();

    std::vector<uint32_t> whole(microdata ? n : 0);
    std::vector<int64_t> whole_counts(r, 0);
    oracle.AccumulateRangeCounter(truths.data(), n, philox.seed,
                                  philox.counter_stream, /*first_record=*/0,
                                  microdata ? whole.data() : nullptr,
                                  whole_counts.data());

    // Uneven slices, each copied into its own buffer.
    std::vector<uint32_t> sliced;
    std::vector<int64_t> sliced_counts(r, 0);
    size_t step = 1;
    for (size_t begin = 0, shard = 0; begin < n; ++shard) {
      const size_t end = std::min(n, begin + step);
      const std::vector<uint32_t> slice(truths.begin() + begin,
                                        truths.begin() + end);
      std::vector<uint32_t> out(microdata ? slice.size() : 0);
      PerturbShard(oracle, philox, shard, begin, slice.data(), slice.size(),
                   microdata ? out.data() : nullptr, sliced_counts.data());
      sliced.insert(sliced.end(), out.begin(), out.end());
      begin = end;
      step = step * 3 + 1;
    }
    EXPECT_EQ(sliced, whole);
    EXPECT_EQ(sliced_counts, whole_counts);
  }

  // DE under mt19937: shard s draws Stream(stream_base + s) in record
  // order, so standalone slices through PerturbShard and the threaded
  // whole-column fan-out both equal a per-record Randomize loop.
  const DirectEncodingOracle de(r, 2.0);
  const ColumnAddress mt{RngKind::kMt19937, /*seed=*/99, /*stream_base=*/40,
                         /*counter_stream=*/3};
  constexpr size_t kShard = 317;
  std::vector<uint32_t> expected;
  std::vector<int64_t> expected_counts(r, 0);
  std::vector<uint32_t> sliced;
  std::vector<int64_t> sliced_counts(r, 0);
  for (size_t shard = 0; shard * kShard < n; ++shard) {
    const size_t begin = shard * kShard;
    const size_t end = std::min(n, begin + kShard);
    Rng stream = RngStreamFamily(mt.seed).Stream(mt.stream_base + shard);
    for (size_t i = begin; i < end; ++i) {
      expected.push_back(de.Randomize(truths[i], stream));
      ++expected_counts[expected.back()];
    }
    const std::vector<uint32_t> slice(truths.begin() + begin,
                                      truths.begin() + end);
    std::vector<uint32_t> out(slice.size());
    PerturbShard(de, mt, shard, begin, slice.data(), slice.size(), out.data(),
                 sliced_counts.data());
    sliced.insert(sliced.end(), out.begin(), out.end());
  }
  EXPECT_EQ(sliced, expected);
  EXPECT_EQ(sliced_counts, expected_counts);
  const OracleColumnResult column =
      PerturbColumnSharded(de, truths, mt, kShard, /*num_threads=*/4);
  EXPECT_EQ(column.codes, expected);
  EXPECT_EQ(column.counts, expected_counts);
}

TEST(LocalHashingTest, CounterPathEstimatesAreUnbiased) {
  const size_t r = 16;
  const double eps = 2.0;
  const int n = 120000;
  LocalHashingOracle oracle(r, eps);
  std::vector<double> pi = TestDistribution(r, 29);
  Rng rng(31);
  std::vector<uint32_t> truths(n);
  for (auto& x : truths) x = static_cast<uint32_t>(rng.Discrete(pi));

  std::vector<int64_t> counts(r, 0);
  oracle.AccumulateRangeCounter(truths.data(), truths.size(), /*seed=*/5,
                                /*stream=*/1, /*first_record=*/0,
                                /*out=*/nullptr, counts.data());
  auto estimates = oracle.EstimateFrequencies(counts, n);
  ASSERT_TRUE(estimates.ok());
  for (size_t v = 0; v < r; ++v) {
    const double sigma = std::sqrt(oracle.TheoreticalVariance(pi[v], n));
    EXPECT_NEAR(estimates.value()[v], pi[v], 5.0 * sigma + 1e-9) << v;
  }
}

TEST(OracleComparisonTest, VarianceCrossoverInDomainSize) {
  // The classic Wang et al. result: DE beats OUE for small r (at fixed
  // eps, roughly r < 3 e^eps + 2), OUE wins for large r because its
  // variance does not depend on r.
  const double eps = 1.0;
  const int64_t n = 10000;
  const double pi_v = 0.1;

  DirectEncodingOracle de_small(3, eps);
  UnaryEncodingOracle oue_small(3, eps,
                                UnaryEncodingOracle::Variant::kOptimized);
  EXPECT_LT(de_small.TheoreticalVariance(pi_v, n),
            oue_small.TheoreticalVariance(pi_v, n));

  DirectEncodingOracle de_large(256, eps);
  UnaryEncodingOracle oue_large(256, eps,
                                UnaryEncodingOracle::Variant::kOptimized);
  EXPECT_GT(de_large.TheoreticalVariance(pi_v, n),
            oue_large.TheoreticalVariance(pi_v, n));
}

TEST(OracleComparisonTest, OueBeatsSueAtEqualEpsilon) {
  const double eps = 1.0;
  const int64_t n = 10000;
  UnaryEncodingOracle sue(32, eps, UnaryEncodingOracle::Variant::kSymmetric);
  UnaryEncodingOracle oue(32, eps, UnaryEncodingOracle::Variant::kOptimized);
  EXPECT_LT(oue.TheoreticalVariance(0.05, n),
            sue.TheoreticalVariance(0.05, n));
}

// Wang et al.'s variance q(1-q)/(n(p-q)^2) + pi(1-p-q)/(n(p-q)) in
// closed form per oracle, at the LDP-oracle ablation's inputs (eps = 1,
// n = 20000, pi_0 = 0.5; DE at r = 8, OLH at its g = floor(e^eps) + 1).
TEST(OracleComparisonTest, TheoreticalVarianceMatchesClosedForms) {
  const double eps = 1.0;
  const int64_t n = 20000;
  const double nd = static_cast<double>(n);
  const double pi = 0.5;
  const double e = std::exp(eps);
  const double h = std::exp(eps / 2.0);
  const auto expect_close = [](double got, double want, const char* name) {
    EXPECT_NEAR(got, want, 1e-12 * want) << name;
  };

  const double r = 8.0;
  expect_close(DirectEncodingOracle(8, eps).TheoreticalVariance(pi, n),
               ((e + r - 2.0) / ((e - 1.0) * (e - 1.0)) +
                pi * (r - 2.0) / (e - 1.0)) /
                   nd,
               "DE");
  expect_close(
      UnaryEncodingOracle(8, eps, UnaryEncodingOracle::Variant::kSymmetric)
          .TheoreticalVariance(pi, n),
      h / ((h - 1.0) * (h - 1.0)) / nd, "SUE");
  expect_close(
      UnaryEncodingOracle(8, eps, UnaryEncodingOracle::Variant::kOptimized)
          .TheoreticalVariance(pi, n),
      (4.0 * e / ((e - 1.0) * (e - 1.0)) + pi) / nd, "OUE");
  const double g = std::floor(e) + 1.0;
  expect_close(LocalHashingOracle(8, eps).TheoreticalVariance(pi, n),
               ((e + g - 1.0) * (e + g - 1.0) /
                    ((e - 1.0) * (e - 1.0) * (g - 1.0)) +
                pi * ((g - 1.0) * (g - 1.0) - e) / ((e - 1.0) * (g - 1.0))) /
                   nd,
               "OLH");
}

// OUE is optimal only as pi -> 0: its variance carries a +pi/n term that
// SUE's lacks, so at the ablation's pi_0 = 0.5 SUE has the lower
// variance (1.96e-4 against 2.09e-4).
TEST(OracleComparisonTest, SueBeatsOueAtHalfFrequency) {
  const double eps = 1.0;
  const int64_t n = 20000;
  UnaryEncodingOracle sue(32, eps, UnaryEncodingOracle::Variant::kSymmetric);
  UnaryEncodingOracle oue(32, eps, UnaryEncodingOracle::Variant::kOptimized);
  EXPECT_LT(sue.TheoreticalVariance(0.5, n),
            oue.TheoreticalVariance(0.5, n));
}

TEST(OracleComparisonTest, OlhBeatsDirectEncodingAtLargeDomains) {
  // OLH's variance is independent of r (like OUE), so it must win over
  // DE once the domain outgrows the epsilon budget.
  const double eps = 1.0;
  const int64_t n = 10000;
  DirectEncodingOracle de(256, eps);
  LocalHashingOracle olh(256, eps);
  EXPECT_LT(olh.TheoreticalVariance(0.05, n),
            de.TheoreticalVariance(0.05, n));
}

TEST(OracleFactoryTest, BuildsEveryBackend) {
  for (OracleBackend backend :
       {OracleBackend::kDirect, OracleBackend::kSymmetricUnary,
        OracleBackend::kOptimizedUnary, OracleBackend::kLocalHashing}) {
    auto oracle = MakeFrequencyOracle(backend, 8, 1.5);
    ASSERT_TRUE(oracle.ok()) << ToString(backend);
    EXPECT_EQ(oracle.value()->backend(), backend);
    EXPECT_EQ(oracle.value()->domain_size(), 8u);
    EXPECT_EQ(oracle.value()->produces_microdata(),
              backend == OracleBackend::kDirect);
    // Round trip through the spec token.
    auto parsed = OracleBackendFromString(ToString(backend));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), backend);
  }
}

TEST(OracleFactoryTest, RejectsBadArguments) {
  EXPECT_FALSE(MakeFrequencyOracle(OracleBackend::kDirect, 1, 1.0).ok());
  EXPECT_FALSE(MakeFrequencyOracle(OracleBackend::kLocalHashing, 8, 0.0).ok());
  EXPECT_FALSE(
      MakeFrequencyOracle(OracleBackend::kOptimizedUnary, 8, -1.0).ok());
  EXPECT_FALSE(OracleBackendFromString("rappor").ok());
}

TEST(OracleComparisonTest, TheoreticalVarianceMatchesEmpirical) {
  const size_t r = 8;
  const double eps = 1.5;
  const int n = 5000;
  const int replications = 400;
  DirectEncodingOracle oracle(r, eps);
  std::vector<double> pi = TestDistribution(r, 51);

  Rng rng(53);
  std::vector<double> estimates_of_first;
  for (int rep = 0; rep < replications; ++rep) {
    std::vector<uint32_t> reports(n);
    for (int i = 0; i < n; ++i) {
      reports[i] =
          oracle.Randomize(static_cast<uint32_t>(rng.Discrete(pi)), rng);
    }
    auto est = oracle.EstimateFrequencies(reports);
    ASSERT_TRUE(est.ok());
    estimates_of_first.push_back(est.value()[0]);
  }
  double mean = 0.0;
  for (double e : estimates_of_first) mean += e;
  mean /= replications;
  double variance = 0.0;
  for (double e : estimates_of_first) variance += (e - mean) * (e - mean);
  variance /= replications;
  double predicted = oracle.TheoreticalVariance(pi[0], n);
  EXPECT_NEAR(variance, predicted, 0.3 * predicted);
}

}  // namespace
}  // namespace mdrr
