// Section 4.2's secure sum, run literally as the reference the library's
// exact aggregation is checked against:
//
//   1. each party i chooses n random shares r_i1..r_in with
//      sum_j r_ij = 0 (mod M);
//   2. party i sends r_ij to party j;
//   3. party j broadcasts s_j = sum_i r_ij + c_j (mod M), where c_j is
//      party j's private contribution;
//   4. everyone computes sum_j s_j = sum_j c_j (mod M).
//
// The shares cancel, so the sum is exact whatever they are: with 0/1
// contributions and M = n + 1, SecureSumDependences
// (core/dependence_estimators.h) releases the trusted party's matrix
// and only counts the protocol's messages.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/common/check.h"
#include "mdrr/common/status_or.h"
#include "mdrr/core/dependence.h"
#include "mdrr/core/dependence_estimators.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/rng/rng.h"
#include "mdrr/stats/frequency.h"
#include "ladder_dataset.h"

namespace mdrr {
namespace {

// One literal run: party j holds contributions[j]; every party draws
// n - 1 uniform shares from `rng` in party order and closes its row to
// 0 (mod modulus) with the last share, then each party broadcasts its
// received shares plus its contribution. Fails on no parties or a
// contribution >= modulus.
StatusOr<uint64_t> LiteralSecureSum(uint64_t modulus,
                                    const std::vector<uint64_t>& contributions,
                                    Rng& rng) {
  const size_t n = contributions.size();
  if (n == 0) {
    return Status::InvalidArgument("secure sum needs at least one party");
  }
  for (uint64_t c : contributions) {
    if (c >= modulus) {
      return Status::InvalidArgument("contribution exceeds modulus");
    }
  }
  // inbox[j] accumulates the shares party j receives.
  std::vector<uint64_t> inbox(n, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t row_sum = 0;
    for (size_t j = 0; j + 1 < n; ++j) {
      const uint64_t share = rng.UniformInt(modulus);
      row_sum = (row_sum + share) % modulus;
      inbox[j] = (inbox[j] + share) % modulus;
    }
    inbox[n - 1] = (inbox[n - 1] + (modulus - row_sum) % modulus) % modulus;
  }
  uint64_t result = 0;
  for (size_t j = 0; j < n; ++j) {
    result = (result + (inbox[j] + contributions[j]) % modulus) % modulus;
  }
  return result;
}

// Point-to-point messages of one run: n shares per party plus n
// broadcasts.
uint64_t MessagesPerRun(uint64_t n) { return n * n + n; }

// Section 4.2's bivariate counts: one literal run per cell (a, b) of the
// row-major table, with 0/1 contributions and modulus n + 1.
std::vector<int64_t> LiteralBivariateCounts(
    const std::vector<uint32_t>& codes_a, size_t cardinality_a,
    const std::vector<uint32_t>& codes_b, size_t cardinality_b, Rng& rng) {
  const size_t n = codes_a.size();
  std::vector<int64_t> counts(cardinality_a * cardinality_b, 0);
  std::vector<uint64_t> contributions(n);
  for (size_t a = 0; a < cardinality_a; ++a) {
    for (size_t b = 0; b < cardinality_b; ++b) {
      for (size_t i = 0; i < n; ++i) {
        contributions[i] = codes_a[i] == a && codes_b[i] == b ? 1 : 0;
      }
      StatusOr<uint64_t> cell = LiteralSecureSum(n + 1, contributions, rng);
      MDRR_CHECK(cell.ok());
      counts[a * cardinality_b + b] = static_cast<int64_t>(cell.value());
    }
  }
  return counts;
}

TEST(SecureSumTest, LiteralProtocolComputesSum) {
  Rng rng(1);
  auto result = LiteralSecureSum(101, {3, 7, 11, 20}, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 41u);
}

TEST(SecureSumTest, ResultIsModular) {
  Rng rng(5);
  // 7 + 8 = 15 = 5 (mod 10).
  auto result = LiteralSecureSum(10, {7, 8}, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 5u);
}

TEST(SecureSumTest, PaperModulusCountsParties) {
  // The paper's setting: 0/1 contributions, modulus n + 1, so the sum is
  // exact.
  const size_t n = 50;
  Rng rng(7);
  std::vector<uint64_t> contributions(n, 0);
  for (size_t i = 0; i < n; i += 3) contributions[i] = 1;
  uint64_t expected = 0;
  for (uint64_t c : contributions) expected += c;
  auto result = LiteralSecureSum(n + 1, contributions, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), expected);
}

TEST(SecureSumTest, SingleParty) {
  Rng rng(11);
  auto result = LiteralSecureSum(7, {4}, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 4u);
}

TEST(SecureSumTest, RejectsBadInput) {
  Rng rng(13);
  EXPECT_FALSE(LiteralSecureSum(10, {}, rng).ok());
  EXPECT_FALSE(LiteralSecureSum(10, {10}, rng).ok());  // >= modulus.
}

TEST(SecureSumTest, DeterministicForSeedButSumInvariant) {
  // Different share randomness must never change the protocol output.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    auto result = LiteralSecureSum(1000, {5, 6, 7}, rng);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value(), 18u);
  }
}

// Two binary attributes over n = 10 parties, for the message counts.
Dataset MakeBinaryPair() {
  std::vector<Attribute> schema = {
      Attribute{"x", AttributeType::kNominal, {"0", "1"}},
      Attribute{"y", AttributeType::kNominal, {"0", "1"}}};
  return Dataset(schema, {{0, 1, 1, 0, 1, 0, 0, 1, 1, 1},
                          {1, 1, 0, 0, 1, 0, 1, 1, 0, 1}});
}

TEST(SecureSumTest, MessageCount) {
  // Each of the 2 x 2 cells is one n-party sum of n^2 + n messages.
  EXPECT_EQ(SecureSumDependences(MakeBinaryPair()).messages, 4u * 110u);
}

TEST(SecureFrequencyOracleTest, BivariateCountsMatchDirectCounts) {
  std::vector<uint32_t> a = {0, 0, 1, 1, 2, 2, 0, 1};
  std::vector<uint32_t> b = {0, 1, 0, 1, 0, 1, 0, 0};
  Rng rng(17);
  std::vector<int64_t> counts = LiteralBivariateCounts(a, 3, b, 2, rng);

  stats::ContingencyTable direct(a, 3, b, 2);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(counts[i * 2 + j], static_cast<int64_t>(direct.Cell(i, j)))
          << "cell " << i << "," << j;
    }
  }
}

TEST(SecureFrequencyOracleTest, CommunicationCostFormula) {
  // O(|A_i| |A_j| n) protocol runs: cells * (n^2 + n) messages per pair,
  // summed over the pair grid.
  Dataset ds = MakeLadderDataset(30, 3);
  uint64_t expected = 0;
  for (size_t i = 0; i < ds.num_attributes(); ++i) {
    for (size_t j = i + 1; j < ds.num_attributes(); ++j) {
      expected += ds.attribute(i).cardinality() *
                  ds.attribute(j).cardinality() * MessagesPerRun(30);
    }
  }
  EXPECT_EQ(SecureSumDependences(ds).messages, expected);
}

TEST(SecureSumReferenceTest, LiteralCellSumsReproduceSecureSumDependences) {
  // Every pair's table from per-cell literal secure sums, turned into a
  // dependence the way the library does, must be the released matrix
  // bit for bit -- sequential and sharded (the SecureSumLiteralTranscript
  // golden's dataset and options).
  Dataset ds = MakeLadderDataset(120, 79);
  const size_t m = ds.num_attributes();
  linalg::Matrix literal(m, m, 0.0);
  Rng rng(83);
  for (size_t i = 0; i < m; ++i) {
    literal(i, i) = 1.0;
    for (size_t j = i + 1; j < m; ++j) {
      const Attribute& a = ds.attribute(i);
      const Attribute& b = ds.attribute(j);
      std::vector<int64_t> counts = LiteralBivariateCounts(
          ds.column(i), a.cardinality(), ds.column(j), b.cardinality(), rng);
      literal(i, j) = literal(j, i) = DependenceFromJoint(
          std::vector<double>(counts.begin(), counts.end()), a.cardinality(),
          a.type, b.cardinality(), b.type,
          static_cast<double>(ds.num_rows()));
    }
  }
  DependenceEstimatorOptions sharded;
  sharded.rng = RngKind::kPhilox;
  sharded.sharding.num_threads = 4;
  sharded.sharding.record_chunk_size = 64;
  for (const DependenceEstimatorOptions& options :
       {DependenceEstimatorOptions{}, sharded}) {
    const linalg::Matrix released =
        SecureSumDependences(ds, options).dependences;
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) {
        EXPECT_EQ(released(i, j), literal(i, j)) << i << "," << j;
      }
    }
  }
}

}  // namespace
}  // namespace mdrr
