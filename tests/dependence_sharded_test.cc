// The sharded dependence-estimator contract: the Section 4.3 masking
// and the Section 4.1 publication are keyed by (stream, element), and
// the Section 4.2 sums are exact, so every estimator's output is
// bit-identical at every thread count and shard grain under both RNG
// policies; the redesigned pair-order
// transcripts are pinned by content hash; and the SIMD-lane alias
// lookup is bitwise identical to the scalar draw plan at every
// alignment and tail length.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/dependence_estimators.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/linalg/matrix.h"
#include "mdrr/rng/alias_sampler.h"
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"
#include "ladder_dataset.h"

namespace mdrr {
namespace {

// m binary attributes with a sliding copy chain, for pair-grid sweeps
// from a single pair (m = 2) up past the worker count.
Dataset MakeWideDataset(size_t m, size_t n, uint64_t seed) {
  std::vector<Attribute> schema;
  std::vector<std::vector<uint32_t>> cols(m);
  Rng rng(seed);
  for (size_t j = 0; j < m; ++j) {
    schema.push_back(Attribute{"x" + std::to_string(j),
                               AttributeType::kNominal,
                               {"0", "1"}});
  }
  for (size_t i = 0; i < n; ++i) {
    uint32_t prev = 0;
    for (size_t j = 0; j < m; ++j) {
      uint32_t v = (j > 0 && rng.Bernoulli(0.7))
                       ? prev
                       : static_cast<uint32_t>(rng.UniformInt(2));
      cols[j].push_back(v);
      prev = v;
    }
  }
  return Dataset(std::move(schema), std::move(cols));
}

DependenceEstimatorOptions MakeOptions(RngKind rng, size_t threads,
                                       size_t grain) {
  DependenceEstimatorOptions options;
  options.rng = rng;
  options.sharding.num_threads = threads;
  options.sharding.record_chunk_size = grain;
  return options;
}

void ExpectSameMatrix(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "entry (" << i << ", " << j << ")";
    }
  }
}

void ExpectSameEstimate(const DependenceEstimate& a,
                        const DependenceEstimate& b) {
  ExpectSameMatrix(a.dependences, b.dependences);
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.messages, b.messages);
}

// FNV-1a over the matrix bytes: the pinned-transcript fingerprint (same
// constants as rng_policy_test.cc).
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t HashMatrix(const linalg::Matrix& m) {
  uint64_t h = kFnvOffset;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      double v = m(i, j);
      const unsigned char* bytes = reinterpret_cast<const unsigned char*>(&v);
      for (size_t k = 0; k < sizeof(v); ++k) {
        h ^= bytes[k];
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

const size_t kThreadSweep[] = {1, 2, 4, 8};
const size_t kGrainSweep[] = {32, 1024, 65536};

// ---------------------------------------------------------------------------
// Secure sum (Section 4.2): pair-grid + record-range sharding.
// ---------------------------------------------------------------------------

TEST(SecureSumShardedTest, FastSimInvariantAcrossThreadsGrainsAndPolicies) {
  Dataset ds = MakeLadderDataset(5000, 11);
  DependenceEstimate sequential = SecureSumDependences(ds);
  for (RngKind rng : {RngKind::kMt19937, RngKind::kPhilox}) {
    for (size_t threads : kThreadSweep) {
      for (size_t grain : kGrainSweep) {
        // The secure sums are exact, so every policy and schedule must
        // reproduce the sequential estimate bit for bit.
        ExpectSameEstimate(
            sequential,
            SecureSumDependences(ds, MakeOptions(rng, threads, grain)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pairwise RR (Section 4.3): stream-per-pair masking + sharded counting.
// ---------------------------------------------------------------------------

TEST(PairwiseRrShardedTest, FastSimInvariantAcrossThreadsAndGrains) {
  Dataset ds = MakeLadderDataset(3000, 23);
  for (RngKind rng : {RngKind::kMt19937, RngKind::kPhilox}) {
    auto baseline = PairwiseRrDependences(
        ds, 0.7, 29, MakeOptions(rng, 1, 64));
    ASSERT_TRUE(baseline.ok());
    for (size_t threads : kThreadSweep) {
      for (size_t grain : kGrainSweep) {
        auto run = PairwiseRrDependences(
            ds, 0.7, 29, MakeOptions(rng, threads, grain));
        ASSERT_TRUE(run.ok()) << "threads=" << threads << " grain=" << grain;
        ExpectSameEstimate(baseline.value(), run.value());
      }
    }
  }
}

TEST(PairwiseRrShardedTest, PairGridSweepFromSinglePairPastWorkerCount) {
  // m = 2 is the single-pair edge (record-range regime at any worker
  // count); m = 9 gives 36 pairs (pair-grid regime even at 8 workers).
  for (size_t m = 2; m <= 9; ++m) {
    Dataset ds = MakeWideDataset(m, 600, 41 + m);
    for (RngKind rng : {RngKind::kMt19937, RngKind::kPhilox}) {
      auto baseline = PairwiseRrDependences(
          ds, 0.7, 43, MakeOptions(rng, 1, 128));
      ASSERT_TRUE(baseline.ok());
      for (size_t threads : {3u, 8u}) {
        auto run = PairwiseRrDependences(
            ds, 0.7, 43, MakeOptions(rng, threads, 128));
        ASSERT_TRUE(run.ok()) << "m=" << m << " threads=" << threads;
        ExpectSameEstimate(baseline.value(), run.value());
      }
      DependenceEstimate secure =
          SecureSumDependences(ds, MakeOptions(rng, 1, 128));
      for (size_t threads : {3u, 8u}) {
        ExpectSameEstimate(
            secure, SecureSumDependences(ds, MakeOptions(rng, threads, 128)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Section 4.1 publication: philox shards the publication itself.
// ---------------------------------------------------------------------------

TEST(RandomizedResponseShardedTest, PhiloxInvariantAcrossThreadsAndGrains) {
  Dataset ds = MakeLadderDataset(2500, 53);
  DependenceEstimate baseline = RandomizedResponseDependencesSharded(
      ds, 0.7, 59, MakeOptions(RngKind::kPhilox, 1, 64));
  for (size_t threads : kThreadSweep) {
    for (size_t grain : kGrainSweep) {
      DependenceEstimate run = RandomizedResponseDependencesSharded(
          ds, 0.7, 59, MakeOptions(RngKind::kPhilox, threads, grain));
      ExpectSameEstimate(baseline, run);
    }
  }
}

TEST(RandomizedResponseShardedTest, MtReplaysSequentialTranscript) {
  // The mt19937 publication is one privacy-budgeted interaction whose
  // draws must not depend on the worker count: the sharded form replays
  // RandomizedResponseDependences' single-stream transcript, and on
  // all-nominal data the sharded statistics are bitwise equal too.
  Dataset ds = MakeLadderDataset(1500, 61);
  DependenceEstimate sequential = RandomizedResponseDependences(ds, 0.7, 67);
  for (size_t threads : {1u, 4u}) {
    DependenceEstimate sharded = RandomizedResponseDependencesSharded(
        ds, 0.7, 67, MakeOptions(RngKind::kMt19937, threads, 256));
    ExpectSameEstimate(sequential, sharded);
  }
}

// ---------------------------------------------------------------------------
// Redesigned pair-order transcripts: content-hash pins.
// ---------------------------------------------------------------------------

// The estimators draw on stream 1 + p per pair (1 + j per attribute for
// the Section 4.1 publication) instead of one consumed-in-order stream.
// These hashes pin the redesigned draw plans; a change in stream
// addressing, draw order, or the reduction arithmetic shows up here.
TEST(DependenceTranscriptGoldens, PairwiseRrMtTranscript) {
  Dataset ds = MakeLadderDataset(400, 71);
  auto run = PairwiseRrDependences(
      ds, 0.6, 73, MakeOptions(RngKind::kMt19937, 4, 64));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(HashMatrix(run.value().dependences), 0xf41fe8a5146b4889ull);
}

TEST(DependenceTranscriptGoldens, PairwiseRrPhiloxTranscript) {
  Dataset ds = MakeLadderDataset(400, 71);
  auto run = PairwiseRrDependences(
      ds, 0.6, 73, MakeOptions(RngKind::kPhilox, 4, 64));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(HashMatrix(run.value().dependences), 0xc5396469b40cb3c9ull);
}

TEST(DependenceTranscriptGoldens, SecureSumLiteralTranscript) {
  // Literal share draws cancel (mpc_test.cc rebuilds this matrix from
  // per-cell literal secure sums), so this pin guards the exactness of
  // the protocol output under sharding.
  Dataset ds = MakeLadderDataset(120, 79);
  DependenceEstimate run =
      SecureSumDependences(ds, MakeOptions(RngKind::kPhilox, 4, 64));
  EXPECT_EQ(HashMatrix(run.dependences), 0xdc9ced8855ec02b1ull);
}

TEST(DependenceTranscriptGoldens, RandomizedResponseMtTranscript) {
  // The mt19937 publication draws one sequential stream over all
  // attributes (MtReplaysSequentialTranscript only compares two paths
  // that share it); this pin fixes the stream's words themselves.
  Dataset ds = MakeLadderDataset(400, 71);
  DependenceEstimate run = RandomizedResponseDependencesSharded(
      ds, 0.7, 89, MakeOptions(RngKind::kMt19937, 4, 64));
  EXPECT_EQ(HashMatrix(run.dependences), 0xadd133a770a50325ull);
}

TEST(DependenceTranscriptGoldens, RandomizedResponsePhiloxTranscript) {
  Dataset ds = MakeLadderDataset(400, 71);
  DependenceEstimate run = RandomizedResponseDependencesSharded(
      ds, 0.7, 89, MakeOptions(RngKind::kPhilox, 4, 64));
  EXPECT_EQ(HashMatrix(run.dependences), 0x166b3e0b034159e1ull);
}

// ---------------------------------------------------------------------------
// SIMD-lane alias lookup: bitwise identical to the scalar draw plan.
// ---------------------------------------------------------------------------

TEST(AliasLookupSimdTest, MatchesScalarAtAllAlignmentsAndTailLengths) {
  AliasSampler sampler(
      std::vector<double>{0.5, 1.5, 3.0, 0.25, 2.0, 1.0, 0.75, 4.0});
  std::vector<double> thresholds;
  std::vector<uint32_t> aliases;
  sampler.AppendTables(thresholds, aliases);
  constexpr size_t kMax = 64;
  std::vector<double> units(kMax);
  std::vector<uint64_t> raws(kMax);
  PhiloxFillElementDraws(/*seed=*/91, /*stream=*/3, /*first=*/0, kMax,
                         units.data(), raws.data());
  // Sweep every start offset (memory alignment of the lane loads) and
  // every count through several SIMD widths plus tails, including 0.
  for (size_t offset = 0; offset < 5; ++offset) {
    for (size_t count = 0; count <= 20; ++count) {
      std::vector<uint32_t> block(count, 0xffffffffu);
      AliasLookupBlock(thresholds.data(), aliases.data(), sampler.size(),
                       thresholds.size(), /*rows=*/nullptr,
                       units.data() + offset, raws.data() + offset, count,
                       block.data());
      for (size_t k = 0; k < count; ++k) {
        EXPECT_EQ(block[k],
                  sampler.SampleFrom(units[offset + k], raws[offset + k]))
            << "offset=" << offset << " k=" << k;
      }
    }
  }
}

TEST(AliasLookupSimdTest, MultiRowLookupMatchesPerRowSamplers) {
  // Three tables of equal bucket count fused into one strided SoA pair,
  // as RrMatrix's dense tiles lay them out: rows[k] picks the table.
  std::vector<AliasSampler> samplers;
  samplers.emplace_back(std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0});
  samplers.emplace_back(std::vector<double>{5.0, 1.0, 1.0, 1.0, 2.0});
  samplers.emplace_back(std::vector<double>{0.1, 0.1, 0.1, 9.0, 0.7});
  std::vector<double> thresholds;
  std::vector<uint32_t> aliases;
  for (const AliasSampler& s : samplers) {
    s.AppendTables(thresholds, aliases);
  }
  const uint64_t bound = samplers[0].size();

  constexpr size_t kCount = 41;  // Deliberately not a multiple of 4.
  std::vector<double> units(kCount);
  std::vector<uint64_t> raws(kCount);
  PhiloxFillElementDraws(/*seed=*/97, /*stream=*/5, /*first=*/7, kCount,
                         units.data(), raws.data());
  std::vector<uint32_t> rows(kCount);
  for (size_t k = 0; k < kCount; ++k) {
    rows[k] = static_cast<uint32_t>(k % samplers.size());
  }

  std::vector<uint32_t> got(kCount, 0xffffffffu);
  AliasLookupBlock(thresholds.data(), aliases.data(), bound,
                   thresholds.size(), rows.data(), units.data(), raws.data(),
                   kCount, got.data());
  for (size_t k = 0; k < kCount; ++k) {
    EXPECT_EQ(got[k], samplers[rows[k]].SampleFrom(units[k], raws[k]))
        << "k=" << k;
  }
}

}  // namespace
}  // namespace mdrr
