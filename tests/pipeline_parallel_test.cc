// Thread-count invariance of the full sharded release pipeline: every
// stage (dependence assessment, adjustment, synthetic release, the
// party-level session, and the engine-driven composition of all of
// them) must produce bit-identical output at 1/2/4/8 workers for a
// fixed seed. Plus a regression pinning the fused Algorithm 2 rewrite
// to the sequential seed implementation's convergence behavior.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/adjustment.h"
#include "mdrr/core/batch_engine.h"
#include "mdrr/core/dependence.h"
#include "mdrr/core/dependence_estimators.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/synthetic.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/protocol/session.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

void ExpectSameDataset(const Dataset& a, const Dataset& b,
                       const char* what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_attributes(), b.num_attributes()) << what;
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    EXPECT_EQ(a.column(j), b.column(j)) << what << " column " << j;
  }
}

void ExpectSameMatrix(const linalg::Matrix& a, const linalg::Matrix& b,
                      const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << what << " cell " << i << "," << j;
    }
  }
}

// --- Dependence assessment ---

TEST(ParallelDependenceTest, ShardedMatrixBitIdenticalAcrossThreads) {
  Dataset data = SynthesizeAdult(3000, 2020);
  DependenceShardingOptions baseline_options;
  baseline_options.num_threads = 1;
  baseline_options.record_chunk_size = 256;
  linalg::Matrix baseline = DependenceMatrixSharded(data, baseline_options);
  for (size_t threads : kThreadSweep) {
    DependenceShardingOptions options;
    options.num_threads = threads;
    options.record_chunk_size = 256;
    linalg::Matrix run = DependenceMatrixSharded(data, options);
    ExpectSameMatrix(baseline, run, "dependences");
  }
}

TEST(ParallelDependenceTest, ChunkSizeNeverChangesTheMatrix) {
  // Joint counts are integers, so unlike the double reductions the
  // dependence matrix is invariant to the chunk grain too.
  Dataset data = SynthesizeAdult(1500, 7);
  DependenceShardingOptions a_options;
  a_options.num_threads = 4;
  a_options.record_chunk_size = 64;
  DependenceShardingOptions b_options;
  b_options.num_threads = 2;
  b_options.record_chunk_size = 1 << 16;
  ExpectSameMatrix(DependenceMatrixSharded(data, a_options),
                   DependenceMatrixSharded(data, b_options), "dependences");
}

// dependence.h's contract for the sharded matrix: every pair with a
// nominal member (Cramér's V) is bitwise equal to DependenceMatrix;
// ordinal-ordinal |Pearson| is evaluated from the joint table and may
// differ in the last ulps.
void ExpectMatchesSequential(const Dataset& data,
                             const DependenceShardingOptions& options) {
  linalg::Matrix sharded = DependenceMatrixSharded(data, options);
  linalg::Matrix sequential = DependenceMatrix(data);
  ASSERT_EQ(sharded.rows(), data.num_attributes());
  ASSERT_EQ(sequential.rows(), data.num_attributes());
  for (size_t i = 0; i < sharded.rows(); ++i) {
    for (size_t j = 0; j < sharded.cols(); ++j) {
      if (data.attribute(i).type == AttributeType::kOrdinal &&
          data.attribute(j).type == AttributeType::kOrdinal && i != j) {
        EXPECT_NEAR(sharded(i, j), sequential(i, j), 1e-9)
            << "ordinal cell " << i << "," << j;
      } else {
        EXPECT_EQ(sharded(i, j), sequential(i, j))
            << "cell " << i << "," << j;
      }
    }
  }
}

TEST(ParallelDependenceTest, MatchesSequentialStatistics) {
  // Adult's 28 pairs feed every worker, so each pair is accumulated
  // serially on the pair grid.
  DependenceShardingOptions options;
  options.num_threads = 4;
  options.record_chunk_size = 512;
  ExpectMatchesSequential(SynthesizeAdult(2000, 11), options);

  // 3 pairs cannot feed 4 workers (3 < 2 x 4), so each pair's record
  // range is sharded instead (PairCountsSharded). Education and Income
  // are the ordinal pair; Workclass makes the other two Cramér's V.
  options.record_chunk_size = 256;
  Dataset projected = SynthesizeAdult(2000, 11).Project(
      {kAdultEducation, kAdultIncome, kAdultWorkclass});
  ExpectMatchesSequential(projected, options);
}

TEST(ParallelDependenceTest, RandomizedResponseShardedIsDeterministic) {
  Dataset data = SynthesizeAdult(1200, 5);
  DependenceEstimatorOptions one;
  one.sharding.num_threads = 1;
  DependenceEstimate baseline =
      RandomizedResponseDependencesSharded(data, 0.7, 99, one);
  for (size_t threads : kThreadSweep) {
    DependenceEstimatorOptions options;
    options.sharding.num_threads = threads;
    DependenceEstimate run =
        RandomizedResponseDependencesSharded(data, 0.7, 99, options);
    EXPECT_EQ(baseline.epsilon, run.epsilon);
    ExpectSameMatrix(baseline.dependences, run.dependences, "rr dependences");
  }
}

// --- Adjustment ---

// The sequential seed implementation of Algorithm 2, kept verbatim as
// the behavioral reference for the fused rewrite.
AdjustmentResult ReferenceAdjustment(const std::vector<AdjustmentGroup>& groups,
                                     size_t num_records,
                                     const AdjustmentOptions& options) {
  AdjustmentResult result;
  result.weights.assign(num_records, 1.0 / static_cast<double>(num_records));
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (const AdjustmentGroup& group : groups) {
      std::vector<double> implied(group.target.size(), 0.0);
      for (size_t i = 0; i < num_records; ++i) {
        implied[group.codes[i]] += result.weights[i];
      }
      std::vector<double> ratio(group.target.size(), 1.0);
      for (size_t v = 0; v < ratio.size(); ++v) {
        if (implied[v] > 0.0) ratio[v] = group.target[v] / implied[v];
      }
      for (size_t i = 0; i < num_records; ++i) {
        result.weights[i] *= ratio[group.codes[i]];
      }
      double total = 0.0;
      for (double w : result.weights) total += w;
      for (double& w : result.weights) w /= total;
    }
    result.iterations = iter + 1;
    double max_gap = 0.0;
    for (const AdjustmentGroup& group : groups) {
      std::vector<double> implied(group.target.size(), 0.0);
      for (size_t i = 0; i < num_records; ++i) {
        implied[group.codes[i]] += result.weights[i];
      }
      for (size_t v = 0; v < implied.size(); ++v) {
        max_gap = std::max(max_gap, std::fabs(implied[v] - group.target[v]));
      }
    }
    result.max_marginal_gap = max_gap;
    if (max_gap < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

std::vector<AdjustmentGroup> MakeAdjustmentGroups(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<AdjustmentGroup> groups(3);
  groups[0].target = {0.5, 0.3, 0.2};
  groups[1].target = {0.4, 0.6};
  groups[2].target = {0.25, 0.25, 0.25, 0.25};
  for (size_t i = 0; i < n; ++i) {
    groups[0].codes.push_back(static_cast<uint32_t>(rng.UniformInt(3)));
    groups[1].codes.push_back(static_cast<uint32_t>(rng.UniformInt(2)));
    groups[2].codes.push_back(static_cast<uint32_t>(rng.UniformInt(4)));
  }
  return groups;
}

// A target over `width` categories proportional to each category's
// record count, tilted by a random factor, so all its mass is reachable.
std::vector<double> ReachableTarget(const std::vector<uint32_t>& codes,
                                    size_t width, Rng& rng) {
  std::vector<double> target(width, 0.0);
  for (uint32_t code : codes) target[code] += 1.0;
  double total = 0.0;
  for (double& t : target) {
    t *= 0.5 + rng.UniformDouble();
    total += t;
  }
  for (double& t : target) t /= total;
  return target;
}

TEST(ParallelAdjustmentTest, WeightsBitIdenticalAcrossThreads) {
  struct Input {
    const char* name;
    std::vector<AdjustmentGroup> groups;
    size_t n;
  };
  std::vector<Input> inputs;
  inputs.push_back({"random codes", MakeAdjustmentGroups(4000, 17), 4000});
  {
    // The groups RR-Clusters hands Algorithm 2 on synthetic Adult.
    Dataset data = SynthesizeAdult(6000, 43);
    BatchPerturbationOptions engine_options;
    engine_options.seed = 3;
    engine_options.shard_size = 500;
    engine_options.num_threads = 4;
    RrClustersOptions cluster_options;
    cluster_options.keep_probability = 0.7;
    auto release = BatchPerturbationEngine(engine_options)
                       .RunClusters(data, cluster_options);
    ASSERT_TRUE(release.ok());
    inputs.push_back(
        {"adult clusters", GroupsFromClusters(*release), data.num_rows()});
  }

  for (const Input& input : inputs) {
    AdjustmentOptions baseline_options;
    baseline_options.max_iterations = 200;
    baseline_options.tolerance = 1e-12;
    baseline_options.num_threads = 1;
    baseline_options.chunk_size = 256;
    auto baseline = RunRrAdjustment(input.groups, input.n, baseline_options);
    ASSERT_TRUE(baseline.ok()) << input.name;
    for (size_t threads : kThreadSweep) {
      AdjustmentOptions options = baseline_options;
      options.num_threads = threads;
      auto run = RunRrAdjustment(input.groups, input.n, options);
      ASSERT_TRUE(run.ok()) << input.name << " threads=" << threads;
      EXPECT_EQ(baseline.value().weights, run.value().weights)
          << input.name << " threads=" << threads;
      EXPECT_EQ(baseline.value().iterations, run.value().iterations)
          << input.name;
      EXPECT_EQ(baseline.value().max_marginal_gap,
                run.value().max_marginal_gap)
          << input.name;
      EXPECT_EQ(baseline.value().converged, run.value().converged)
          << input.name;
    }
  }
}

TEST(ParallelAdjustmentTest, ConvergesInSameIterationCountAsReference) {
  // Representative workloads: consistent random targets, the paper's
  // Example 1 shape, an unreachable-mass case, and the extremes of the
  // record-to-cell collapse.
  struct Case {
    std::vector<AdjustmentGroup> groups;
    size_t n;
  };
  std::vector<Case> cases;
  cases.push_back({MakeAdjustmentGroups(2500, 23), 2500});
  {
    std::vector<AdjustmentGroup> example(2);
    example[0].codes = {0, 0, 0, 0, 1, 1, 1, 1, 1, 1};
    example[0].target = {0.5, 0.5};
    example[1].codes = {0, 0, 0, 0, 0, 0, 1, 1, 1, 1};
    example[1].target = {0.5, 0.5};
    cases.push_back({example, 10});
  }
  {
    std::vector<AdjustmentGroup> unreachable(1);
    unreachable[0].codes = {0, 0, 0, 0};
    unreachable[0].target = {0.7, 0.3};
    cases.push_back({unreachable, 4});
  }
  {
    // Every record's tuple is distinct: the cell index is abandoned
    // halfway and each record is its own cell.
    const size_t n = 1200;
    Rng rng(29);
    std::vector<AdjustmentGroup> distinct(3);
    for (size_t i = 0; i < n; ++i) {
      distinct[0].codes.push_back(static_cast<uint32_t>(i / 4));
      distinct[1].codes.push_back(static_cast<uint32_t>((i % 4 + i / 4) % 5));
      distinct[2].codes.push_back(static_cast<uint32_t>(rng.UniformInt(3)));
    }
    distinct[0].target = ReachableTarget(distinct[0].codes, n / 4, rng);
    distinct[1].target = ReachableTarget(distinct[1].codes, 5, rng);
    distinct[2].target = ReachableTarget(distinct[2].codes, 3, rng);
    cases.push_back({distinct, n});
  }
  {
    // Every record shares one tuple: a single cell holds them all.
    std::vector<AdjustmentGroup> shared(3);
    shared[0].codes.assign(50, 1);
    shared[0].target = {0.3, 0.7};
    shared[1].codes.assign(50, 0);
    shared[1].target = {1.0};
    shared[2].codes.assign(50, 2);
    shared[2].target = {0.2, 0.3, 0.5};
    cases.push_back({shared, 50});
  }
  for (size_t num_tuples : {500, 501}) {
    // Either side of the half-the-records bound: 500 distinct tuples over
    // 1000 records run as cells, 501 as records. Records repeat their
    // tuple in a shuffled order, so repeats and new tuples interleave.
    const size_t n = 1000;
    Rng rng(41);
    std::vector<uint32_t> tuple_of(n);
    for (size_t i = 0; i < n; ++i) {
      tuple_of[i] = static_cast<uint32_t>(
          i < num_tuples ? i : rng.UniformInt(num_tuples));
    }
    rng.ShuffleU32(tuple_of.data(), n);
    std::vector<AdjustmentGroup> boundary(2);
    for (size_t i = 0; i < n; ++i) {
      boundary[0].codes.push_back(static_cast<uint32_t>(tuple_of[i] % 25));
      boundary[1].codes.push_back(static_cast<uint32_t>(tuple_of[i] / 25));
    }
    boundary[0].target = ReachableTarget(boundary[0].codes, 25, rng);
    boundary[1].target =
        ReachableTarget(boundary[1].codes, (num_tuples + 24) / 25, rng);
    cases.push_back({boundary, n});
  }
  {
    // 5 groups of 10 000 categories: the domain product 10^20 exceeds
    // 2^64, so a mixed-radix cell key would wrap. Records draw their
    // tuples from a pool, so cells repeat.
    const size_t n = 3000;
    const size_t width = 10000;
    Rng rng(37);
    std::vector<std::vector<uint32_t>> pool(400, std::vector<uint32_t>(5));
    for (std::vector<uint32_t>& tuple : pool) {
      for (uint32_t& code : tuple) {
        code = static_cast<uint32_t>(rng.UniformInt(width));
      }
    }
    std::vector<AdjustmentGroup> wide(5);
    for (size_t i = 0; i < n; ++i) {
      const std::vector<uint32_t>& tuple = pool[rng.UniformInt(pool.size())];
      for (size_t g = 0; g < wide.size(); ++g) {
        wide[g].codes.push_back(tuple[g]);
      }
    }
    for (AdjustmentGroup& group : wide) {
      group.target = ReachableTarget(group.codes, width, rng);
    }
    cases.push_back({wide, n});
  }

  for (size_t k = 0; k < cases.size(); ++k) {
    AdjustmentOptions options;
    options.max_iterations = 150;
    options.tolerance = 1e-10;
    options.num_threads = 4;
    options.chunk_size = 512;
    auto fused = RunRrAdjustment(cases[k].groups, cases[k].n, options);
    ASSERT_TRUE(fused.ok()) << "case " << k;
    AdjustmentResult reference =
        ReferenceAdjustment(cases[k].groups, cases[k].n, options);
    EXPECT_EQ(fused.value().iterations, reference.iterations)
        << "case " << k;
    EXPECT_EQ(fused.value().converged, reference.converged) << "case " << k;
    ASSERT_EQ(fused.value().weights.size(), reference.weights.size());
    for (size_t i = 0; i < reference.weights.size(); ++i) {
      EXPECT_NEAR(fused.value().weights[i], reference.weights[i], 1e-9)
          << "case " << k << " record " << i;
    }
    EXPECT_NEAR(fused.value().max_marginal_gap, reference.max_marginal_gap,
                1e-9)
        << "case " << k;
  }
}

// --- Cell-index edge cases ---

// The cell index splits the records into one contiguous part per worker
// (ceil(n / workers) records each; the chunk size below leaves the worker
// count at the thread count), scatters their keys into buckets and
// numbers the cells by first appearance. These inputs stress the part
// boundaries; at every thread count the weights must equal the one-part
// run bit for bit.
constexpr size_t kCellRecords = 1000;
constexpr size_t kCellChunk = 16;
constexpr size_t kCellThreads[] = {2, 3, 4, 7};

size_t FirstPartSize(size_t threads) {
  return (kCellRecords + threads - 1) / threads;
}

// Two groups over tuple ids (id % 25, id / 25), with reachable targets.
std::vector<AdjustmentGroup> GroupsFromTuples(
    const std::vector<uint32_t>& tuple_of, uint64_t seed) {
  uint32_t max_tuple = 0;
  for (uint32_t t : tuple_of) max_tuple = std::max(max_tuple, t);
  std::vector<AdjustmentGroup> groups(2);
  for (uint32_t t : tuple_of) {
    groups[0].codes.push_back(t % 25);
    groups[1].codes.push_back(t / 25);
  }
  Rng rng(seed);
  groups[0].target = ReachableTarget(groups[0].codes, 25, rng);
  groups[1].target = ReachableTarget(groups[1].codes, max_tuple / 25 + 1, rng);
  return groups;
}

void ExpectSameAsOnePart(const std::vector<AdjustmentGroup>& groups,
                         size_t threads, const char* name) {
  AdjustmentOptions options;
  options.max_iterations = 60;
  options.tolerance = 1e-12;
  options.chunk_size = kCellChunk;
  options.num_threads = 1;
  auto baseline = RunRrAdjustment(groups, kCellRecords, options);
  options.num_threads = threads;
  auto run = RunRrAdjustment(groups, kCellRecords, options);
  ASSERT_TRUE(baseline.ok()) << name;
  ASSERT_TRUE(run.ok()) << name << " threads=" << threads;
  EXPECT_EQ(baseline.value().weights, run.value().weights)
      << name << " threads=" << threads;
  EXPECT_EQ(baseline.value().iterations, run.value().iterations)
      << name << " threads=" << threads;
  EXPECT_EQ(baseline.value().max_marginal_gap, run.value().max_marginal_gap)
      << name << " threads=" << threads;
}

TEST(CellIndexPartsTest, HalfTheRecordsBoundaryCrossedInTheLastPart) {
  // Tuples 0..499 first appear in records 0..499; the rest of the
  // records repeat them, except that with 501 tuples the new one first
  // appears at record 990, inside the last part at every thread count.
  // 500 tuples over 1000 records run as cells, 501 as records.
  for (size_t num_tuples : {500, 501}) {
    Rng rng(43);
    std::vector<uint32_t> tuple_of(kCellRecords);
    for (size_t i = 0; i < kCellRecords; ++i) {
      tuple_of[i] = static_cast<uint32_t>(i < 500 ? i : rng.UniformInt(500));
    }
    if (num_tuples == 501) tuple_of[990] = 500;
    const auto groups = GroupsFromTuples(tuple_of, 47);
    for (size_t threads : kCellThreads) {
      ASSERT_GE(990u, (threads - 1) * FirstPartSize(threads));
      ExpectSameAsOnePart(groups, threads,
                          num_tuples == 500 ? "500 tuples" : "501 tuples");
    }
  }
}

TEST(CellIndexPartsTest, DistinctFirstPartGrowsItsTable) {
  // A part's table starts at the power of two >= the part size and grows
  // once it would pass half full. The first part opens with one distinct
  // tuple more than that half, so its table grows, and then repeats them,
  // so the grown table is searched; every later record repeats one of
  // them too, which keeps the whole input at <= n / 2 cells.
  for (size_t threads : kCellThreads) {
    const size_t first_part = FirstPartSize(threads);
    size_t slots = 1;
    while (slots < first_part) slots *= 2;
    const size_t distinct = slots / 2 + 1;
    ASSERT_LE(distinct, first_part);
    Rng rng(53 + threads);
    std::vector<uint32_t> tuple_of(kCellRecords);
    for (size_t i = 0; i < kCellRecords; ++i) {
      tuple_of[i] = static_cast<uint32_t>(
          i < distinct ? i : rng.UniformInt(distinct));
    }
    ExpectSameAsOnePart(GroupsFromTuples(tuple_of, 59), threads,
                        "distinct first part");
  }
}

TEST(CellIndexPartsTest, AllDistinctAndAllIdenticalInputs) {
  std::vector<uint32_t> distinct(kCellRecords);
  std::iota(distinct.begin(), distinct.end(), 0u);
  const std::vector<uint32_t> identical(kCellRecords, 7);
  for (size_t threads : kCellThreads) {
    ExpectSameAsOnePart(GroupsFromTuples(distinct, 61), threads,
                        "all distinct");
    ExpectSameAsOnePart(GroupsFromTuples(identical, 67), threads,
                        "all identical");
  }
}

// FNV-1a over the weights' bit patterns. The cells' order fixes the
// summation order of every sweep, so the pins below change when the
// cells are numbered in any order but first appearance, or when the
// cells-or-records decision moves.
uint64_t HashWeights(const std::vector<double>& weights) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (double w : weights) {
    uint64_t bits;
    std::memcpy(&bits, &w, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((bits >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
    }
  }
  return h;
}

// `num_groups` groups of `width` categories whose records take tuple
// tuple_of[i] of a pool of `pool_size` random tuples (tuple 0 is all
// width - 1, and tuples 1, 2, ... are `fixed`), with reachable targets.
std::vector<AdjustmentGroup> WideGroups(
    size_t num_groups, size_t width, const std::vector<uint32_t>& tuple_of,
    size_t pool_size, uint64_t seed,
    const std::vector<std::vector<uint32_t>>& fixed = {}) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> pool(pool_size,
                                          std::vector<uint32_t>(num_groups));
  for (size_t t = 0; t < pool_size; ++t) {
    for (size_t g = 0; g < num_groups; ++g) {
      pool[t][g] = static_cast<uint32_t>(
          t == 0 ? width - 1 : rng.UniformInt(width));
    }
  }
  for (size_t t = 0; t < fixed.size(); ++t) pool[t + 1] = fixed[t];
  std::vector<AdjustmentGroup> groups(num_groups);
  for (uint32_t t : tuple_of) {
    for (size_t g = 0; g < num_groups; ++g) {
      groups[g].codes.push_back(pool[t][g]);
    }
  }
  for (AdjustmentGroup& group : groups) {
    group.target = ReachableTarget(group.codes, width, rng);
  }
  return groups;
}

// Tuple ids for `n` records: the first `num_tuples` records open one
// tuple each, the rest repeat them at random.
std::vector<uint32_t> RepeatedTuples(size_t n, size_t num_tuples,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> tuple_of(n);
  for (size_t i = 0; i < n; ++i) {
    tuple_of[i] =
        static_cast<uint32_t>(i < num_tuples ? i : rng.UniformInt(num_tuples));
  }
  rng.ShuffleU32(tuple_of.data(), n);
  return tuple_of;
}

// The weights at one thread equal those at every kCellThreads count bit
// for bit, follow the sequential reference, and hash to `golden`. Wide
// groups run few iterations: each sweep resets a row of every category
// per chunk.
void ExpectCellIndexCase(const std::vector<AdjustmentGroup>& groups, size_t n,
                         uint64_t golden, const char* name,
                         int max_iterations = 60) {
  AdjustmentOptions options;
  options.max_iterations = max_iterations;
  options.tolerance = 1e-12;
  options.chunk_size = kCellChunk;
  options.num_threads = 1;
  auto baseline = RunRrAdjustment(groups, n, options);
  ASSERT_TRUE(baseline.ok()) << name << ": " << baseline.status().ToString();
  EXPECT_EQ(HashWeights(baseline->weights), golden) << name;
  for (size_t threads : kCellThreads) {
    options.num_threads = threads;
    auto run = RunRrAdjustment(groups, n, options);
    ASSERT_TRUE(run.ok()) << name << " threads=" << threads;
    EXPECT_EQ(baseline->weights, run->weights)
        << name << " threads=" << threads;
    EXPECT_EQ(baseline->iterations, run->iterations)
        << name << " threads=" << threads;
    EXPECT_EQ(baseline->max_marginal_gap, run->max_marginal_gap)
        << name << " threads=" << threads;
  }
  AdjustmentResult reference = ReferenceAdjustment(groups, n, options);
  EXPECT_EQ(baseline->iterations, reference.iterations) << name;
  ASSERT_EQ(baseline->weights.size(), reference.weights.size()) << name;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(baseline->weights[i], reference.weights[i], 1e-9)
        << name << " record " << i;
  }
}

// Every thread count refuses the groups with InvalidArgument.
void ExpectOutOfRange(const std::vector<AdjustmentGroup>& groups, size_t n,
                      const char* name) {
  AdjustmentOptions options;
  options.chunk_size = kCellChunk;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                         size_t{7}}) {
    options.num_threads = threads;
    auto run = RunRrAdjustment(groups, n, options);
    ASSERT_FALSE(run.ok()) << name << " threads=" << threads;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(run.status().message().find("group code out of target range"),
              std::string::npos)
        << name << ": " << run.status().ToString();
  }
}

// 65 537 = 2^16 + 1 categories per group: four groups' product passes
// 2^64 by 2^50 (one fold), seven groups' twice (two folds: 400 prefix
// cells times 65 537^3 passes it again).
constexpr size_t kWideWidth = 65537;

TEST(CellIndexKeysTest, ProductJustPast64BitsFoldsOnce) {
  const auto tuple_of = RepeatedTuples(kCellRecords, 400, 71);
  ExpectCellIndexCase(WideGroups(4, kWideWidth, tuple_of, 400, 73),
                      kCellRecords, 13649168953013204328ull, "one fold", 2);
  // With strides 65 537^g, the offsets (1, -4, 6, -4, 1) sum to
  // (65 537 - 1)^4 = 2^64: two tuples whose keys a wrapping product would
  // merge into one cell.
  const std::vector<std::vector<uint32_t>> colliding = {{5, 5, 5, 5, 5},
                                                        {6, 1, 11, 1, 6}};
  ExpectCellIndexCase(
      WideGroups(5, kWideWidth, tuple_of, 400, 131, colliding), kCellRecords,
      12125144883177774666ull, "wrapping keys collide", 2);
}

TEST(CellIndexKeysTest, ProductNeedingTwoFolds) {
  const auto tuple_of = RepeatedTuples(kCellRecords, 400, 79);
  ExpectCellIndexCase(WideGroups(7, kWideWidth, tuple_of, 400, 83),
                      kCellRecords, 12177235144038810873ull, "two folds",
                      2);
}

TEST(CellIndexKeysTest, FoldedPrefixPastHalfTheRecordsAbandonsToRecords) {
  // The first three groups alone give every record its own tuple, so the
  // fold before the fourth stops and every record is its own cell.
  std::vector<uint32_t> tuple_of(kCellRecords);
  std::iota(tuple_of.begin(), tuple_of.end(), 0u);
  auto groups = WideGroups(4, kWideWidth, tuple_of, kCellRecords, 89);
  ExpectCellIndexCase(groups, kCellRecords, 17473050498540618619ull,
                      "abandon at fold", 2);
  // The groups after the fold are still range-checked.
  groups[3].codes[kCellRecords - 1] = kWideWidth;
  ExpectOutOfRange(groups, kCellRecords, "abandon at fold, bad last group");
}

TEST(CellIndexKeysTest, HalfTheRecordsBoundaryPinned) {
  // 500 tuples over 1000 records run as cells, 501 as records; the pins
  // fix which side each lands on.
  for (size_t num_tuples : {500, 501}) {
    const auto groups =
        GroupsFromTuples(RepeatedTuples(kCellRecords, num_tuples, 97), 101);
    ExpectCellIndexCase(groups, kCellRecords,
                        num_tuples == 500 ? 14399981722318649378ull
                                          : 5990328339154035251ull,
                        num_tuples == 500 ? "500 tuples" : "501 tuples");
  }
}

TEST(CellIndexKeysTest, OneTupleFillsOneBucket) {
  std::vector<AdjustmentGroup> groups(3);
  groups[0].codes.assign(kCellRecords, 2);
  groups[0].target = {0.2, 0.3, 0.5};
  groups[1].codes.assign(kCellRecords, 0);
  groups[1].target = {0.6, 0.4};
  groups[2].codes.assign(kCellRecords, 6);
  groups[2].target.assign(7, 1.0 / 7);
  ExpectCellIndexCase(groups, kCellRecords, 11791883956557858981ull,
                      "one tuple");
}

TEST(CellIndexKeysTest, OneRecord) {
  std::vector<AdjustmentGroup> groups(2);
  groups[0].codes = {1};
  groups[0].target = {0.25, 0.75};
  groups[1].codes = {0};
  groups[1].target = {1.0};
  AdjustmentOptions options;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    options.num_threads = threads;
    auto run = RunRrAdjustment(groups, 1, options);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    EXPECT_EQ(run->weights, std::vector<double>{1.0});
    AdjustmentResult reference = ReferenceAdjustment(groups, 1, options);
    EXPECT_EQ(run->iterations, reference.iterations);
    EXPECT_EQ(run->converged, reference.converged);
  }
}

TEST(CellIndexKeysTest, OutOfRangeCodeInTheLastGroup) {
  // Without a fold, after one fold that keeps cells, and with a single
  // group.
  auto groups = GroupsFromTuples(RepeatedTuples(kCellRecords, 300, 103), 107);
  groups[1].codes[kCellRecords - 1] =
      static_cast<uint32_t>(groups[1].target.size());
  ExpectOutOfRange(groups, kCellRecords, "no fold");
  auto wide = WideGroups(4, kWideWidth, RepeatedTuples(kCellRecords, 400, 109),
                         400, 113);
  wide[3].codes[kCellRecords / 2] = kWideWidth + 5;
  ExpectOutOfRange(wide, kCellRecords, "one fold");
  std::vector<AdjustmentGroup> single(1);
  single[0].codes.assign(kCellRecords, 1);
  single[0].codes[0] = 9;
  single[0].target = {0.5, 0.5};
  ExpectOutOfRange(single, kCellRecords, "one group");
}

// --- Synthetic release ---

TEST(ParallelSyntheticTest, ShardSplitMeetsBothMarginalsExactly) {
  std::vector<int64_t> counts = {5000, 1, 0, 2345, 17, 4637};
  const int64_t n =
      std::accumulate(counts.begin(), counts.end(), int64_t{0});
  const size_t shard_size = 1000;
  auto per_shard = ApportionCountsAcrossShards(counts, n, shard_size);
  std::vector<int64_t> category_totals(counts.size(), 0);
  for (size_t s = 0; s < per_shard.size(); ++s) {
    int64_t rows = 0;
    for (size_t c = 0; c < counts.size(); ++c) {
      EXPECT_GE(per_shard[s][c], 0);
      rows += per_shard[s][c];
      category_totals[c] += per_shard[s][c];
    }
    int64_t expected_rows = std::min<int64_t>(
        static_cast<int64_t>(shard_size),
        n - static_cast<int64_t>(s * shard_size));
    EXPECT_EQ(rows, expected_rows) << "shard " << s;
  }
  EXPECT_EQ(category_totals, counts);
}

TEST(ParallelSyntheticTest, ReleaseBitIdenticalAcrossThreads) {
  Dataset data = SynthesizeAdult(3000, 13);
  BatchPerturbationOptions engine_options;
  engine_options.seed = 4;
  engine_options.shard_size = 300;
  engine_options.num_threads = 1;
  BatchPerturbationEngine engine(engine_options);
  auto release = engine.RunIndependent(data, RrIndependentOptions{0.7});
  ASSERT_TRUE(release.ok());

  auto baseline = engine.SynthesizeIndependent(*release, 2500);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : kThreadSweep) {
    BatchPerturbationOptions options = engine_options;
    options.num_threads = threads;
    auto run = BatchPerturbationEngine(options).SynthesizeIndependent(
        *release, 2500);
    ASSERT_TRUE(run.ok());
    ExpectSameDataset(baseline.value(), run.value(), "synthetic");
  }
}

TEST(ParallelSyntheticTest, ShardedMarginalsMatchApportionedCounts) {
  // Per-shard apportionment must preserve the exact global counts the
  // sequential expansion would produce; only the record order differs.
  Dataset data = SynthesizeAdult(2000, 29);
  BatchPerturbationOptions engine_options;
  engine_options.seed = 6;
  engine_options.shard_size = 128;
  engine_options.num_threads = 4;
  BatchPerturbationEngine engine(engine_options);
  auto release = engine.RunIndependent(data, RrIndependentOptions{0.8});
  ASSERT_TRUE(release.ok());
  const int64_t n = 1777;
  auto synthetic = engine.SynthesizeIndependent(*release, n);
  ASSERT_TRUE(synthetic.ok());
  ASSERT_EQ(synthetic.value().num_rows(), static_cast<size_t>(n));
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    std::vector<int64_t> expected =
        ApportionCounts(release.value().estimated[j], n);
    std::vector<int64_t> got(expected.size(), 0);
    for (uint32_t code : synthetic.value().column(j)) ++got[code];
    EXPECT_EQ(got, expected) << "attribute " << j;
  }
}

TEST(ParallelSyntheticTest, ClustersReleaseBitIdenticalAcrossThreads) {
  Dataset data = SynthesizeAdult(2500, 31);
  BatchPerturbationOptions engine_options;
  engine_options.seed = 8;
  engine_options.shard_size = 250;
  engine_options.num_threads = 1;
  RrClustersOptions cluster_options;
  cluster_options.keep_probability = 0.75;
  auto release =
      BatchPerturbationEngine(engine_options).RunClusters(data,
                                                          cluster_options);
  ASSERT_TRUE(release.ok());
  auto baseline =
      BatchPerturbationEngine(engine_options).SynthesizeClusters(*release,
                                                                 2000);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : kThreadSweep) {
    BatchPerturbationOptions options = engine_options;
    options.num_threads = threads;
    auto run =
        BatchPerturbationEngine(options).SynthesizeClusters(*release, 2000);
    ASSERT_TRUE(run.ok());
    ExpectSameDataset(baseline.value(), run.value(), "cluster synthetic");
  }
}

// --- Party-level session ---

TEST(ParallelSessionTest, TranscriptBitIdenticalAcrossThreads) {
  Dataset data = SynthesizeAdult(1500, 37);
  protocol::SessionOptions baseline_options;
  baseline_options.seed = 21;
  baseline_options.clustering = ClusteringOptions{50.0, 0.1};
  baseline_options.num_threads = 1;
  baseline_options.shard_size = 200;
  auto baseline = protocol::RunDistributedSession(data, baseline_options);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : kThreadSweep) {
    protocol::SessionOptions options = baseline_options;
    options.num_threads = threads;
    auto run = protocol::RunDistributedSession(data, options);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    EXPECT_EQ(baseline.value().clusters, run.value().clusters);
    EXPECT_EQ(baseline.value().cluster_joints, run.value().cluster_joints);
    EXPECT_EQ(baseline.value().round1_epsilon, run.value().round1_epsilon);
    EXPECT_EQ(baseline.value().round2_epsilon, run.value().round2_epsilon);
    ExpectSameDataset(baseline.value().randomized, run.value().randomized,
                      "session Y");
  }
}

// --- Full pipeline through the engine ---

TEST(ParallelPipelineTest, EndToEndBitIdenticalAcrossThreads) {
  // The acceptance contract: perturb + assess + cluster + estimate +
  // adjust + synthesize, all through the engine, bit-identical at any
  // worker count.
  Dataset data = SynthesizeAdult(2000, 41);
  RrClustersOptions cluster_options;
  cluster_options.keep_probability = 0.7;
  cluster_options.dependence_source = DependenceSource::kRandomizedResponse;

  struct PipelineOutput {
    RrClustersResult release;
    AdjustmentResult adjustment;
    Dataset synthetic;
  };
  auto run_pipeline = [&](size_t threads) -> PipelineOutput {
    BatchPerturbationOptions options;
    options.seed = 12;
    options.shard_size = 200;
    options.num_threads = threads;
    BatchPerturbationEngine engine(options);
    auto release = engine.RunClusters(data, cluster_options);
    EXPECT_TRUE(release.ok());
    AdjustmentOptions adjustment_options;
    adjustment_options.max_iterations = 50;
    auto adjustment = engine.RunAdjustment(GroupsFromClusters(*release),
                                           data.num_rows(),
                                           adjustment_options);
    EXPECT_TRUE(adjustment.ok());
    auto synthetic = engine.SynthesizeClusters(*release, 1500);
    EXPECT_TRUE(synthetic.ok());
    return {std::move(release).value(), std::move(adjustment).value(),
            std::move(synthetic).value()};
  };

  PipelineOutput baseline = run_pipeline(1);
  for (size_t threads : kThreadSweep) {
    PipelineOutput run = run_pipeline(threads);
    ASSERT_EQ(baseline.release.clusters, run.release.clusters);
    ExpectSameMatrix(baseline.release.dependences, run.release.dependences,
                     "pipeline dependences");
    ExpectSameDataset(baseline.release.randomized, run.release.randomized,
                      "pipeline Y");
    for (size_t c = 0; c < baseline.release.cluster_results.size(); ++c) {
      EXPECT_EQ(baseline.release.cluster_results[c].estimated,
                run.release.cluster_results[c].estimated);
    }
    EXPECT_EQ(baseline.adjustment.weights, run.adjustment.weights);
    EXPECT_EQ(baseline.adjustment.iterations, run.adjustment.iterations);
    ExpectSameDataset(baseline.synthetic, run.synthetic,
                      "pipeline synthetic");
  }
}

}  // namespace
}  // namespace mdrr
