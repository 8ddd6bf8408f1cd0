// Golden tests for the batched session: every optimization it layers on
// top of the per-party reference loop of session_reference.h -- the
// specialized seed sequence, the lane-batched engine seeding, the
// columnar sweeps with fused counting/decode -- must leave the published
// transcript bit-wise unchanged.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/clustering.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/protocol/party_block.h"
#include "mdrr/protocol/session.h"
#include "mdrr/rng/fast_seed.h"
#include "mdrr/rng/rng.h"
#include "session_reference.h"

namespace mdrr::protocol {
namespace {

Dataset MakeCorrelatedDataset(size_t n, uint64_t seed) {
  std::vector<Attribute> schema = {
      Attribute{"A", AttributeType::kNominal, {"0", "1", "2"}},
      Attribute{"B", AttributeType::kNominal, {"0", "1", "2"}},
      Attribute{"C", AttributeType::kNominal, {"0", "1"}},
      Attribute{"D", AttributeType::kNominal, {"0", "1", "2", "3"}},
  };
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> cols(4);
  for (size_t i = 0; i < n; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.Discrete({0.5, 0.3, 0.2}));
    uint32_t b =
        rng.Bernoulli(0.85) ? a : static_cast<uint32_t>(rng.UniformInt(3));
    cols[0].push_back(a);
    cols[1].push_back(b);
    cols[2].push_back(static_cast<uint32_t>(rng.UniformInt(2)));
    cols[3].push_back(static_cast<uint32_t>(rng.UniformInt(4)));
  }
  return Dataset(schema, std::move(cols));
}

// --- Seeding layer. ---

TEST(FastSeedTest, FourWordSeedSeqMatchesStdSeedSeq) {
  Rng seed_source(99);
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t seed = seed_source.engine()();
    uint64_t state = seed;
    std::seed_seq reference_seq{SplitMix64Next(state), SplitMix64Next(state),
                                SplitMix64Next(state), SplitMix64Next(state)};
    std::mt19937_64 reference(reference_seq);
    FourWordSeedSeq fast_seq(seed);
    std::mt19937_64 fast(fast_seq);
    // 700 draws cross the engine's 312-word twist boundary twice, so a
    // seeding divergence anywhere in the state would surface.
    for (int draw = 0; draw < 700; ++draw) {
      ASSERT_EQ(reference(), fast()) << "seed " << seed << " draw " << draw;
    }
  }
}

TEST(FastSeedTest, GenericRequestLengthsMatchStdSeedSeq) {
  for (size_t request : {size_t{0}, size_t{1}, size_t{5}, size_t{40},
                         size_t{623}, size_t{625}, size_t{1248}}) {
    // FourWordSeedSeq(77) expands 77 through SplitMix64; hand the same
    // four entropy words to a std::seed_seq and compare raw generate().
    uint64_t state = 77;
    uint64_t e0 = SplitMix64Next(state), e1 = SplitMix64Next(state);
    uint64_t e2 = SplitMix64Next(state), e3 = SplitMix64Next(state);
    std::seed_seq expanded_ref{e0, e1, e2, e3};
    std::vector<uint32_t> want(request), got(request);
    expanded_ref.generate(want.begin(), want.end());
    FourWordSeedSeq fast(77);
    fast.generate(got.begin(), got.end());
    EXPECT_EQ(want, got) << "request length " << request;
  }
}

TEST(FastSeedTest, SeedBlockBodiesMatchFourWordSeedSeq) {
  struct Body {
    SimdBody body;
    const char* name;
    bool ran = false;
  };
  Body bodies[] = {{SimdBody::kPortable, "portable"},
                   {SimdBody::kAvx2, "AVX2"}};
  Rng seed_source(5);
  std::vector<uint32_t> want(kEngineSeedWords);
  std::vector<uint32_t> stage(kSeedStageLanes * kEngineSeedWords);
  auto block = std::make_unique<SeedBlock>();
  for (int trial = 0; trial < 20; ++trial) {
    uint64_t seeds[kSeedLanes];
    for (uint64_t& s : seeds) s = seed_source.engine()();
    if (trial == 0) {
      seeds[0] = 0;
      seeds[kSeedLanes - 1] = ~uint64_t{0};
    }
    for (Body& body : bodies) {
      body.ran = GenerateSeedBlockOn(body.body, seeds, block.get());
      if (!body.ran) continue;
      for (size_t l = 0; l < kSeedLanes; ++l) {
        FourWordSeedSeq(seeds[l]).GenerateEngineWords(want.data());
        for (size_t i = 0; i < kEngineSeedWords; ++i) {
          ASSERT_EQ(block->words[i][l], want[i])
              << body.name << ", seed " << seeds[l] << ", word " << i;
        }
        if (l % kSeedStageLanes == 0) {
          ASSERT_TRUE(StageSeedLanesOn(body.body, *block, l, stage.data()));
        }
        const size_t at = (l % kSeedStageLanes) * kEngineSeedWords;
        ASSERT_EQ(std::vector<uint32_t>(stage.begin() + at,
                                        stage.begin() + at + kEngineSeedWords),
                  want)
            << body.name << " staged, seed " << seeds[l];
      }
    }
  }
  EXPECT_TRUE(bodies[0].ran);
  for (const Body& body : bodies) {
    if (!body.ran) {
      std::printf("%s seed body not checked: the CPU lacks it\n", body.name);
    }
  }
}

TEST(FastSeedTest, ForEachSeedSequenceMatchesPerPartyConstruction) {
  constexpr size_t L = kSeedLanes;
  for (size_t count :
       {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{15},
        size_t{16}, size_t{17}, L - 1, L, L + 1, size_t{64}, size_t{130},
        2 * L + 1}) {
    std::vector<uint64_t> seeds(count);
    Rng seed_source(11 + count);
    for (uint64_t& s : seeds) s = seed_source.engine()();

    std::vector<Rng> batch(count, Rng(0));
    ForEachSeedSequence(seeds.data(), count, [&](size_t i, SeedWords words) {
      batch[i].engine().seed(words);
    });
    for (size_t i = 0; i < count; ++i) {
      Rng reference(seeds[i]);
      for (int draw = 0; draw < 350; ++draw) {
        ASSERT_EQ(reference.engine()(), batch[i].engine()())
            << "count " << count << " rng " << i << " draw " << draw;
      }
    }
  }
}

// Every lane of full and partial blocks, seeded in place from its block
// lane as RandomizeRecords' transient engines are, draws what Rng(seed)
// and std::mt19937_64 over std::seed_seq{SplitMix64 x 4} draw, through
// operator(), Generate and discard, with the first 0-350 words taken
// before or after the 16-word first chunk and the 312-word cycle. Every
// check runs inside the walk's callback, while the lane is valid.
TEST(FastSeedTest, LaneViewsSeedDeferredEnginesExactly) {
  constexpr size_t L = kSeedLanes;
  for (size_t count : {size_t{1}, L - 1, L, L + 1, 2 * L + 1}) {
    std::vector<uint64_t> seeds(count);
    Rng seed_source(31 + count);
    for (uint64_t& s : seeds) s = seed_source.engine()();
    size_t visited = 0;
    ForEachSeedSequence(seeds.data(), count, [&](size_t i, SeedWords lane) {
      ++visited;
      uint64_t state = seeds[i];
      std::seed_seq seq{SplitMix64Next(state), SplitMix64Next(state),
                        SplitMix64Next(state), SplitMix64Next(state)};
      std::mt19937_64 reference(seq);
      Rng library(seeds[i]);
      std::vector<uint64_t> want(400);
      for (uint64_t& w : want) {
        w = reference();
        ASSERT_EQ(library.engine()(), w) << "count " << count << " rng " << i;
      }
      for (size_t split : {0, 1, 15, 16, 17, 100, 311, 312, 313, 350}) {
        SCOPED_TRACE(testing::Message() << "count " << count << " rng " << i
                                        << " split " << split);
        Rng drawn(lane, kDeferredSeed);
        for (size_t k = 0; k < want.size(); ++k) {
          ASSERT_EQ(drawn.engine()(), want[k]) << "draw " << k;
        }
        Rng generated(lane, kDeferredSeed);
        std::vector<uint64_t> got(want.size());
        generated.engine().Generate(got.data(), split);
        generated.engine().Generate(got.data() + split, got.size() - split);
        ASSERT_EQ(got, want);
        Rng skipped(lane, kDeferredSeed);
        skipped.engine().discard(split);
        for (size_t k = split; k < want.size(); ++k) {
          ASSERT_EQ(skipped.engine()(), want[k]) << "draw " << k;
        }
      }
    });
    EXPECT_EQ(visited, count);
  }
}

// --- PartyBlock sweeps vs the Party object loop. ---

TEST(PartyBlockTest, Round1MatchesPartyLoopBitwise) {
  const size_t n = 5000;
  Dataset data = MakeCorrelatedDataset(n, 21);
  const size_t m = data.num_attributes();
  std::vector<RrMatrix> matrices;
  for (size_t j = 0; j < m; ++j) {
    matrices.push_back(
        RrMatrix::KeepUniform(data.attribute(j).cardinality(), 0.7));
  }

  Rng loop_seeder(5);
  std::vector<Party> parties;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> record(m);
    for (size_t j = 0; j < m; ++j) record[j] = data.at(i, j);
    parties.emplace_back(std::move(record), loop_seeder.engine()());
  }
  std::vector<std::vector<uint32_t>> expected(m, std::vector<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> published = parties[i].PublishIndependent(matrices);
    for (size_t j = 0; j < m; ++j) expected[j][i] = published[j];
  }

  Rng block_seeder(5);
  PartyBlock block(data, block_seeder);
  std::vector<std::vector<uint32_t>> actual(m, std::vector<uint32_t>(n));
  block.PublishIndependent(matrices, /*shard_size=*/701, /*num_threads=*/1,
                           &actual);
  EXPECT_EQ(expected, actual);
}

TEST(PartyBlockTest, Round2MatchesPartyLoopBitwise) {
  const size_t n = 5000;
  Dataset data = MakeCorrelatedDataset(n, 22);
  const size_t m = data.num_attributes();
  AttributeClustering clusters = {{0, 1}, {2}, {3}};
  std::vector<Domain> domains;
  std::vector<RrMatrix> matrices;
  for (const std::vector<size_t>& cluster : clusters) {
    domains.push_back(Domain::ForAttributes(data, cluster));
    matrices.push_back(RrMatrix::KeepUniform(
        static_cast<size_t>(domains.back().size()), 0.6));
  }
  std::vector<RrMatrix> round1;
  for (size_t j = 0; j < m; ++j) {
    round1.push_back(
        RrMatrix::KeepUniform(data.attribute(j).cardinality(), 0.8));
  }

  // Reference: both rounds through Party objects, so round 2 continues
  // each party's round-1 stream exactly as in a real session.
  Rng loop_seeder(7);
  std::vector<Party> parties;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> record(m);
    for (size_t j = 0; j < m; ++j) record[j] = data.at(i, j);
    parties.emplace_back(std::move(record), loop_seeder.engine()());
  }
  std::vector<std::vector<uint32_t>> expected_codes(
      clusters.size(), std::vector<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) {
    parties[i].PublishIndependent(round1);
    std::vector<uint32_t> published =
        parties[i].PublishClusters(clusters, domains, matrices);
    for (size_t c = 0; c < clusters.size(); ++c) {
      expected_codes[c][i] = published[c];
    }
  }

  Rng block_seeder(7);
  PartyBlock block(data, block_seeder);
  std::vector<std::vector<uint32_t>> round1_columns(
      m, std::vector<uint32_t>(n));
  block.PublishIndependent(round1, /*shard_size=*/1024, /*num_threads=*/1,
                           &round1_columns);
  ClusterSweepResult sweep = block.PublishClusters(
      clusters, domains, matrices, /*shard_size=*/1024, /*num_threads=*/1,
      /*collect_codes=*/true);
  EXPECT_EQ(expected_codes, sweep.codes);

  // The fused by-products must equal their post-hoc equivalents.
  for (size_t c = 0; c < clusters.size(); ++c) {
    std::vector<int64_t> histogram(matrices[c].size(), 0);
    for (uint32_t code : expected_codes[c]) ++histogram[code];
    EXPECT_EQ(histogram, sweep.counts[c]) << "cluster " << c;
    for (size_t k = 0; k < clusters[c].size(); ++k) {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(domains[c].DecodeAt(expected_codes[c][i], k),
                  sweep.decoded[c][k][i])
            << "cluster " << c << " position " << k << " party " << i;
      }
    }
  }
}

TEST(PartyBlockTest, ShardGrainAndLaneTailsNeverChangePublications) {
  const size_t n = 1037;  // Prime-ish: exercises ragged lane tails.
  Dataset data = MakeCorrelatedDataset(n, 23);
  const size_t m = data.num_attributes();
  std::vector<RrMatrix> matrices;
  for (size_t j = 0; j < m; ++j) {
    matrices.push_back(
        RrMatrix::KeepUniform(data.attribute(j).cardinality(), 0.7));
  }
  std::vector<std::vector<uint32_t>> reference;
  for (size_t shard_size : {size_t{1}, size_t{3}, size_t{8}, size_t{64},
                            size_t{1037}, size_t{4096}}) {
    Rng seeder(13);
    PartyBlock block(data, seeder);
    std::vector<std::vector<uint32_t>> columns(m, std::vector<uint32_t>(n));
    block.PublishIndependent(matrices, shard_size, /*num_threads=*/2,
                             &columns);
    if (reference.empty()) {
      reference = std::move(columns);
    } else {
      EXPECT_EQ(reference, columns) << "shard_size " << shard_size;
    }
  }
}

// --- Full sessions. ---

void ExpectSessionsEqual(const SessionResult& a, const SessionResult& b) {
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.cluster_joints, b.cluster_joints);
  EXPECT_EQ(a.round1_epsilon, b.round1_epsilon);
  EXPECT_EQ(a.round2_epsilon, b.round2_epsilon);
  EXPECT_EQ(a.messages_round1, b.messages_round1);
  EXPECT_EQ(a.messages_broadcast, b.messages_broadcast);
  EXPECT_EQ(a.messages_round2, b.messages_round2);
  ASSERT_EQ(a.randomized.num_attributes(), b.randomized.num_attributes());
  for (size_t j = 0; j < a.randomized.num_attributes(); ++j) {
    EXPECT_EQ(a.randomized.column(j), b.randomized.column(j))
        << "column " << j;
  }
}

TEST(SessionFastPathTest, BatchedMatchesPartyLoopOnCorrelatedData) {
  Dataset data = MakeCorrelatedDataset(20000, 31);
  SessionOptions options;
  options.keep_probability = 0.8;
  options.round1_keep_probability = 0.8;
  options.clustering = ClusteringOptions{20.0, 0.1};
  options.seed = 5;

  auto reference = RunPartyLoopSession(data, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto batched = RunDistributedSession(data, options);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ExpectSessionsEqual(reference.value(), batched.value());
}

TEST(SessionFastPathTest, BatchedMatchesPartyLoopOnAdultSample) {
  Dataset adult = SynthesizeAdult(8000, 17);
  SessionOptions options;
  options.keep_probability = 0.7;
  options.clustering = ClusteringOptions{50.0, 0.1};
  options.seed = 42;

  auto reference = RunPartyLoopSession(adult, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto batched = RunDistributedSession(adult, options);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ExpectSessionsEqual(reference.value(), batched.value());
}

TEST(SessionFastPathTest, MessageAccountingMatchesPartyCount) {
  Dataset data = MakeCorrelatedDataset(750, 33);
  SessionOptions options;
  options.clustering = ClusteringOptions{20.0, 0.1};
  auto session = RunDistributedSession(data, options);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value().messages_round1, 750u);
  EXPECT_EQ(session.value().messages_broadcast, 750u);
  EXPECT_EQ(session.value().messages_round2, 750u);
}

TEST(SessionFastPathTest, BatchedThreadSweepIsBitIdentical) {
  Dataset adult = SynthesizeAdult(6000, 19);
  SessionOptions options;
  options.keep_probability = 0.7;
  options.clustering = ClusteringOptions{50.0, 0.1};
  options.seed = 3;
  options.shard_size = 512;  // Several shards per worker at every count.

  options.num_threads = 1;
  auto reference = RunDistributedSession(adult, options);
  ASSERT_TRUE(reference.ok());
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    options.num_threads = threads;
    auto run = RunDistributedSession(adult, options);
    ASSERT_TRUE(run.ok());
    ExpectSessionsEqual(reference.value(), run.value());
  }
}

TEST(SessionFastPathTest, PartyLoopThreadSweepIsBitIdentical) {
  Dataset adult = SynthesizeAdult(4000, 29);
  SessionOptions options;
  options.keep_probability = 0.7;
  options.clustering = ClusteringOptions{50.0, 0.1};
  options.seed = 8;
  options.shard_size = 512;

  options.num_threads = 1;
  auto reference = RunPartyLoopSession(adult, options);
  ASSERT_TRUE(reference.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    options.num_threads = threads;
    auto run = RunPartyLoopSession(adult, options);
    ASSERT_TRUE(run.ok());
    ExpectSessionsEqual(reference.value(), run.value());
  }
}

TEST(SessionFastPathTest, TinySessionsRunOnBothPaths) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{9}}) {
    Dataset data = MakeCorrelatedDataset(n, 100 + n);
    SessionOptions options;
    options.clustering = ClusteringOptions{20.0, 0.1};
    auto reference = RunPartyLoopSession(data, options);
    ASSERT_TRUE(reference.ok()) << "n " << n;
    auto batched = RunDistributedSession(data, options);
    ASSERT_TRUE(batched.ok()) << "n " << n;
    ExpectSessionsEqual(reference.value(), batched.value());
  }
}

}  // namespace
}  // namespace mdrr::protocol
