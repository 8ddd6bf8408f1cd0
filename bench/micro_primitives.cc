// Microbenchmarks of the hot paths every experiment exercises:
// randomization throughput (structured and alias-table), domain
// composition, empirical distributions, the full RR-Independent
// protocol on Adult-sized data, and the per-report mt19937 stream
// set-up (seed expansion, engine seeding, sustained draws) that
// streaming ingest pays once per report, Algorithm 2 over the
// RR-Clusters groups of a batch release, and the distributed release's
// wire codecs.

#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include <benchmark/benchmark.h>

#include "mdrr/core/adjustment.h"
#include "mdrr/core/batch_engine.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/net/protocol.h"
#include "mdrr/rng/alias_sampler.h"
#include "mdrr/rng/fast_seed.h"
#include "mdrr/rng/rng.h"

namespace {

void BM_StructuredRandomizeColumn(benchmark::State& state) {
  const size_t r = static_cast<size_t>(state.range(0));
  mdrr::RrMatrix matrix = mdrr::RrMatrix::KeepUniform(r, 0.7);
  mdrr::Rng rng(1);
  std::vector<uint32_t> codes(32561);
  for (auto& c : codes) c = static_cast<uint32_t>(rng.UniformInt(r));
  for (auto _ : state) {
    auto result = matrix.RandomizeColumn(codes, rng);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(codes.size()));
}
BENCHMARK(BM_StructuredRandomizeColumn)->Arg(2)->Arg(16)->Arg(300);

void BM_AliasSample(benchmark::State& state) {
  const size_t r = static_cast<size_t>(state.range(0));
  mdrr::Rng rng(2);
  std::vector<double> weights(r);
  for (double& w : weights) w = rng.UniformDouble() + 0.01;
  mdrr::AliasSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_AliasSample)->Arg(16)->Arg(300)->Arg(4096);

void BM_DomainCompose(benchmark::State& state) {
  mdrr::Dataset adult = mdrr::SynthesizeAdult(32561, 3);
  std::vector<size_t> attrs = {mdrr::kAdultMaritalStatus,
                               mdrr::kAdultRelationship, mdrr::kAdultSex};
  mdrr::Domain domain = mdrr::Domain::ForAttributes(adult, attrs);
  for (auto _ : state) {
    auto composite = domain.ComposeColumns(adult, attrs);
    benchmark::DoNotOptimize(composite);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32561);
}
BENCHMARK(BM_DomainCompose);

void BM_EmpiricalDistribution(benchmark::State& state) {
  mdrr::Rng rng(5);
  std::vector<uint32_t> codes(32561);
  for (auto& c : codes) c = static_cast<uint32_t>(rng.UniformInt(300));
  for (auto _ : state) {
    auto dist = mdrr::EmpiricalDistribution(codes, 300);
    benchmark::DoNotOptimize(dist);
  }
}
BENCHMARK(BM_EmpiricalDistribution);

void BM_FullRrIndependentOnAdult(benchmark::State& state) {
  mdrr::Dataset adult = mdrr::SynthesizeAdult(32561, 7);
  mdrr::Rng rng(11);
  for (auto _ : state) {
    auto result =
        mdrr::RunRrIndependent(adult, mdrr::RrIndependentOptions{0.7}, rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullRrIndependentOnAdult);

// Per-seed cost of the serial 624-word seed expansion (Rng(seed) and
// RngStreamFamily::Stream pay it once each).
void BM_SerialSeedExpansion(benchmark::State& state) {
  std::vector<uint32_t> words(mdrr::kEngineSeedWords);
  uint64_t seed = 1;
  for (auto _ : state) {
    mdrr::FourWordSeedSeq(seed++).GenerateEngineWords(words.data());
    benchmark::DoNotOptimize(words.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SerialSeedExpansion);

// The same expansion kSeedLanes seeds at a time, on the path
// GenerateSeedBlock dispatches to on this CPU; items are seeds.
void BM_SeedBlockExpansion(benchmark::State& state) {
  std::vector<uint32_t> block(mdrr::kSeedLanes * mdrr::kEngineSeedWords);
  uint64_t seeds[mdrr::kSeedLanes];
  uint64_t next = 1;
  for (auto _ : state) {
    for (uint64_t& s : seeds) s = next++;
    mdrr::GenerateSeedBlock(seeds, block.data());
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(mdrr::kSeedLanes));
}
BENCHMARK(BM_SeedBlockExpansion);

// Seeds an engine from an expanded word block and draws the 16 words of
// an eight-attribute report: arg 0 is the library engine, arg 1 is
// std::mt19937_64 seeded from the same words (it twists all 312 words on
// the first draw).
void BM_EngineSetupPlus16Draws(benchmark::State& state) {
  std::vector<uint32_t> words(mdrr::kEngineSeedWords);
  mdrr::FourWordSeedSeq(7).GenerateEngineWords(words.data());
  struct Replay {
    using result_type = uint32_t;
    const uint32_t* words;
    void generate(uint32_t* begin, uint32_t* end) const {
      for (const uint32_t* w = words; begin != end; ++begin, ++w) *begin = *w;
    }
  };
  uint64_t sum = 0;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      mdrr::MersenneTwister64 engine(mdrr::SeedWords{words.data()});
      for (int d = 0; d < 16; ++d) sum += engine();
    } else {
      Replay replay{words.data()};
      std::mt19937_64 engine(replay);
      for (int d = 0; d < 16; ++d) sum += engine();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineSetupPlus16Draws)->Arg(0)->Arg(1);

// Sustained draws (whole-block twists after the first cycle): arg 0 is
// the library engine, arg 1 is std::mt19937_64; items are draws.
void BM_EngineSustainedDraws(benchmark::State& state) {
  mdrr::MersenneTwister64 library(11);
  std::mt19937_64 reference(11);
  uint64_t sum = 0;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      for (int d = 0; d < 1024; ++d) sum += library();
    } else {
      for (int d = 0; d < 1024; ++d) sum += reference();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_EngineSustainedDraws)->Arg(0)->Arg(1);

// Algorithm 2 (cell index + IPF sweeps) at the spec defaults over the
// cluster groups of 200k synthetic-Adult records (RR-Clusters with the
// Section 4.1 dependence round, keep probability 0.7). The release is
// built once, untimed; the arg is the thread count.
void BM_RunRrAdjustment(benchmark::State& state) {
  static const auto* const kInput = [] {
    struct Input {
      std::vector<mdrr::AdjustmentGroup> groups;
      size_t num_records;
    };
    mdrr::Dataset adult = mdrr::SynthesizeAdult(200000, 13);
    mdrr::BatchPerturbationOptions engine_options;
    engine_options.num_threads = 4;
    mdrr::RrClustersOptions cluster_options;
    cluster_options.dependence_source =
        mdrr::DependenceSource::kRandomizedResponse;
    auto release = mdrr::BatchPerturbationEngine(engine_options)
                       .RunClusters(adult, cluster_options);
    if (!release.ok()) std::abort();
    return new Input{mdrr::GroupsFromClusters(*release), adult.num_rows()};
  }();
  mdrr::AdjustmentOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result =
        mdrr::RunRrAdjustment(kInput->groups, kInput->num_records, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kInput->num_records));
}
BENCHMARK(BM_RunRrAdjustment)->Arg(1)->Arg(4);

// The wire codecs on one worker's share of a 1M-record column at 2
// workers: 8 shards of 65 536 codes (2 MiB) under a structured matrix.
// Arg: 0 encode AssignShards, 1 parse it, 2 encode PartialResult, 3 parse
// it.
void BM_WireCodecs(benchmark::State& state) {
  constexpr size_t kShards = 8;
  constexpr size_t kShardSize = 65536;
  const mdrr::RrMatrix matrix = mdrr::RrMatrix::KeepUniform(16, 0.7);
  mdrr::Rng rng(5);
  mdrr::net::AssignShardsMsg assign;
  assign.matrix.emplace(matrix);
  mdrr::net::PartialResultMsg partial;
  partial.counts.assign(matrix.size(), 0);
  for (size_t s = 0; s < kShards; ++s) {
    std::vector<uint32_t> codes(kShardSize);
    for (uint32_t& code : codes) {
      code = static_cast<uint32_t>(rng.UniformInt(matrix.size()));
      ++partial.counts[code];
    }
    assign.shards.push_back({2 * s, 2 * s * kShardSize, codes});
    partial.shards.push_back({2 * s, std::move(codes)});
  }
  const std::vector<uint8_t> assign_bytes =
      mdrr::net::EncodeAssignShards(assign);
  const std::vector<uint8_t> partial_bytes =
      mdrr::net::EncodePartialResult(partial);
  const int64_t op = state.range(0);
  for (auto _ : state) {
    if (op == 0) {
      benchmark::DoNotOptimize(mdrr::net::EncodeAssignShards(assign));
    } else if (op == 1) {
      auto parsed = mdrr::net::ParseAssignShards(assign_bytes);
      if (!parsed.ok()) std::abort();
      benchmark::DoNotOptimize(parsed);
    } else if (op == 2) {
      benchmark::DoNotOptimize(mdrr::net::EncodePartialResult(partial));
    } else {
      auto parsed = mdrr::net::ParsePartialResult(partial_bytes);
      if (!parsed.ok()) std::abort();
      benchmark::DoNotOptimize(parsed);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kShards * kShardSize));
}
BENCHMARK(BM_WireCodecs)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace

BENCHMARK_MAIN();
