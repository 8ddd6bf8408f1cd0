// Microbenchmarks of the hot paths every experiment exercises:
// randomization throughput (structured, alias-table, the philox
// element fill and the keep-or-uniform select under the counter-policy
// kernels), domain composition, empirical distributions, the full
// RR-Independent protocol on Adult-sized data, and the per-report
// mt19937 stream set-up (seed expansion, engine seeding, sustained draws) that
// streaming ingest pays once per report, Algorithm 2 over the
// RR-Clusters groups of a batch release, and the distributed release's
// wire codecs.

#include <cstdint>
#include <cstdlib>
#include <memory>
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
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/fast_seed.h"
#include "mdrr/rng/rng.h"

namespace {

// Args: domain size r, keep probability in percent. 70 is the §4.1
// publication's default; 50 makes the keep/replace choice a coin flip.
void BM_StructuredRandomizeColumn(benchmark::State& state) {
  const size_t r = static_cast<size_t>(state.range(0));
  const double keep = static_cast<double>(state.range(1)) / 100.0;
  mdrr::RrMatrix matrix = mdrr::RrMatrix::KeepUniform(r, keep);
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
BENCHMARK(BM_StructuredRandomizeColumn)
    ->Args({2, 50})
    ->Args({2, 70})
    ->Args({16, 50})
    ->Args({16, 70})
    ->Args({300, 50})
    ->Args({300, 70});

// The element fill under every philox kernel, 512 elements per call
// (the kernels' tile); items are elements. The arg picks the body: 0
// portable, 1 AVX2. A body the CPU lacks reports an error instead of a
// time.
void BM_PhiloxFillElementDraws(benchmark::State& state) {
  constexpr size_t kTile = 512;
  const auto body = static_cast<mdrr::SimdBody>(state.range(0));
  std::vector<double> units(kTile);
  std::vector<uint64_t> raws(kTile);
  uint64_t first = 0;
  for (auto _ : state) {
    if (!mdrr::PhiloxFillElementDrawsOn(body, /*seed=*/9, /*stream=*/2,
                                        first, kTile, units.data(),
                                        raws.data())) {
      state.SkipWithError("the CPU lacks this fill body");
      break;
    }
    first += kTile;
    benchmark::DoNotOptimize(units.data());
    benchmark::DoNotOptimize(raws.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kTile));
}
BENCHMARK(BM_PhiloxFillElementDraws)->Arg(0)->Arg(1);

// The structured tile's keep-or-uniform select over one 512-element
// tile of pre-drawn pairs, r = 16 at keep probability 0.7 (alpha 0.3);
// items are elements. The arg picks the body: 0 portable, 1 AVX2. A body
// the CPU lacks reports an error instead of a time.
void BM_KeepUniformBlock(benchmark::State& state) {
  constexpr size_t kTile = 512;
  const auto body = static_cast<mdrr::SimdBody>(state.range(0));
  const double alpha = 0.3;  // The mixing weight 1 - keep.
  mdrr::Rng rng(4);
  std::vector<uint32_t> codes(kTile);
  for (auto& c : codes) c = static_cast<uint32_t>(rng.UniformInt(16));
  std::vector<double> units(kTile);
  std::vector<uint64_t> raws(kTile);
  mdrr::PhiloxFillElementDraws(/*seed=*/9, /*stream=*/2, /*first=*/0, kTile,
                               units.data(), raws.data());
  std::vector<uint32_t> out(kTile);
  for (auto _ : state) {
    if (!mdrr::KeepUniformBlockOn(body, codes.data(), units.data(),
                                  raws.data(), alpha, /*bound=*/16, kTile,
                                  out.data())) {
      state.SkipWithError("the CPU lacks this keep-uniform body");
      break;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kTile));
}
BENCHMARK(BM_KeepUniformBlock)->Arg(0)->Arg(1);

// The philox column kernel (the Section 4.1 publication's and a
// distributed worker's shard) over 2^20 elements of one stream, r = 16
// at keep probability 0.7, with counts; items are elements.
void BM_RandomizeRangeCounter(benchmark::State& state) {
  constexpr size_t kElements = 1 << 20;
  const mdrr::RrMatrix matrix = mdrr::RrMatrix::KeepUniform(16, 0.7);
  mdrr::Rng rng(3);
  std::vector<uint32_t> codes(kElements);
  for (auto& c : codes) c = static_cast<uint32_t>(rng.UniformInt(16));
  std::vector<uint32_t> out(kElements);
  std::vector<int64_t> counts(16);
  for (auto _ : state) {
    matrix.RandomizeRangeCounterInto(codes.data(), kElements, /*seed=*/5,
                                     /*stream=*/1, /*first_element=*/0,
                                     out.data(), counts.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kElements));
}
BENCHMARK(BM_RandomizeRangeCounter);

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

// The same expansion kSeedLanes seeds at a time, as ForEachSeedSequence
// runs it under RandomizeRecords; items are seeds. Each record's engine
// then reads its lane in place (BM_EngineSetupPlus16Draws/2). The arg
// picks the body: 0 portable, 1 AVX2. A body the CPU lacks reports an
// error instead of a time.
void BM_SeedBlockExpansion(benchmark::State& state) {
  const auto body = static_cast<mdrr::SimdBody>(state.range(0));
  auto block = std::make_unique<mdrr::SeedBlock>();
  uint64_t seeds[mdrr::kSeedLanes];
  uint64_t next = 1;
  for (auto _ : state) {
    for (uint64_t& s : seeds) s = next++;
    if (!mdrr::GenerateSeedBlockOn(body, seeds, block.get())) {
      state.SkipWithError("the CPU lacks this seed body");
      break;
    }
    benchmark::DoNotOptimize(block.get());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(mdrr::kSeedLanes));
}
BENCHMARK(BM_SeedBlockExpansion)->Arg(0)->Arg(1);

// Seeds an engine from expanded seed words and draws the 16 words of an
// eight-attribute report: arg 0 is the library engine copying all 624
// contiguous words, arg 1 is std::mt19937_64 seeded from the same words
// (it twists all 312 words on the first draw), and arg 2 is what a
// streaming report pays: the library engine seeded in place from its
// lane of a seed block (SeedDeferred), copying 33 state words.
void BM_EngineSetupPlus16Draws(benchmark::State& state) {
  std::vector<uint32_t> words(mdrr::kEngineSeedWords);
  mdrr::FourWordSeedSeq(7).GenerateEngineWords(words.data());
  auto block = std::make_unique<mdrr::SeedBlock>();
  uint64_t seeds[mdrr::kSeedLanes];
  for (size_t l = 0; l < mdrr::kSeedLanes; ++l) seeds[l] = 7 + l;
  mdrr::GenerateSeedBlock(seeds, block.get());
  struct Replay {
    using result_type = uint32_t;
    const uint32_t* words;
    void generate(uint32_t* begin, uint32_t* end) const {
      for (const uint32_t* w = words; begin != end; ++begin, ++w) *begin = *w;
    }
  };
  uint64_t sum = 0;
  size_t lane = 0;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      mdrr::MersenneTwister64 engine(mdrr::SeedWords{words.data()});
      for (int d = 0; d < 16; ++d) sum += engine();
    } else if (state.range(0) == 1) {
      Replay replay{words.data()};
      std::mt19937_64 engine(replay);
      for (int d = 0; d < 16; ++d) sum += engine();
    } else {
      mdrr::MersenneTwister64 engine(mdrr::LaneWords(*block, lane),
                                     mdrr::kDeferredSeed);
      for (int d = 0; d < 16; ++d) sum += engine();
      lane = (lane + 1) % mdrr::kSeedLanes;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineSetupPlus16Draws)->Arg(0)->Arg(1)->Arg(2);

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

// The decode of 1M composite codes into one attribute column at one
// thread. Arg: 1 decodes a one-position domain of 16 categories, 2 the
// first position of a 16 x 15 domain (a quotient and a remainder).
void BM_DecodeColumn(benchmark::State& state) {
  constexpr size_t kRecords = 1 << 20;
  const mdrr::Domain domain = state.range(0) == 1
                                  ? mdrr::Domain({16})
                                  : mdrr::Domain({16, 15});
  mdrr::Rng rng(7);
  std::vector<uint32_t> codes(kRecords);
  for (uint32_t& code : codes) {
    code = static_cast<uint32_t>(rng.UniformInt(domain.size()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mdrr::DecodeColumnSharded(
        domain, codes, /*position=*/0, /*chunk_size=*/1 << 16,
        /*num_threads=*/1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRecords));
}
BENCHMARK(BM_DecodeColumn)->Arg(1)->Arg(2);

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
