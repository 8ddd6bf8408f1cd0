#include "mdrr/protocol/stream_ingest.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "mdrr/protocol/party_block.h"
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/fast_seed.h"
#include "mdrr/rng/rng.h"

namespace mdrr::protocol {

void RandomizeReports(const release::ExecutionPolicy& execution,
                      const std::vector<RrMatrix>& matrices,
                      const Dataset& dataset, uint64_t first, uint64_t count,
                      uint32_t* out) {
  const size_t m = matrices.size();
  const uint64_t num_rows = dataset.num_rows();
  if (execution.rng == RngKind::kPhilox) {
    for (uint64_t k = 0; k < count; ++k) {
      const size_t row = static_cast<size_t>((first + k) % num_rows);
      for (size_t j = 0; j < m; ++j) {
        out[k * m + j] = matrices[j].RandomizeCounter(
            dataset.at(row, j), execution.seed, /*stream=*/first + k,
            /*element=*/j);
      }
    }
    return;
  }
  const RngStreamFamily family(execution.seed);
  uint64_t seeds[kSeedLanes] = {};
  size_t rows[kSeedLanes] = {};
  for (uint64_t begin = 0; begin < count; begin += kSeedLanes) {
    const size_t lanes =
        static_cast<size_t>(std::min<uint64_t>(kSeedLanes, count - begin));
    for (size_t l = 0; l < lanes; ++l) {
      seeds[l] = family.StreamSeed(first + begin + l);
      rows[l] = static_cast<size_t>((first + begin + l) % num_rows);
    }
    uint32_t* block = out + begin * m;
    RandomizeRecords(
        matrices.data(), m, lanes, seeds,
        [&](size_t k, size_t j) { return dataset.at(rows[k], j); },
        [&](size_t k, size_t j, uint32_t code) { block[k * m + j] = code; });
  }
}

StatusOr<StreamingReplayResult> RunStreamingReplay(
    const release::ReleaseSpec& spec, const Dataset& dataset,
    const StreamingReplayOptions& options) {
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("the replay dataset has no records");
  }
  if (options.num_ingest_threads > release::kMaxIngestThreads) {
    return Status::InvalidArgument(
        "num_ingest_threads (" + std::to_string(options.num_ingest_threads) +
        ") exceeds the cap of " + std::to_string(release::kMaxIngestThreads));
  }
  const uint64_t total = options.total_reports > 0
                             ? options.total_reports
                             : static_cast<uint64_t>(dataset.num_rows());
  if (options.pause_at >= total) {
    return Status::InvalidArgument(
        "pause_at (" + std::to_string(options.pause_at) +
        ") is not before the stream's end at " + std::to_string(total) +
        " reports: nothing would pause");
  }
  std::vector<size_t> cardinalities;
  cardinalities.reserve(dataset.num_attributes());
  for (size_t j = 0; j < dataset.num_attributes(); ++j) {
    cardinalities.push_back(dataset.attribute(j).cardinality());
  }

  MDRR_ASSIGN_OR_RETURN(
      std::unique_ptr<release::StreamingCollector> collector,
      options.resume != nullptr
          ? release::StreamingCollector::Resume(spec, cardinalities,
                                                options.collector,
                                                *options.resume)
          : release::StreamingCollector::Create(spec, cardinalities,
                                                options.collector));

  const uint64_t start =
      options.resume != nullptr ? options.resume->next_sequence : 0;
  const bool pausing = options.pause_at > 0;
  const uint64_t limit = pausing ? options.pause_at : total;
  if (start > limit) {
    return Status::InvalidArgument(
        "the resume cursor is already past the replay range");
  }

  const std::vector<RrMatrix>& matrices = collector->matrices();
  const size_t num_shards = collector->num_shards();
  const size_t num_producers = std::max<size_t>(1, options.num_ingest_threads);

  // Producers claim blocks of sequences from one shared counter: every
  // sequence below `limit` is always submitted, and sequences at or
  // beyond it are abandoned by everyone, so the submitted range stays
  // contiguous for Snapshot.
  std::atomic<uint64_t> next_sequence{start};
  std::atomic<bool> abort{false};
  std::atomic<bool> stop_drains{false};
  std::atomic<size_t> live_producers{num_producers};

  // Per-report randomness (RandomizeReports). mt19937 (default): each
  // report draws from its own sub-stream of the family, and a claim's
  // kSeedLanes streams are seeded together (one vectorized seed
  // expansion for the block; each engine loads and twists only the
  // words its report draws). philox: one 10-round counter evaluation per
  // attribute, no state to initialize. The transcript is identical for
  // any num_ingest_threads either way. A claim reaching past `limit` is
  // clipped there; claims starting at or past it are abandoned.
  auto produce = [&]() {
    const size_t m = dataset.num_attributes();
    std::vector<uint32_t> block(kSeedLanes * m);
    std::vector<uint32_t> codes(m);
    while (!abort.load(std::memory_order_acquire)) {
      const uint64_t first =
          next_sequence.fetch_add(kSeedLanes, std::memory_order_relaxed);
      if (first >= limit) break;
      const uint64_t count = std::min<uint64_t>(kSeedLanes, limit - first);
      RandomizeReports(spec.execution, matrices, dataset, first, count,
                       block.data());
      for (uint64_t k = 0; k < count; ++k) {
        const uint64_t s = first + k;
        codes.assign(block.begin() + k * m, block.begin() + (k + 1) * m);
        const size_t shard = static_cast<size_t>(s % num_shards);
        while (!collector->TrySubmit(shard, s, codes)) {
          if (abort.load(std::memory_order_acquire)) return;
          std::this_thread::yield();
        }
      }
    }
  };

  std::vector<std::thread> drains;
  drains.reserve(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    drains.emplace_back([&, shard]() {
      while (!stop_drains.load(std::memory_order_acquire)) {
        if (collector->DrainShard(shard) == 0) std::this_thread::yield();
      }
      collector->DrainShard(shard);
    });
  }
  std::vector<std::thread> producers;
  producers.reserve(num_producers);
  for (size_t i = 0; i < num_producers; ++i) {
    producers.emplace_back([&]() {
      produce();
      live_producers.fetch_sub(1, std::memory_order_release);
    });
  }

  StreamingReplayResult result;
  result.first_sequence = start;

  // The calling thread is the release thread: keep draining windows (which
  // also advances the admission frontier producers wait on) until the
  // stream quiesces. On a poll error the producers must be unblocked
  // before joining -- their backpressure spins wait on this very loop.
  Status poll_status = Status::OK();
  for (;;) {
    StatusOr<size_t> polled = collector->PollWindows(result.windows);
    if (!polled.ok()) {
      poll_status = polled.status();
      abort.store(true, std::memory_order_release);
      break;
    }
    if (live_producers.load(std::memory_order_acquire) == 0 &&
        collector->Quiescent()) {
      break;
    }
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  stop_drains.store(true, std::memory_order_release);
  for (std::thread& t : drains) t.join();
  MDRR_RETURN_IF_ERROR(poll_status);

  result.reports_ingested = limit - start;
  if (pausing) {
    MDRR_ASSIGN_OR_RETURN(size_t emitted,
                          collector->PollWindows(result.windows));
    (void)emitted;
    MDRR_ASSIGN_OR_RETURN(release::StreamingSnapshot snapshot,
                          collector->Snapshot(limit));
    result.snapshot = std::move(snapshot);
  } else {
    collector->Seal(total);
    MDRR_ASSIGN_OR_RETURN(size_t emitted,
                          collector->PollWindows(result.windows));
    (void)emitted;
    result.finished = collector->Finished();
  }
  result.epsilon_spent = collector->epsilon_spent();
  return result;
}

}  // namespace mdrr::protocol
