#include "mdrr/protocol/stream_ingest.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"

namespace mdrr::protocol {

void RandomizeReport(const release::ExecutionPolicy& execution,
                     const std::vector<RrMatrix>& matrices,
                     const Dataset& dataset, uint64_t sequence,
                     uint32_t* out) {
  const size_t row = static_cast<size_t>(sequence % dataset.num_rows());
  if (execution.rng == RngKind::kPhilox) {
    for (size_t j = 0; j < matrices.size(); ++j) {
      out[j] = matrices[j].RandomizeCounter(dataset.at(row, j),
                                            execution.seed,
                                            /*stream=*/sequence,
                                            /*element=*/j);
    }
    return;
  }
  Rng rng = RngStreamFamily(execution.seed).Stream(sequence);
  for (size_t j = 0; j < matrices.size(); ++j) {
    out[j] = matrices[j].Randomize(dataset.at(row, j), rng);
  }
}

StatusOr<StreamingReplayResult> RunStreamingReplay(
    const release::ReleaseSpec& spec, const Dataset& dataset,
    const StreamingReplayOptions& options) {
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("the replay dataset has no records");
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

  const uint64_t total = options.total_reports > 0
                             ? options.total_reports
                             : static_cast<uint64_t>(dataset.num_rows());
  const uint64_t start =
      options.resume != nullptr ? options.resume->next_sequence : 0;
  const bool pausing = options.pause_at > 0 && options.pause_at < total;
  const uint64_t limit = pausing ? options.pause_at : total;
  if (start > limit) {
    return Status::InvalidArgument(
        "the resume cursor is already past the replay range");
  }

  const std::vector<RrMatrix>& matrices = collector->matrices();
  const size_t num_shards = collector->num_shards();
  const size_t num_producers = std::max<size_t>(1, options.num_ingest_threads);

  // Producers claim sequences from one shared counter: every claim below
  // `limit` is always submitted, and claims at or beyond it are abandoned
  // by everyone, so the submitted range stays contiguous for Snapshot.
  std::atomic<uint64_t> next_sequence{start};
  std::atomic<bool> abort{false};
  std::atomic<bool> stop_drains{false};
  std::atomic<size_t> live_producers{num_producers};

  // Per-report randomness (RandomizeReport). mt19937 (default): report s
  // seeds a full sub-stream of the family -- a seed_seq expansion plus 312
  // words of twister state per report. philox: one 10-round counter
  // evaluation per attribute, no state to initialize. The transcript is
  // identical for any num_ingest_threads either way.
  auto produce = [&]() {
    std::vector<uint32_t> codes(dataset.num_attributes());
    while (!abort.load(std::memory_order_acquire)) {
      const uint64_t s = next_sequence.fetch_add(1, std::memory_order_relaxed);
      if (s >= limit) break;
      RandomizeReport(spec.execution, matrices, dataset, s, codes.data());
      const size_t shard = static_cast<size_t>(s % num_shards);
      while (!collector->TrySubmit(shard, s, codes)) {
        if (abort.load(std::memory_order_acquire)) return;
        std::this_thread::yield();
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
