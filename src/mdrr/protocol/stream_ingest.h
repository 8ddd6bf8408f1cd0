// Session-sourced ingest adapter for the streaming collector.
//
// RunStreamingReplay plays a dataset through a StreamingCollector as if
// its rows were parties arriving over time: report s carries row
// s % num_rows, perturbed party-side (the controller never sees true
// values) with randomness drawn from RngStreamFamily(execution.seed)
// stream s. Keying the randomness off the absolute sequence number --
// not the producing thread -- is what makes the replay a fixed arrival
// schedule: the per-window transcript is bit-identical for any
// num_ingest_threads and any shard count, and a paused run resumes from
// a snapshot knowing nothing but the sequence cursor.
//
// Threading: `num_ingest_threads` producers claim blocks of kSeedLanes
// sequence numbers from one shared atomic counter (so the submitted
// range stays contiguous -- a snapshot never has holes to re-ingest),
// perturb them, and spin-submit each block in ascending order under
// backpressure; one drain thread per shard moves reports into the
// count ring; the calling thread polls windows. The call blocks until
// the replay completes (or reaches `pause_at` and snapshots).

#ifndef MDRR_PROTOCOL_STREAM_INGEST_H_
#define MDRR_PROTOCOL_STREAM_INGEST_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/release/spec.h"
#include "mdrr/release/streaming.h"

namespace mdrr::protocol {

struct StreamingReplayOptions {
  // Producer threads submitting reports, at most
  // release::kMaxIngestThreads. Purely a throughput knob: the window
  // transcript is identical for any value.
  size_t num_ingest_threads = 1;
  release::StreamingCollectorOptions collector;
  // Reports to stream in total; 0 = one per dataset row. Beyond
  // num_rows the replay wraps around the dataset.
  uint64_t total_reports = 0;
  // Stop ingesting before this sequence number and return a snapshot
  // instead of sealing (0 = run to completion). It must lie before the
  // stream's end. Pausing mid-bucket is fine; the partial counts travel
  // in the snapshot.
  uint64_t pause_at = 0;
  // Resume state from a previous pause (null = fresh run). The replay
  // continues at resume->next_sequence.
  const release::StreamingSnapshot* resume = nullptr;
};

struct StreamingReplayResult {
  // Windows emitted by THIS call, in window order (a resumed run starts
  // at the snapshot's window cursor).
  std::vector<release::StreamWindow> windows;
  // Present iff the run paused at `pause_at`; feed it back through
  // StreamingReplayOptions::resume to continue.
  std::optional<release::StreamingSnapshot> snapshot;
  uint64_t first_sequence = 0;
  uint64_t reports_ingested = 0;
  // Ledger total across the whole stream (including pre-resume spend).
  double epsilon_spent = 0.0;
  // True when the stream sealed and every releasable window is out.
  bool finished = false;
};

// Party-side perturbation of reports [first, first + count): report s
// is row s % num_rows of `dataset`, attribute j through matrices[j],
// written to out[(s - first) * num_attributes + j]. A report's
// randomness address is its absolute sequence number s: under mt19937
// the attributes draw in order from RngStreamFamily(execution.seed)
// .Stream(s), run through RandomizeRecords (protocol/party_block.h),
// the kernel both session rounds run: kSeedLanes reports share one seed
// expansion and each report's engine seeds in place from its lane and
// is dropped after the report, which is what makes per-report streams
// cheap; under philox attribute j is element j of
// philox stream s. So any split of a range gives the same codes.
// RunStreamingReplay's producers and the socket ingest client
// (protocol/net_ingest.h) both call this, so the served transcript
// equals the in-process replay.
void RandomizeReports(const release::ExecutionPolicy& execution,
                      const std::vector<RrMatrix>& matrices,
                      const Dataset& dataset, uint64_t first, uint64_t count,
                      uint32_t* out);

// Refuses, before it allocates or starts anything, num_ingest_threads
// or a collector size above its cap (release/streaming.h) and a
// pause_at at or past the stream's end.
StatusOr<StreamingReplayResult> RunStreamingReplay(
    const release::ReleaseSpec& spec, const Dataset& dataset,
    const StreamingReplayOptions& options);

}  // namespace mdrr::protocol

#endif  // MDRR_PROTOCOL_STREAM_INGEST_H_
