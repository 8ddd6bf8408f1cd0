// The streaming release driver: windowed incremental estimation over a
// continuous report stream.
//
// A StreamingCollector is the long-lived controller side of an
// always-on collection service. Parties (or an ingest adapter replaying
// a dataset -- protocol/stream_ingest.h) submit already-perturbed
// reports tagged with a global arrival sequence number through one
// lock-free channel per ingest shard (common/mpsc_channel.h); drain
// threads move them into the bucketed count ring (core/stream_counts.h);
// and a single release thread turns completed windows into one
// estimation summary each by re-running the Eq. (2) structured closed
// forms on the merged integer counts. Records are touched exactly once,
// at ingest -- every window release afterwards is pure count
// arithmetic, so for structured designs a window release performs zero
// LU factorizations (linalg::LuFactorizationCount() is the observable).
//
// Determinism contract: a window's summary is a pure function of the
// spec (seed, design, window geometry) and of WHICH sequence numbers
// fell into the window -- never of the ingest thread count, shard
// count, channel interleaving, or drain order. Integer bucket counts
// commute; window sums merge buckets in ascending order; the epsilon
// ledger advances in window order on one thread.
//
// Budget: every released window charges window_epsilon() against
// spec.budget.max_total_epsilon. When the next release would exceed the
// cap, the collector keeps counting but emits the window SUPPRESSED
// (released = false, no estimates): collection degrades gracefully
// instead of silently over-spending -- the fail-closed mode the batch
// planner implements as a FailedPrecondition.
//
// Snapshot/resume: at quiescence (every submitted report drained) the
// whole collector state -- sequence cursor, window cursor, epsilon
// ledger, pending bucket counts -- fits in a StreamingSnapshot. A
// collector resumed from it emits exactly the windows the uninterrupted
// run would have emitted from that point, bit for bit, because counts
// are integers and the report randomness is keyed off absolute sequence
// numbers.

#ifndef MDRR_RELEASE_STREAMING_H_
#define MDRR_RELEASE_STREAMING_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "mdrr/common/mpsc_channel.h"
#include "mdrr/common/status_or.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/core/stream_counts.h"
#include "mdrr/release/artifacts.h"
#include "mdrr/release/spec.h"

namespace mdrr::release {

// Caps on the streaming sizes, refused with InvalidArgument before
// anything is allocated or started: every shard and every ingest thread
// is an OS thread, and the count ring holds ring_buckets x num_shards
// rows of counters.
inline constexpr size_t kMaxStreamingShards = 256;
inline constexpr size_t kMaxIngestThreads = 256;
inline constexpr size_t kMaxRingBuckets = 1024;

struct StreamingCollectorOptions {
  // Ingest shards: one channel and one drain row each, at most
  // kMaxStreamingShards. Purely a throughput knob; never changes window
  // summaries.
  size_t num_shards = 1;
  // In-flight report capacity per shard channel (backpressure bound).
  size_t channel_capacity = 1 << 10;
  // Live bucket slots in the count ring (2 to kMaxRingBuckets). Bounds
  // ingest memory and how far producers may run ahead of the release
  // thread.
  size_t ring_buckets = 4;
};

// One emitted window. `artifacts` carries the estimation summary
// (marginal_estimates, num_records, release_epsilon) for released
// windows and stays empty for suppressed ones.
struct StreamWindow {
  uint64_t index = 0;
  // The window covers sequences [begin_sequence, end_sequence).
  uint64_t begin_sequence = 0;
  uint64_t end_sequence = 0;
  uint64_t num_reports = 0;
  // False when the budget cap suppressed the release (counting
  // continued; no estimates were published).
  bool released = false;
  // Epsilon charged to the ledger (0 when suppressed).
  double epsilon = 0.0;
  ReleaseArtifacts artifacts;
};

// Resumable collector state, captured at quiescence. Serializes through
// Print/ParseStreamingSnapshot (release/serialization.h, versioned
// header "mdrr-streaming-snapshot v1").
struct StreamingSnapshot {
  // First sequence number not yet ingested (the RNG stream cursor: the
  // replay adapter derives report randomness from absolute sequence
  // numbers, so this is all it needs to resume the stream).
  uint64_t next_sequence = 0;
  // First window not yet emitted.
  uint64_t next_window = 0;
  double epsilon_spent = 0.0;
  // Epsilon charged per emitted window, in window order (0 = that
  // window was suppressed by the budget cap).
  std::vector<double> window_epsilons;
  // Schema guard: per-attribute cardinalities of the counted stream.
  std::vector<size_t> cardinalities;
  struct BucketCounts {
    uint64_t bucket = 0;
    uint64_t num_reports = 0;
    // Concatenated per-attribute category counts (length = sum of
    // cardinalities).
    std::vector<int64_t> counts;
  };
  // Counted-but-unreleased buckets at quiescence, ascending and
  // contiguous from the first bucket the next window needs; all full
  // except possibly the last (a pause mid-bucket).
  std::vector<BucketCounts> buckets;
};

bool operator==(const StreamingSnapshot& a, const StreamingSnapshot& b);
inline bool operator!=(const StreamingSnapshot& a,
                       const StreamingSnapshot& b) {
  return !(a == b);
}

class StreamingCollector {
 public:
  // Builds a collector for a spec with streaming.enabled (must pass
  // ValidateReleaseSpec for the given schema). Refuses, naming the
  // field, num_shards or ring_buckets above its cap. Resolves the per-window
  // epsilon charge: streaming.window_epsilon == 0 derives it from the
  // design (sum of per-attribute Expression (4) epsilons); a declared
  // value below the derived one fails with FailedPrecondition.
  static StatusOr<std::unique_ptr<StreamingCollector>> Create(
      const ReleaseSpec& spec, std::vector<size_t> cardinalities,
      const StreamingCollectorOptions& options);

  // Create + state restore. The snapshot must match the spec's schema
  // and window geometry.
  static StatusOr<std::unique_ptr<StreamingCollector>> Resume(
      const ReleaseSpec& spec, std::vector<size_t> cardinalities,
      const StreamingCollectorOptions& options,
      const StreamingSnapshot& snapshot);

  // --- Producer side (any thread) ---

  // Admits one perturbed report, or returns false under backpressure
  // (sequence beyond the admission window, or the shard's node pool
  // exhausted). The producer owns the sequence number; the collector
  // requires only that submitted sequences eventually form a contiguous
  // range. Precondition: shard < num_shards, codes has one code per
  // attribute, each below its cardinality.
  bool TrySubmit(size_t shard, uint64_t sequence,
                 const std::vector<uint32_t>& codes);

  // --- Drain side (one thread per shard) ---

  // Moves every currently queued report of `shard` into the count ring.
  // Returns the number drained.
  size_t DrainShard(size_t shard);

  // --- Release side (single thread) ---

  // Merges completed buckets and emits every window that is fully
  // counted (and within streaming.max_windows), appending to `out`.
  // Returns the number emitted.
  StatusOr<size_t> PollWindows(std::vector<StreamWindow>& out);

  // Declares the stream complete at `total_reports`: the final partial
  // bucket may now merge, and Finished() becomes meaningful. Reports at
  // or beyond the seal must never be submitted.
  void Seal(uint64_t total_reports);

  // True once the stream is sealed and every releasable window has been
  // emitted (a trailing partial window never releases).
  bool Finished() const;

  // All reports admitted by TrySubmit have been drained and counted.
  bool Quiescent() const;

  // Captures resumable state. `next_sequence` is the caller's sequence
  // cursor (the collector does not assign sequences). Fails with
  // FailedPrecondition unless Quiescent() -- stop producers and drain
  // every shard first.
  StatusOr<StreamingSnapshot> Snapshot(uint64_t next_sequence) const;

  // --- Introspection ---

  const std::vector<RrMatrix>& matrices() const { return matrices_; }
  // The resolved per-released-window epsilon charge.
  double window_epsilon() const { return window_epsilon_; }
  double epsilon_spent() const { return epsilon_spent_; }
  uint64_t next_window() const { return next_window_; }
  size_t num_shards() const { return channels_.size(); }
  uint64_t stride() const { return counts_.stride(); }
  // Buckets per window (1 for tumbling).
  uint64_t buckets_per_window() const { return buckets_per_window_; }
  // Windows the sealed stream supports in total (after max_windows);
  // precondition: the stream is sealed.
  uint64_t SealedWindowCount() const;

 private:
  StreamingCollector(const ReleaseSpec& spec,
                     std::vector<size_t> cardinalities,
                     const StreamingCollectorOptions& options,
                     std::vector<RrMatrix> matrices, double window_epsilon);

  // Reports bucket `b` must receive before it is complete (stride, or
  // the sealed tail remainder).
  uint64_t BucketPopulation(uint64_t bucket) const;

  StatusOr<StreamWindow> EmitWindow();

  ReleaseSpec spec_;
  std::vector<RrMatrix> matrices_;
  // Per-attribute direct-encoding oracles over matrices_: window
  // estimation runs through the oracle seam's closed form, which for RR
  // designs is exactly the structured Eq. (2) estimator -- same bits,
  // zero LU factorizations.
  std::vector<DirectEncodingOracle> oracles_;
  double window_epsilon_;
  uint64_t buckets_per_window_;

  std::vector<std::unique_ptr<StreamChannel>> channels_;
  WindowedCounts counts_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> drained_total_{0};

  // Release-thread state. Merged bucket totals awaiting window
  // emission: merged_[i] holds bucket merged_begin_ + i, so the deque
  // always covers [merged_begin_, next_merge_bucket_).
  struct MergedBucket {
    uint64_t num_reports = 0;
    std::vector<int64_t> counts;
  };
  std::deque<MergedBucket> merged_;
  uint64_t merged_begin_ = 0;
  uint64_t next_merge_bucket_ = 0;
  uint64_t next_window_ = 0;
  double epsilon_spent_ = 0.0;
  std::vector<double> window_epsilons_;
  bool sealed_ = false;
  uint64_t total_reports_ = 0;
};

}  // namespace mdrr::release

#endif  // MDRR_RELEASE_STREAMING_H_
