#include "mdrr/release/streaming.h"

#include <algorithm>
#include <string>
#include <utility>

#include "mdrr/core/estimator.h"
#include "mdrr/core/rr_independent.h"

namespace mdrr::release {

bool operator==(const StreamingSnapshot& a, const StreamingSnapshot& b) {
  if (a.next_sequence != b.next_sequence || a.next_window != b.next_window ||
      a.epsilon_spent != b.epsilon_spent ||
      a.window_epsilons != b.window_epsilons ||
      a.cardinalities != b.cardinalities ||
      a.buckets.size() != b.buckets.size()) {
    return false;
  }
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    if (a.buckets[i].bucket != b.buckets[i].bucket ||
        a.buckets[i].num_reports != b.buckets[i].num_reports ||
        a.buckets[i].counts != b.buckets[i].counts) {
      return false;
    }
  }
  return true;
}

namespace {

RrIndependentOptions DesignOptions(const ReleaseSpec& spec) {
  RrIndependentOptions options;
  if (spec.mechanism.kind == MechanismKind::kGeometricOrdinal) {
    options.design = IndependentDesign::kGeometricOrdinal;
    options.geometric_epsilon = spec.mechanism.geometric_epsilon;
  } else {
    options.keep_probability = spec.budget.keep_probability;
  }
  return options;
}

}  // namespace

StreamingCollector::StreamingCollector(
    const ReleaseSpec& spec, std::vector<size_t> cardinalities,
    const StreamingCollectorOptions& options, std::vector<RrMatrix> matrices,
    double window_epsilon)
    : spec_(spec),
      matrices_(std::move(matrices)),
      window_epsilon_(window_epsilon),
      buckets_per_window_(
          spec.streaming.window_kind == WindowKind::kSliding
              ? spec.streaming.window_size / spec.streaming.window_stride
              : 1),
      counts_(std::move(cardinalities),
              spec.streaming.window_kind == WindowKind::kSliding
                  ? spec.streaming.window_stride
                  : spec.streaming.window_size,
              std::max<size_t>(options.ring_buckets, 2),
              std::max<size_t>(options.num_shards, 1)) {
  oracles_.reserve(matrices_.size());
  for (const RrMatrix& matrix : matrices_) {
    oracles_.emplace_back(matrix);
  }
  const size_t shards = std::max<size_t>(options.num_shards, 1);
  channels_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    channels_.push_back(
        std::make_unique<StreamChannel>(options.channel_capacity));
  }
}

StatusOr<std::unique_ptr<StreamingCollector>> StreamingCollector::Create(
    const ReleaseSpec& spec, std::vector<size_t> cardinalities,
    const StreamingCollectorOptions& options) {
  if (options.num_shards > kMaxStreamingShards) {
    return Status::InvalidArgument(
        "num_shards (" + std::to_string(options.num_shards) +
        ") exceeds the cap of " + std::to_string(kMaxStreamingShards));
  }
  if (options.ring_buckets > kMaxRingBuckets) {
    return Status::InvalidArgument(
        "ring_buckets (" + std::to_string(options.ring_buckets) +
        ") exceeds the cap of " + std::to_string(kMaxRingBuckets));
  }
  MDRR_RETURN_IF_ERROR(ValidateReleaseSpec(spec, cardinalities.size()));
  if (!spec.streaming.enabled) {
    return Status::InvalidArgument(
        "StreamingCollector needs a spec with streaming.enabled");
  }
  if (cardinalities.empty()) {
    return Status::InvalidArgument(
        "streaming collection needs at least one attribute");
  }

  const RrIndependentOptions design = DesignOptions(spec);
  std::vector<RrMatrix> matrices;
  matrices.reserve(cardinalities.size());
  double derived_epsilon = 0.0;
  for (size_t r : cardinalities) {
    matrices.push_back(MakeIndependentMatrix(r, design));
    derived_epsilon += matrices.back().Epsilon();
  }
  double window_epsilon = spec.streaming.window_epsilon;
  if (window_epsilon == 0.0) {
    window_epsilon = derived_epsilon;
  } else if (window_epsilon < derived_epsilon) {
    return Status::FailedPrecondition(
        "streaming.window_epsilon (" + std::to_string(window_epsilon) +
        ") understates the design: the per-attribute Expression (4) "
        "epsilons sum to " +
        std::to_string(derived_epsilon));
  }

  return std::unique_ptr<StreamingCollector>(new StreamingCollector(
      spec, std::move(cardinalities), options, std::move(matrices),
      window_epsilon));
}

StatusOr<std::unique_ptr<StreamingCollector>> StreamingCollector::Resume(
    const ReleaseSpec& spec, std::vector<size_t> cardinalities,
    const StreamingCollectorOptions& options,
    const StreamingSnapshot& snapshot) {
  MDRR_ASSIGN_OR_RETURN(std::unique_ptr<StreamingCollector> collector,
                        Create(spec, cardinalities, options));
  if (snapshot.cardinalities != collector->counts_.cardinalities()) {
    return Status::InvalidArgument(
        "snapshot cardinalities do not match the spec's schema");
  }
  if (snapshot.window_epsilons.size() != snapshot.next_window) {
    return Status::InvalidArgument(
        "snapshot epsilon ledger does not cover its windows");
  }

  collector->next_window_ = snapshot.next_window;
  collector->epsilon_spent_ = snapshot.epsilon_spent;
  collector->window_epsilons_ = snapshot.window_epsilons;
  collector->merged_begin_ = snapshot.next_window;
  collector->next_merge_bucket_ = snapshot.next_window;

  const uint64_t stride = collector->counts_.stride();
  for (const StreamingSnapshot::BucketCounts& bucket : snapshot.buckets) {
    if (bucket.counts.size() != collector->counts_.width()) {
      return Status::InvalidArgument("snapshot bucket has a malformed row");
    }
    if (bucket.num_reports > stride) {
      return Status::InvalidArgument(
          "snapshot bucket overfills its stride");
    }
    if (bucket.num_reports == stride) {
      // A complete bucket goes straight back into the merge queue; it
      // must extend the contiguous run.
      if (bucket.bucket != collector->next_merge_bucket_) {
        return Status::InvalidArgument(
            "snapshot buckets are not contiguous");
      }
      collector->merged_.push_back(
          MergedBucket{bucket.num_reports, bucket.counts});
      ++collector->next_merge_bucket_;
    } else {
      // The partial tail bucket resumes inside the count ring.
      if (bucket.bucket != collector->next_merge_bucket_ ||
          &bucket != &snapshot.buckets.back()) {
        return Status::InvalidArgument(
            "snapshot has a partial bucket before the tail");
      }
    }
  }
  // Advance the ring frontier to the first un-merged bucket (slots are
  // still pristine, so this only moves the admission window), then drop
  // the partial tail counts back into its slot.
  if (collector->next_merge_bucket_ > 0) {
    collector->counts_.RetireThrough(collector->next_merge_bucket_ - 1);
  }
  if (!snapshot.buckets.empty() &&
      snapshot.buckets.back().num_reports < stride &&
      snapshot.buckets.back().num_reports > 0) {
    const StreamingSnapshot::BucketCounts& tail = snapshot.buckets.back();
    collector->counts_.RestoreBucket(tail.bucket, tail.counts,
                                     tail.num_reports);
  }
  return std::move(collector);
}

bool StreamingCollector::TrySubmit(size_t shard, uint64_t sequence,
                                   const std::vector<uint32_t>& codes) {
  MDRR_DCHECK_LT(shard, channels_.size());
  // The admission limit only grows, so checking before acquiring cannot
  // admit a sequence whose slot is still occupied.
  if (sequence >= counts_.AdmissionLimit()) return false;
  StreamReportNode* node = channels_[shard]->TryAcquire();
  if (node == nullptr) return false;
  node->sequence = sequence;
  node->codes.assign(codes.begin(), codes.end());
  channels_[shard]->Push(node);
  submitted_.fetch_add(1, std::memory_order_release);
  return true;
}

size_t StreamingCollector::DrainShard(size_t shard) {
  MDRR_DCHECK_LT(shard, channels_.size());
  StreamChannel& channel = *channels_[shard];
  size_t n = 0;
  while (StreamReportNode* node = channel.TryPop()) {
    counts_.Count(shard, node->sequence, node->codes.data());
    channel.Recycle(node);
    ++n;
  }
  if (n > 0) drained_total_.fetch_add(n, std::memory_order_release);
  return n;
}

uint64_t StreamingCollector::BucketPopulation(uint64_t bucket) const {
  const uint64_t stride = counts_.stride();
  if (!sealed_) return stride;
  const uint64_t begin = bucket * stride;
  if (begin >= total_reports_) return 0;
  return std::min<uint64_t>(stride, total_reports_ - begin);
}

StatusOr<StreamWindow> StreamingCollector::EmitWindow() {
  const uint64_t w = next_window_;
  const uint64_t stride = counts_.stride();
  StreamWindow window;
  window.index = w;
  window.begin_sequence = w * stride;
  window.end_sequence = w * stride + spec_.streaming.window_size;

  // Window sums: merge the k buckets in ascending order (exact integer
  // adds; the order is fixed, so this is deterministic by construction).
  std::vector<int64_t> sums(counts_.width(), 0);
  uint64_t reports = 0;
  for (uint64_t b = w; b < w + buckets_per_window_; ++b) {
    const MergedBucket& bucket = merged_[static_cast<size_t>(
        b - merged_begin_)];
    reports += bucket.num_reports;
    for (size_t i = 0; i < sums.size(); ++i) sums[i] += bucket.counts[i];
  }
  window.num_reports = reports;

  // Fail-closed budget cap: a window that cannot pay is emitted
  // suppressed -- counting continues, publication stops.
  if (epsilon_spent_ + window_epsilon_ > spec_.budget.max_total_epsilon) {
    window.released = false;
    window.epsilon = 0.0;
    window_epsilons_.push_back(0.0);
    ++next_window_;
    return window;
  }

  const std::vector<size_t>& cardinalities = counts_.cardinalities();
  window.artifacts.num_records = static_cast<double>(reports);
  window.artifacts.release_epsilon = window_epsilon_;
  window.artifacts.marginal_estimates.reserve(cardinalities.size());
  size_t offset = 0;
  std::vector<double> lambda;
  for (size_t j = 0; j < cardinalities.size(); ++j) {
    const size_t r = cardinalities[j];
    lambda.assign(r, 0.0);
    for (size_t v = 0; v < r; ++v) {
      lambda[v] = static_cast<double>(sums[offset + v]) /
                  static_cast<double>(reports);
    }
    offset += r;
    // The oracle's closed-form inversion IS the structured Eq. (2)
    // estimator for RR designs, so this is bit-identical to calling
    // EstimateProjectedDistribution on matrices_[j].
    MDRR_ASSIGN_OR_RETURN(std::vector<double> raw,
                          oracles_[j].EstimateFromLambda(lambda));
    window.artifacts.marginal_estimates.push_back(ProjectToSimplex(raw));
  }

  window.released = true;
  window.epsilon = window_epsilon_;
  epsilon_spent_ += window_epsilon_;
  window_epsilons_.push_back(window_epsilon_);
  ++next_window_;
  return window;
}

StatusOr<size_t> StreamingCollector::PollWindows(
    std::vector<StreamWindow>& out) {
  // 1. Merge every bucket the drains have completed, retiring its slot
  // (which re-opens producer admission).
  for (;;) {
    const uint64_t population = BucketPopulation(next_merge_bucket_);
    if (population == 0) break;  // Beyond the sealed stream.
    if (counts_.DrainedCount(next_merge_bucket_) < population) break;
    merged_.push_back(MergedBucket{
        population, counts_.MergedCounts(next_merge_bucket_)});
    counts_.RetireThrough(next_merge_bucket_);
    ++next_merge_bucket_;
  }

  // 2. Emit every fully counted window, oldest first.
  size_t emitted = 0;
  const uint64_t max_windows = spec_.streaming.max_windows;
  while (max_windows == 0 || next_window_ < max_windows) {
    const uint64_t last_bucket = next_window_ + buckets_per_window_ - 1;
    if (last_bucket >= next_merge_bucket_) break;
    MDRR_ASSIGN_OR_RETURN(StreamWindow window, EmitWindow());
    // A sealed tail window that fell short of window_size never
    // releases; nothing after it can fill up either.
    if (window.num_reports < spec_.streaming.window_size) {
      --next_window_;
      window_epsilons_.pop_back();
      if (window.released) epsilon_spent_ -= window.epsilon;
      break;
    }
    out.push_back(std::move(window));
    ++emitted;
    // 3. Drop buckets no future window starts at or before.
    while (merged_begin_ < next_window_) {
      merged_.pop_front();
      ++merged_begin_;
    }
  }
  if (max_windows != 0 && next_window_ >= max_windows) {
    // Past the emission cap no window will ever read the queue again;
    // keep memory flat on streams that continue counting.
    merged_.clear();
    merged_begin_ = next_merge_bucket_;
  }
  return emitted;
}

void StreamingCollector::Seal(uint64_t total_reports) {
  sealed_ = true;
  total_reports_ = total_reports;
}

uint64_t StreamingCollector::SealedWindowCount() const {
  MDRR_CHECK(sealed_);
  const uint64_t size = spec_.streaming.window_size;
  const uint64_t stride = counts_.stride();
  uint64_t possible =
      total_reports_ >= size ? (total_reports_ - size) / stride + 1 : 0;
  if (spec_.streaming.max_windows != 0) {
    possible = std::min<uint64_t>(possible, spec_.streaming.max_windows);
  }
  return possible;
}

bool StreamingCollector::Finished() const {
  return sealed_ && next_window_ >= SealedWindowCount();
}

bool StreamingCollector::Quiescent() const {
  return drained_total_.load(std::memory_order_acquire) ==
         submitted_.load(std::memory_order_acquire);
}

StatusOr<StreamingSnapshot> StreamingCollector::Snapshot(
    uint64_t next_sequence) const {
  if (!Quiescent()) {
    return Status::FailedPrecondition(
        "collector is not quiescent: stop producers and drain every shard "
        "before snapshotting");
  }
  StreamingSnapshot snapshot;
  snapshot.next_sequence = next_sequence;
  snapshot.next_window = next_window_;
  snapshot.epsilon_spent = epsilon_spent_;
  snapshot.window_epsilons = window_epsilons_;
  snapshot.cardinalities = counts_.cardinalities();

  // Merged-but-unreleased buckets (complete), then the live partial
  // bucket if any -- ascending, contiguous from merged_begin_.
  for (size_t i = 0; i < merged_.size(); ++i) {
    StreamingSnapshot::BucketCounts bucket;
    bucket.bucket = merged_begin_ + i;
    bucket.num_reports = merged_[i].num_reports;
    bucket.counts = merged_[i].counts;
    snapshot.buckets.push_back(std::move(bucket));
  }
  const uint64_t live_end = counts_.frontier() + counts_.ring_buckets();
  for (uint64_t b = next_merge_bucket_; b < live_end; ++b) {
    const uint64_t drained = counts_.DrainedCount(b);
    if (drained == 0) continue;
    StreamingSnapshot::BucketCounts bucket;
    bucket.bucket = b;
    bucket.num_reports = drained;
    bucket.counts = counts_.MergedCounts(b);
    snapshot.buckets.push_back(std::move(bucket));
  }
  return snapshot;
}

}  // namespace mdrr::release
