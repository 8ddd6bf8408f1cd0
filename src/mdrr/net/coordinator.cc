#include "mdrr/net/coordinator.h"

#include <algorithm>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "mdrr/common/parallel.h"
#include "mdrr/net/protocol.h"
#include "mdrr/net/wire.h"
#include "mdrr/stats/frequency.h"

namespace mdrr {
namespace net {
namespace {

// The first failure of one column exchange. Latching it shuts every
// worker connection down, so threads blocked on a sibling's socket return
// at once, and the root cause is kept over their consequent errors.
class FailureLatch {
 public:
  explicit FailureLatch(std::vector<TcpConnection>& workers)
      : workers_(workers) {}

  void Check(Status status) {
    if (status.ok()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_.ok()) return;
    first_ = std::move(status);
    for (TcpConnection& worker : workers_) worker.Shutdown();
  }

  // Read once every thread has joined.
  const Status& status() const { return first_; }

 private:
  std::vector<TcpConnection>& workers_;
  std::mutex mutex_;
  Status first_;
};

// One column on the engine's shard grid: shard s goes to worker s mod W,
// and each worker's shards travel in frames of `per_frame` consecutive
// ones (its i-th shard is s = w + i * W). A frame repeats the matrix, so
// it carries as many shards as it takes for their codes to outweigh it:
// one for a structured matrix, more for a large dense one. The two
// threads of worker w share only read-only state; its receiver writes
// the worker's own slices of `out` and its own tally.
class ColumnExchange {
 public:
  ColumnExchange(const CoordinatorOptions& options, size_t num_workers,
                 uint64_t first_task_id, const RrMatrix& matrix,
                 const std::vector<uint32_t>& codes, uint64_t stream_base,
                 uint64_t counter_stream, uint32_t* out)
      : options_(options),
        num_workers_(num_workers),
        first_task_id_(first_task_id),
        matrix_(matrix),
        codes_(codes),
        stream_base_(stream_base),
        counter_stream_(counter_stream),
        out_(out),
        num_shards_(codes.empty()
                        ? 0
                        : NumChunks(codes.size(), options.shard_size)),
        per_frame_(EncodedMatrixSize(matrix) / (4 * options.shard_size) + 1) {}

  size_t frames(size_t w) const {
    return (shards(w) + per_frame_ - 1) / per_frame_;
  }
  // Task ids this column uses, from first_task_id.
  uint64_t num_task_ids() const { return frames(0) * num_workers_; }

  // Streams worker w's AssignShards frames, one per shard group.
  Status Send(size_t w, TcpConnection& conn) const {
    for (size_t f = 0; f < frames(w); ++f) {
      AssignShardsMsg msg;
      msg.task_id = TaskId(w, f);
      msg.rng_kind = static_cast<uint8_t>(options_.rng);
      msg.seed = options_.seed;
      msg.stream_base = stream_base_;
      msg.counter_stream = counter_stream_;
      msg.matrix.emplace(matrix_);
      for (size_t i = FirstShard(f); i < EndShard(w, f); ++i) {
        const size_t s = ShardIndex(w, i);
        msg.shards.push_back(
            {s, Begin(s),
             std::vector<uint32_t>(codes_.begin() + Begin(s),
                                   codes_.begin() + End(s))});
      }
      Status sent = conn.SendFrame(FrameType::kAssignShards,
                                   EncodeAssignShards(msg),
                                   options_.deadline_ms);
      if (!sent.ok()) {
        return Status(sent.code(), "assigning shards to worker " +
                                       std::to_string(w) + ": " +
                                       sent.message());
      }
    }
    return Status::OK();
  }

  // Reads worker w's replies in order, checks each against what was
  // dealt, writes its slices at their global offsets and adds its
  // recounted categories to `tally`.
  Status Receive(size_t w, TcpConnection& conn,
                 std::vector<int64_t>& tally) const {
    const std::string who = "worker " + std::to_string(w);
    std::vector<int64_t> counts(tally.size());
    for (size_t f = 0; f < frames(w); ++f) {
      auto frame = conn.RecvFrame(options_.deadline_ms);
      if (!frame.ok()) {
        return Status(frame.status().code(), "waiting for " + who + ": " +
                                                 frame.status().message());
      }
      if (frame->type == FrameType::kAbort) {
        auto abort = ParseAbort(frame->payload);
        return Status::Unavailable(
            who + " aborted: " +
            (abort.ok() ? abort->reason : std::string("(unparseable)")));
      }
      if (frame->type != FrameType::kPartialResult) {
        return Status::InvalidArgument(who + " sent an unexpected frame");
      }
      auto partial = ParsePartialResult(frame->payload);
      if (!partial.ok()) return partial.status();
      if (partial->task_id != TaskId(w, f)) {
        return Status::InvalidArgument(who + " answered the wrong task");
      }
      const size_t first = FirstShard(f);
      if (partial->shards.size() != EndShard(w, f) - first ||
          partial->counts.size() != counts.size()) {
        return Status::InvalidArgument(who + " returned a malformed partial");
      }
      // The worker's counts are only a claim: recount its codes and
      // reject the partial unless the two agree, so a rogue or buggy
      // worker cannot skew λ̂ beside valid-looking microdata.
      std::fill(counts.begin(), counts.end(), 0);
      for (size_t k = 0; k < partial->shards.size(); ++k) {
        const ShardResult& got = partial->shards[k];
        const size_t s = ShardIndex(w, first + k);
        if (got.shard_index != s || got.codes.size() != End(s) - Begin(s)) {
          return Status::InvalidArgument(who + " returned mismatched shards");
        }
        for (uint32_t code : got.codes) {
          if (code >= counts.size()) {
            return Status::InvalidArgument(
                who + " returned codes outside the matrix range");
          }
          ++counts[code];
        }
        std::copy(got.codes.begin(), got.codes.end(), out_ + Begin(s));
      }
      if (counts != partial->counts) {
        return Status::InvalidArgument(
            who + " returned counts that disagree with its codes");
      }
      for (size_t c = 0; c < counts.size(); ++c) tally[c] += counts[c];
    }
    return Status::OK();
  }

 private:
  size_t shards(size_t w) const {
    return w < num_shards_ ? (num_shards_ - w - 1) / num_workers_ + 1 : 0;
  }
  uint64_t TaskId(size_t w, size_t f) const {
    return first_task_id_ + f * num_workers_ + w;
  }
  size_t FirstShard(size_t f) const { return f * per_frame_; }
  size_t EndShard(size_t w, size_t f) const {
    return std::min(shards(w), (f + 1) * per_frame_);
  }
  size_t ShardIndex(size_t w, size_t i) const { return w + i * num_workers_; }
  size_t Begin(size_t s) const { return s * options_.shard_size; }
  size_t End(size_t s) const {
    return std::min(codes_.size(), Begin(s) + options_.shard_size);
  }

  const CoordinatorOptions& options_;
  const size_t num_workers_;
  const uint64_t first_task_id_;
  const RrMatrix& matrix_;
  const std::vector<uint32_t>& codes_;
  const uint64_t stream_base_;
  const uint64_t counter_stream_;
  uint32_t* const out_;
  const size_t num_shards_;
  const size_t per_frame_;
};

}  // namespace

Coordinator::Coordinator(const CoordinatorOptions& options)
    : options_(options) {
  if (options_.shard_size == 0) options_.shard_size = 1;
}

Status Coordinator::Listen(uint16_t port) {
  return listener_.Listen(port);
}

Status Coordinator::AcceptWorkers(size_t count) {
  MDRR_RETURN_IF_ERROR(failure_);
  for (size_t i = 0; i < count; ++i) {
    auto conn = listener_.Accept(options_.deadline_ms);
    if (!conn.ok()) {
      return Poison(Status(conn.status().code(),
                           "accepting worker " + std::to_string(i) + " of " +
                               std::to_string(count) + ": " +
                               conn.status().message()));
    }
    auto role = ServerHandshake(conn.value(), options_.deadline_ms);
    if (!role.ok()) return Poison(role.status());
    if (role.value() != PeerRole::kWorker) {
      return Poison(Status::InvalidArgument(
          "peer connected with a non-worker role"));
    }
    workers_.push_back(std::move(conn).value());
  }
  return Status::OK();
}

StatusOr<PerturbedColumn> Coordinator::PerturbColumn(
    const RrMatrix& matrix, const std::vector<uint32_t>& codes,
    uint64_t stream_base, uint64_t counter_stream) {
  MDRR_RETURN_IF_ERROR(failure_);
  if (workers_.empty()) {
    return Poison(Status::FailedPrecondition("no workers connected"));
  }

  PerturbedColumn result;
  result.codes.assign(codes.size(), 0);
  const ColumnExchange exchange(options_, workers_.size(), next_task_id_,
                                matrix, codes, stream_base, counter_stream,
                                result.codes.data());
  next_task_id_ += exchange.num_task_ids();

  // One sender and one receiver thread per worker. Sending never waits on
  // receiving, and the receiver drains replies as they come, so neither
  // side can fill the other's socket buffers for good: no frame or column
  // size deadlocks. Plain threads, not ParallelChunks: a connection's two
  // threads must run at the same time.
  FailureLatch latch(workers_);
  std::vector<std::vector<int64_t>> tallies(
      workers_.size(), std::vector<int64_t>(matrix.size(), 0));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers_.size(); ++w) {
    if (exchange.frames(w) == 0) continue;
    threads.emplace_back(
        [&, w] { latch.Check(exchange.Send(w, workers_[w])); });
    threads.emplace_back(
        [&, w] { latch.Check(exchange.Receive(w, workers_[w], tallies[w])); });
  }
  for (std::thread& thread : threads) thread.join();
  if (!latch.status().ok()) return Poison(latch.status());

  stats::FrequencyTable total(std::vector<int64_t>(matrix.size(), 0));
  for (std::vector<int64_t>& tally : tallies) {
    total.Absorb(stats::FrequencyTable(std::move(tally)));
  }
  result.lambda = total.Proportions();
  return result;
}

Status Coordinator::Commit() {
  MDRR_RETURN_IF_ERROR(failure_);
  for (size_t w = 0; w < workers_.size(); ++w) {
    Status s =
        workers_[w].SendFrame(FrameType::kCommit, {}, options_.deadline_ms);
    if (!s.ok()) {
      // The transcript is already assembled; a worker that vanished
      // between its last result and the commit notification cannot
      // corrupt it. Report but do not poison.
      workers_[w].Close();
    }
  }
  workers_.clear();
  return Status::OK();
}

void Coordinator::Abort(const std::string& reason) {
  AbortMsg msg{reason};
  std::vector<uint8_t> payload = EncodeAbort(msg);
  for (TcpConnection& worker : workers_) {
    if (worker.valid()) {
      // Short best-effort deadline: an abort must never hang the
      // coordinator on a dead peer.
      worker.SendFrame(FrameType::kAbort, payload, 1000);
      worker.Close();
    }
  }
  workers_.clear();
  if (failure_.ok()) {
    failure_ = Status::Unavailable("release aborted: " + reason);
  }
}

Status Coordinator::Poison(Status status) {
  if (failure_.ok()) failure_ = status;
  // Drop every connection: after one failed exchange the shard/reply
  // pairing is unknown, and reusing a connection risks double-counting.
  for (TcpConnection& worker : workers_) worker.Close();
  workers_.clear();
  return failure_;
}

}  // namespace net
}  // namespace mdrr
