#include "mdrr/net/coordinator.h"

#include <algorithm>
#include <utility>

#include "mdrr/common/parallel.h"
#include "mdrr/net/protocol.h"
#include "mdrr/net/wire.h"
#include "mdrr/stats/frequency.h"

namespace mdrr {
namespace net {

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

  const size_t n = codes.size();
  const size_t num_shards = n == 0 ? 0 : NumChunks(n, options_.shard_size);
  const size_t num_workers = workers_.size();
  const uint64_t task_id = next_task_id_++;

  // Deal shard s to worker s mod W. The map from shard to worker is pure
  // bookkeeping -- randomness is addressed per shard, so ANY assignment
  // reassembles identically; round-robin just balances the load.
  std::vector<AssignShardsMsg> assignments(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    AssignShardsMsg& msg = assignments[w];
    msg.task_id = task_id;
    msg.rng_kind = static_cast<uint8_t>(options_.rng);
    msg.seed = options_.seed;
    msg.stream_base = stream_base;
    msg.counter_stream = counter_stream;
    msg.matrix.emplace(matrix);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t begin = s * options_.shard_size;
    const size_t end = std::min(n, begin + options_.shard_size);
    ShardAssignment shard;
    shard.shard_index = s;
    shard.global_begin = begin;
    shard.codes.assign(codes.begin() + static_cast<ptrdiff_t>(begin),
                       codes.begin() + static_cast<ptrdiff_t>(end));
    assignments[s % num_workers].shards.push_back(std::move(shard));
  }

  // Send every assignment before reading any reply: workers always read
  // their full assignment before writing results, so the two sides never
  // deadlock on full socket buffers.
  for (size_t w = 0; w < num_workers; ++w) {
    if (assignments[w].shards.empty()) continue;
    Status s = workers_[w].SendFrame(FrameType::kAssignShards,
                                     EncodeAssignShards(assignments[w]),
                                     options_.deadline_ms);
    if (!s.ok()) {
      return Poison(Status(s.code(), "assigning shards to worker " +
                                         std::to_string(w) + ": " +
                                         s.message()));
    }
  }

  PerturbedColumn result;
  result.codes.assign(n, 0);
  stats::FrequencyTable total(std::vector<int64_t>(matrix.size(), 0));

  for (size_t w = 0; w < num_workers; ++w) {
    const AssignShardsMsg& sent = assignments[w];
    if (sent.shards.empty()) continue;
    auto frame = workers_[w].RecvFrame(options_.deadline_ms);
    if (!frame.ok()) {
      return Poison(Status(frame.status().code(),
                           "waiting for worker " + std::to_string(w) + ": " +
                               frame.status().message()));
    }
    if (frame->type == FrameType::kAbort) {
      auto abort = ParseAbort(frame->payload);
      return Poison(Status::Unavailable(
          "worker " + std::to_string(w) + " aborted: " +
          (abort.ok() ? abort->reason : std::string("(unparseable)"))));
    }
    if (frame->type != FrameType::kPartialResult) {
      return Poison(Status::InvalidArgument(
          "worker " + std::to_string(w) + " sent an unexpected frame"));
    }
    auto partial = ParsePartialResult(frame->payload);
    if (!partial.ok()) return Poison(partial.status());
    if (partial->task_id != task_id) {
      return Poison(Status::InvalidArgument(
          "worker " + std::to_string(w) + " answered the wrong task"));
    }
    if (partial->shards.size() != sent.shards.size() ||
        partial->counts.size() != matrix.size()) {
      return Poison(Status::InvalidArgument(
          "worker " + std::to_string(w) + " returned a malformed partial"));
    }
    // The worker's counts are only a claim: recount its codes and reject
    // the partial unless the two agree, so a rogue or buggy worker cannot
    // skew λ̂ beside valid-looking microdata.
    std::vector<int64_t> counts(matrix.size(), 0);
    for (size_t i = 0; i < partial->shards.size(); ++i) {
      const ShardResult& got = partial->shards[i];
      const ShardAssignment& want = sent.shards[i];
      if (got.shard_index != want.shard_index ||
          got.codes.size() != want.codes.size()) {
        return Poison(Status::InvalidArgument(
            "worker " + std::to_string(w) + " returned mismatched shards"));
      }
      for (uint32_t code : got.codes) {
        if (code >= matrix.size()) {
          return Poison(Status::InvalidArgument(
              "worker " + std::to_string(w) +
              " returned codes outside the matrix range"));
        }
        ++counts[code];
      }
      std::copy(got.codes.begin(), got.codes.end(),
                result.codes.begin() +
                    static_cast<ptrdiff_t>(want.global_begin));
    }
    if (counts != partial->counts) {
      return Poison(Status::InvalidArgument(
          "worker " + std::to_string(w) +
          " returned counts that disagree with its codes"));
    }
    total.Absorb(stats::FrequencyTable(std::move(counts)));
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
