#include "mdrr/net/worker.h"

#include <utility>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/net/protocol.h"
#include "mdrr/net/socket.h"
#include "mdrr/net/wire.h"

namespace mdrr {
namespace net {
namespace {

// Computes one assignment's shards and the worker-merged counts.
StatusOr<PartialResultMsg> ComputeAssignment(const AssignShardsMsg& msg) {
  if (!msg.matrix.has_value()) {
    return Status::InvalidArgument("assignment carries no matrix");
  }
  if (msg.rng_kind != static_cast<uint8_t>(RngKind::kMt19937) &&
      msg.rng_kind != static_cast<uint8_t>(RngKind::kPhilox)) {
    return Status::InvalidArgument("unknown rng policy in assignment");
  }
  const DirectEncodingOracle oracle(*msg.matrix);
  const ColumnAddress address{static_cast<RngKind>(msg.rng_kind), msg.seed,
                              msg.stream_base, msg.counter_stream};

  PartialResultMsg result;
  result.task_id = msg.task_id;
  result.counts.assign(oracle.domain_size(), 0);
  result.shards.reserve(msg.shards.size());
  for (const ShardAssignment& shard : msg.shards) {
    ShardResult out;
    out.shard_index = shard.shard_index;
    out.codes.resize(shard.codes.size());
    PerturbShard(oracle, address, shard.shard_index, shard.global_begin,
                 shard.codes.data(), shard.codes.size(), out.codes.data(),
                 result.counts.data());
    result.shards.push_back(std::move(out));
  }
  return result;
}

}  // namespace

Status RunWorker(const std::string& host, uint16_t port,
                 const WorkerOptions& options) {
  MDRR_ASSIGN_OR_RETURN(
      TcpConnection conn,
      TcpConnection::Connect(host, port, options.deadline_ms));
  MDRR_RETURN_IF_ERROR(
      ClientHandshake(conn, PeerRole::kWorker, options.deadline_ms));

  for (;;) {
    MDRR_ASSIGN_OR_RETURN(Frame frame,
                          conn.RecvFrame(options.idle_deadline_ms));
    switch (frame.type) {
      case FrameType::kAssignShards: {
        auto msg = ParseAssignShards(frame.payload);
        if (!msg.ok()) {
          AbortMsg abort{"malformed AssignShards: " + msg.status().message()};
          conn.SendFrame(FrameType::kAbort, EncodeAbort(abort),
                         options.deadline_ms);
          return msg.status();
        }
        auto partial = ComputeAssignment(msg.value());
        if (!partial.ok()) {
          AbortMsg abort{partial.status().message()};
          conn.SendFrame(FrameType::kAbort, EncodeAbort(abort),
                         options.deadline_ms);
          return partial.status();
        }
        MDRR_RETURN_IF_ERROR(conn.SendFrame(
            FrameType::kPartialResult, EncodePartialResult(partial.value()),
            options.deadline_ms));
        break;
      }
      case FrameType::kCommit:
        return Status::OK();
      case FrameType::kAbort: {
        auto abort = ParseAbort(frame.payload);
        return Status::Unavailable(
            "coordinator aborted: " +
            (abort.ok() ? abort->reason : std::string("(unparseable)")));
      }
      default:
        return Status::InvalidArgument(
            "unexpected frame type from coordinator");
    }
  }
}

}  // namespace net
}  // namespace mdrr
