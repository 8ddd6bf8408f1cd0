#include "mdrr/net/protocol.h"

#include <algorithm>
#include <utility>

#include "mdrr/net/wire.h"

namespace mdrr {
namespace net {

std::vector<uint8_t> EncodeHello(const HelloMsg& msg) {
  WireWriter w;
  w.U32(msg.magic);
  w.U32(msg.version);
  w.U8(static_cast<uint8_t>(msg.role));
  return w.Release();
}

StatusOr<HelloMsg> ParseHello(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  HelloMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.magic, r.U32());
  MDRR_ASSIGN_OR_RETURN(msg.version, r.U32());
  MDRR_ASSIGN_OR_RETURN(uint8_t role, r.U8());
  if (role != static_cast<uint8_t>(PeerRole::kWorker) &&
      role != static_cast<uint8_t>(PeerRole::kIngest)) {
    return Status::InvalidArgument("unknown peer role");
  }
  msg.role = static_cast<PeerRole>(role);
  return msg;
}

Status ClientHandshake(TcpConnection& conn, PeerRole role,
                       int64_t deadline_ms) {
  HelloMsg hello;
  hello.role = role;
  MDRR_RETURN_IF_ERROR(
      conn.SendFrame(FrameType::kHello, EncodeHello(hello), deadline_ms));
  MDRR_ASSIGN_OR_RETURN(Frame frame, conn.RecvFrame(deadline_ms));
  if (frame.type == FrameType::kAbort) {
    auto abort = ParseAbort(frame.payload);
    return Status::Unavailable("server rejected handshake: " +
                               (abort.ok() ? abort->reason
                                           : std::string("(unparseable)")));
  }
  if (frame.type != FrameType::kHelloAck) {
    return Status::InvalidArgument("expected HelloAck in handshake");
  }
  WireReader r(frame.payload);
  MDRR_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  MDRR_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (magic != kProtocolMagic) {
    return Status::InvalidArgument("server spoke a different protocol");
  }
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: server v" + std::to_string(version) +
        ", client v" + std::to_string(kProtocolVersion));
  }
  return Status::OK();
}

StatusOr<PeerRole> ServerHandshake(TcpConnection& conn, int64_t deadline_ms) {
  MDRR_ASSIGN_OR_RETURN(Frame frame, conn.RecvFrame(deadline_ms));
  if (frame.type != FrameType::kHello) {
    AbortMsg abort{"expected Hello"};
    conn.SendFrame(FrameType::kAbort, EncodeAbort(abort), deadline_ms);
    return Status::InvalidArgument("peer did not open with Hello");
  }
  auto hello = ParseHello(frame.payload);
  if (!hello.ok()) {
    AbortMsg abort{"malformed Hello"};
    conn.SendFrame(FrameType::kAbort, EncodeAbort(abort), deadline_ms);
    return hello.status();
  }
  if (hello->magic != kProtocolMagic) {
    AbortMsg abort{"bad protocol magic"};
    conn.SendFrame(FrameType::kAbort, EncodeAbort(abort), deadline_ms);
    return Status::InvalidArgument("peer spoke a different protocol");
  }
  if (hello->version != kProtocolVersion) {
    AbortMsg abort{"unsupported protocol version v" +
                   std::to_string(hello->version) + " (server speaks v" +
                   std::to_string(kProtocolVersion) + ")"};
    conn.SendFrame(FrameType::kAbort, EncodeAbort(abort), deadline_ms);
    return Status::InvalidArgument(
        "protocol version mismatch: peer v" + std::to_string(hello->version) +
        ", server v" + std::to_string(kProtocolVersion));
  }
  WireWriter ack;
  ack.U32(kProtocolMagic);
  ack.U32(kProtocolVersion);
  MDRR_RETURN_IF_ERROR(
      conn.SendFrame(FrameType::kHelloAck, ack.Release(), deadline_ms));
  return hello->role;
}

std::vector<uint8_t> EncodeAssignShards(const AssignShardsMsg& msg) {
  // Header fields, matrix, shard count, then per shard its index, begin,
  // code count and codes.
  size_t size = 8 + 1 + 3 * 8 + EncodedMatrixSize(*msg.matrix) + 8;
  for (const ShardAssignment& shard : msg.shards) {
    size += 3 * 8 + 4 * shard.codes.size();
  }
  WireWriter w;
  w.Reserve(size);
  w.U64(msg.task_id);
  w.U8(msg.rng_kind);
  w.U64(msg.seed);
  w.U64(msg.stream_base);
  w.U64(msg.counter_stream);
  EncodeMatrix(*msg.matrix, w);
  w.U64(msg.shards.size());
  for (const ShardAssignment& shard : msg.shards) {
    w.U64(shard.shard_index);
    w.U64(shard.global_begin);
    EncodeCodes(shard.codes.data(), shard.codes.size(), w);
  }
  return w.Release();
}

StatusOr<AssignShardsMsg> ParseAssignShards(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  AssignShardsMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.task_id, r.U64());
  MDRR_ASSIGN_OR_RETURN(msg.rng_kind, r.U8());
  MDRR_ASSIGN_OR_RETURN(msg.seed, r.U64());
  MDRR_ASSIGN_OR_RETURN(msg.stream_base, r.U64());
  MDRR_ASSIGN_OR_RETURN(msg.counter_stream, r.U64());
  MDRR_ASSIGN_OR_RETURN(RrMatrix matrix, DecodeMatrix(r));
  msg.matrix.emplace(std::move(matrix));
  MDRR_ASSIGN_OR_RETURN(uint64_t num_shards, r.U64());
  // Each shard is at least shard_index + global_begin + a code length.
  MDRR_RETURN_IF_ERROR(r.CheckClaimed(num_shards, 24, "shard count"));
  msg.shards.reserve(static_cast<size_t>(num_shards));
  for (uint64_t i = 0; i < num_shards; ++i) {
    ShardAssignment shard;
    MDRR_ASSIGN_OR_RETURN(shard.shard_index, r.U64());
    MDRR_ASSIGN_OR_RETURN(shard.global_begin, r.U64());
    MDRR_ASSIGN_OR_RETURN(shard.codes, DecodeCodes(r));
    uint32_t max_code = 0;
    for (uint32_t code : shard.codes) max_code = std::max(max_code, code);
    if (max_code >= msg.matrix->size()) {
      return Status::InvalidArgument("shard code out of matrix range");
    }
    msg.shards.push_back(std::move(shard));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after AssignShards");
  }
  return msg;
}

std::vector<uint8_t> EncodePartialResult(const PartialResultMsg& msg) {
  // Task id, shard count, per shard its index, code count and codes, then
  // the count buffer's length and entries.
  size_t size = 2 * 8 + 8 + 8 * msg.counts.size();
  for (const ShardResult& shard : msg.shards) {
    size += 2 * 8 + 4 * shard.codes.size();
  }
  WireWriter w;
  w.Reserve(size);
  w.U64(msg.task_id);
  w.U64(msg.shards.size());
  for (const ShardResult& shard : msg.shards) {
    w.U64(shard.shard_index);
    EncodeCodes(shard.codes.data(), shard.codes.size(), w);
  }
  EncodeCounts(msg.counts, w);
  return w.Release();
}

StatusOr<PartialResultMsg> ParsePartialResult(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  PartialResultMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.task_id, r.U64());
  MDRR_ASSIGN_OR_RETURN(uint64_t num_shards, r.U64());
  MDRR_RETURN_IF_ERROR(r.CheckClaimed(num_shards, 16, "shard result count"));
  msg.shards.reserve(static_cast<size_t>(num_shards));
  for (uint64_t i = 0; i < num_shards; ++i) {
    ShardResult shard;
    MDRR_ASSIGN_OR_RETURN(shard.shard_index, r.U64());
    MDRR_ASSIGN_OR_RETURN(shard.codes, DecodeCodes(r));
    msg.shards.push_back(std::move(shard));
  }
  MDRR_ASSIGN_OR_RETURN(msg.counts, DecodeCounts(r));
  // Perturbation counts are category tallies: a negative value can only
  // come from a broken or hostile worker, and downstream
  // FrequencyTable::Absorb must never see it (it would CHECK).
  for (int64_t count : msg.counts) {
    if (count < 0) {
      return Status::InvalidArgument("PartialResult count is negative");
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after PartialResult");
  }
  return msg;
}

std::vector<uint8_t> EncodeAbort(const AbortMsg& msg) {
  WireWriter w;
  w.String(msg.reason);
  return w.Release();
}

StatusOr<AbortMsg> ParseAbort(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  AbortMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.reason, r.String());
  return msg;
}

std::vector<uint8_t> EncodeStreamOpen(const StreamOpenMsg& msg) {
  WireWriter w;
  w.U64(msg.cardinalities.size());
  for (uint64_t c : msg.cardinalities) w.U64(c);
  w.U64(msg.total_reports);
  return w.Release();
}

StatusOr<StreamOpenMsg> ParseStreamOpen(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  StreamOpenMsg msg;
  MDRR_ASSIGN_OR_RETURN(uint64_t num_attrs, r.U64());
  MDRR_RETURN_IF_ERROR(r.CheckClaimed(num_attrs, 8, "cardinality count"));
  msg.cardinalities.resize(static_cast<size_t>(num_attrs));
  for (size_t j = 0; j < msg.cardinalities.size(); ++j) {
    MDRR_ASSIGN_OR_RETURN(msg.cardinalities[j], r.U64());
    if (msg.cardinalities[j] == 0) {
      return Status::InvalidArgument("attribute cardinality must be >= 1");
    }
  }
  MDRR_ASSIGN_OR_RETURN(msg.total_reports, r.U64());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after StreamOpen");
  }
  return msg;
}

std::vector<uint8_t> EncodeStreamReport(const StreamReportMsg& msg) {
  WireWriter w;
  w.U64(msg.first_sequence);
  w.U32(msg.num_reports);
  w.U32(msg.num_attributes);
  w.U32Array(msg.codes.data(), msg.codes.size());
  return w.Release();
}

StatusOr<StreamReportMsg> ParseStreamReport(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  StreamReportMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.first_sequence, r.U64());
  MDRR_ASSIGN_OR_RETURN(msg.num_reports, r.U32());
  MDRR_ASSIGN_OR_RETURN(msg.num_attributes, r.U32());
  if (msg.num_reports == 0 || msg.num_attributes == 0) {
    return Status::InvalidArgument("empty stream report batch");
  }
  uint64_t total = static_cast<uint64_t>(msg.num_reports) *
                   static_cast<uint64_t>(msg.num_attributes);
  MDRR_RETURN_IF_ERROR(r.CheckClaimed(total, 4, "report code count"));
  msg.codes.resize(static_cast<size_t>(total));
  MDRR_RETURN_IF_ERROR(r.U32Array(msg.codes.data(), msg.codes.size()));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after StreamReport");
  }
  return msg;
}

std::vector<uint8_t> EncodeStreamSeal(const StreamSealMsg& msg) {
  WireWriter w;
  w.U64(msg.total_reports);
  return w.Release();
}

StatusOr<StreamSealMsg> ParseStreamSeal(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  StreamSealMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.total_reports, r.U64());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after StreamSeal");
  }
  return msg;
}

std::vector<uint8_t> EncodeStreamResult(const StreamResultMsg& msg) {
  WireWriter w;
  w.U64(msg.reports_ingested);
  w.F64(msg.epsilon_spent);
  w.U8(msg.finished);
  return w.Release();
}

StatusOr<StreamResultMsg> ParseStreamResult(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  StreamResultMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.reports_ingested, r.U64());
  MDRR_ASSIGN_OR_RETURN(msg.epsilon_spent, r.F64());
  MDRR_ASSIGN_OR_RETURN(msg.finished, r.U8());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after StreamResult");
  }
  return msg;
}

}  // namespace net
}  // namespace mdrr
