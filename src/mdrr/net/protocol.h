// Message schemas for the coordinator/worker and streaming-ingest
// protocols, plus the version handshake.
//
// Release protocol (one shard group = one task):
//
//   worker                         coordinator
//     | --- Hello(magic,ver,role) --> |
//     | <-- HelloAck ---------------- |        (or Abort on mismatch)
//     | <-- AssignShards(task 1) ---- |  matrix + RNG addressing + slices
//     | <-- AssignShards(task 2) ---- |  next shard group, not waiting
//     | --- PartialResult(task 1) --> |  perturbed slices + merged counts
//     | <-- AssignShards(task 3) ---- |
//     | --- PartialResult(task 2) --> |  replies in order per connection
//     |        ... every shard group of every column ...
//     | <-- Commit ------------------ |  release published, disconnect
//     | <-- Abort(reason) ----------- |  fail-closed at any point
//
// A column's shards go out one group per AssignShards frame, each with
// its own task id; the worker answers frames in the order they arrive.
//
// Every AssignShards carries the complete randomness address (seed,
// stream_base, counter_stream) and shard indices, so a worker
// reconstructs exactly the generator the in-process engine would use for
// each shard: mt19937 shard s draws from Stream(stream_base + s); philox
// elements are addressed by (counter_stream, global index). The
// coordinator rejects a partial whose counts disagree with its codes,
// merges the counts with FrequencyTable::Absorb (integer sums commute)
// and writes code slices at their global offsets, so the assembled
// transcript is bit-identical to BatchPerturbationEngine's.
//
// All Parse* functions accept untrusted bytes and return Status on any
// malformed input (fuzzed in net_fuzz_test.cc).

#ifndef MDRR_NET_PROTOCOL_H_
#define MDRR_NET_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mdrr/common/status.h"
#include "mdrr/common/status_or.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/net/frame.h"
#include "mdrr/net/socket.h"

namespace mdrr {
namespace net {

enum class PeerRole : uint8_t {
  kWorker = 1,  // computes shard perturbations for a coordinator
  kIngest = 2,  // streams reports into mdrr_collectd
};

// --- Handshake ---

struct HelloMsg {
  uint32_t magic = kProtocolMagic;
  uint32_t version = kProtocolVersion;
  PeerRole role = PeerRole::kWorker;
};

std::vector<uint8_t> EncodeHello(const HelloMsg& msg);
StatusOr<HelloMsg> ParseHello(const std::vector<uint8_t>& payload);

// Client side: sends Hello, waits for HelloAck. Version/magic mismatch or
// a server Abort fails with the server's reason.
Status ClientHandshake(TcpConnection& conn, PeerRole role,
                       int64_t deadline_ms);

// Server side: expects Hello, validates magic + version, replies HelloAck.
// On mismatch sends Abort with the reason and returns the error.
StatusOr<PeerRole> ServerHandshake(TcpConnection& conn, int64_t deadline_ms);

// --- Release protocol ---

struct ShardAssignment {
  uint64_t shard_index = 0;   // chunk index within the column
  uint64_t global_begin = 0;  // offset of the slice in the full column
  std::vector<uint32_t> codes;
};

struct AssignShardsMsg {
  uint64_t task_id = 0;  // echoes back in PartialResult
  uint8_t rng_kind = 0;  // RngPolicy cast to its underlying value
  uint64_t seed = 0;
  uint64_t stream_base = 0;     // mt19937: shard s uses stream_base + s
  uint64_t counter_stream = 0;  // philox: all elements on this stream
  std::optional<RrMatrix> matrix;
  std::vector<ShardAssignment> shards;
};

std::vector<uint8_t> EncodeAssignShards(const AssignShardsMsg& msg);
StatusOr<AssignShardsMsg> ParseAssignShards(
    const std::vector<uint8_t>& payload);

struct ShardResult {
  uint64_t shard_index = 0;
  std::vector<uint32_t> codes;
};

struct PartialResultMsg {
  uint64_t task_id = 0;
  std::vector<ShardResult> shards;
  // Output-category counts over all assigned shards, merged worker-side
  // (integer sums commute, so pre-merging loses nothing).
  std::vector<int64_t> counts;
};

std::vector<uint8_t> EncodePartialResult(const PartialResultMsg& msg);
StatusOr<PartialResultMsg> ParsePartialResult(
    const std::vector<uint8_t>& payload);

struct AbortMsg {
  std::string reason;
};

std::vector<uint8_t> EncodeAbort(const AbortMsg& msg);
StatusOr<AbortMsg> ParseAbort(const std::vector<uint8_t>& payload);

// --- Streaming ingest protocol (single connection) ---

struct StreamOpenMsg {
  std::vector<uint64_t> cardinalities;  // one per attribute
  uint64_t total_reports = 0;
};

std::vector<uint8_t> EncodeStreamOpen(const StreamOpenMsg& msg);
StatusOr<StreamOpenMsg> ParseStreamOpen(const std::vector<uint8_t>& payload);

// A batch of already-perturbed reports with contiguous absolute
// sequence numbers [first_sequence, first_sequence + num_reports).
// `codes` is row-major: report k's attribute j at k * num_attributes + j.
struct StreamReportMsg {
  uint64_t first_sequence = 0;
  uint32_t num_reports = 0;
  uint32_t num_attributes = 0;
  std::vector<uint32_t> codes;
};

std::vector<uint8_t> EncodeStreamReport(const StreamReportMsg& msg);
StatusOr<StreamReportMsg> ParseStreamReport(
    const std::vector<uint8_t>& payload);

struct StreamSealMsg {
  uint64_t total_reports = 0;
};

std::vector<uint8_t> EncodeStreamSeal(const StreamSealMsg& msg);
StatusOr<StreamSealMsg> ParseStreamSeal(const std::vector<uint8_t>& payload);

struct StreamResultMsg {
  uint64_t reports_ingested = 0;
  double epsilon_spent = 0.0;
  uint8_t finished = 0;
};

std::vector<uint8_t> EncodeStreamResult(const StreamResultMsg& msg);
StatusOr<StreamResultMsg> ParseStreamResult(
    const std::vector<uint8_t>& payload);

}  // namespace net
}  // namespace mdrr

#endif  // MDRR_NET_PROTOCOL_H_
