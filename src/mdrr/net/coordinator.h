// Release coordinator: distributes column perturbation over connected
// worker processes and reassembles the exact in-process transcript.
//
// The coordinator owns the listen socket and one connection per worker.
// PerturbColumn cuts the column into the SAME shard grid the threaded
// BatchPerturbationEngine would use (NumChunks of the configured
// shard_size) and deals shard s to worker s mod W. Each worker's shards
// stream out as AssignShards frames of one shard group each (one shard
// under a structured matrix; as many as it takes for the codes to
// outweigh a dense matrix, which every frame repeats), and its replies
// stream back in the same order. Slices land at their global offsets and
// per-worker counts merge through FrequencyTable::Absorb in worker order
// (integer sums commute), so for a fixed (seed, shard_size, rng) the
// assembled column is bit-identical to the in-process sharded engine for
// ANY worker count -- the contract distributed_release_test.cc and the
// distributed-independent benchmark workload assert.
//
// Every connection gets a sender thread and a receiver thread for the
// column. The sender never waits on the receiver, and the receiver reads
// each reply as soon as it arrives, so a worker blocked writing a reply
// is always drained and the sender's next frame always finds a reader:
// no frame or column size can deadlock on full socket buffers.
//
// Nothing runs on the calling thread before a column's first frame is on
// the wire: the senders read only the input column, and the output
// column is sized afterwards, 65 536 records at a time, while the
// workers compute. A receiver waits only until the step holding its next
// slice is sized, so it keeps draining its socket meanwhile.
//
// The buffers a code crosses: the sender copies a shard's input codes
// into its AssignShardsMsg and encodes that into the frame payload; the
// worker parses the payload into one vector per shard, perturbs each
// into another and encodes those into its reply; the receiver parses the
// reply into one vector per shard and copies each to its offset in the
// output column. Encoding straight from the column, decoding straight
// into the output and reusing the worker's buffers measured no faster
// on the distributed-independent benchmark workload, so the message
// codecs of protocol.h stay the only ones.
//
// Failure is fail-closed: any send/recv error, malformed reply, deadline,
// or worker disconnect poisons the coordinator -- the current and all
// later PerturbColumn calls fail, Commit refuses, and the caller aborts
// the release without publishing anything. The first failure shuts every
// worker socket down so blocked sibling threads return at once, and it
// is the status the coordinator keeps, not a sibling's consequent
// broken pipe. There are no retries: a re-sent shard could double-count
// if the first reply was in flight.

#ifndef MDRR_NET_COORDINATOR_H_
#define MDRR_NET_COORDINATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mdrr/common/status.h"
#include "mdrr/common/status_or.h"
#include "mdrr/core/perturber.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/net/socket.h"
#include "mdrr/rng/counter_rng.h"

namespace mdrr {
namespace net {

struct CoordinatorOptions {
  uint64_t seed = 1;
  RngKind rng = RngKind::kMt19937;
  // Shard grain -- must equal the ExecutionPolicy's shard_size for the
  // bit-equality contract to hold (ReleasePlan::RunDistributed rejects a
  // seed, rng or shard_size that differs from its policy). 0 is clamped
  // to 1.
  size_t shard_size = 1 << 16;
  // Per-operation network deadline; <= 0 uses kDefaultDeadlineMs.
  int64_t deadline_ms = 0;
};

class Coordinator {
 public:
  explicit Coordinator(const CoordinatorOptions& options);

  // Binds the listen socket (port 0 = ephemeral, see port()).
  Status Listen(uint16_t port);
  uint16_t port() const { return listener_.port(); }

  // Accepts and handshakes `count` workers. Fails (and poisons the
  // coordinator) if any worker misses the deadline or fails the
  // handshake.
  Status AcceptWorkers(size_t count);

  size_t num_workers() const { return workers_.size(); }
  const CoordinatorOptions& options() const { return options_; }

  // Perturbs one column across the workers. `stream_base` and
  // `counter_stream` carry the engine's randomness addressing for this
  // column (see batch_engine.h stream layout).
  StatusOr<PerturbedColumn> PerturbColumn(const RrMatrix& matrix,
                                          const std::vector<uint32_t>& codes,
                                          uint64_t stream_base,
                                          uint64_t counter_stream);

  // Tells every worker the release committed and disconnects them.
  // Refuses if the coordinator is poisoned.
  Status Commit();

  // Best-effort Abort(reason) to every worker, then disconnect. Safe to
  // call at any point, including after a failure.
  void Abort(const std::string& reason);

 private:
  Status Poison(Status status);

  CoordinatorOptions options_;
  TcpListener listener_;
  std::vector<TcpConnection> workers_;
  uint64_t next_task_id_ = 1;
  Status failure_;  // first failure; non-OK means poisoned
};

}  // namespace net
}  // namespace mdrr

#endif  // MDRR_NET_COORDINATOR_H_
