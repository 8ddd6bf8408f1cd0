// Worker side of the distributed release protocol.
//
// RunWorker connects to a coordinator, handshakes as PeerRole::kWorker,
// then serves AssignShards requests until the coordinator commits
// (Status::OK), aborts (Status::Unavailable with the reason), or the
// connection fails. One call serves exactly one release session.
//
// Each shard runs PerturbShard (core/frequency_oracle.h) over the
// matrix's direct-encoding oracle at the address the assignment carries
// -- the same kernel the in-process engine runs, so the worker reproduces
// it draw for draw. The address contract is stated in
// core/batch_engine.h.
//
// A frame's codes cross four buffers here: the received payload, one
// parsed vector per shard, one perturbed vector per shard, and the reply
// payload they are encoded into (net/coordinator.h lists the
// coordinator's side).

#ifndef MDRR_NET_WORKER_H_
#define MDRR_NET_WORKER_H_

#include <cstdint>
#include <string>

#include "mdrr/common/status.h"

namespace mdrr {
namespace net {

struct WorkerOptions {
  // Deadline for connect, handshake, and result sends; <= 0 uses
  // kDefaultDeadlineMs.
  int64_t deadline_ms = 0;
  // How long to sit idle waiting for the next assignment before giving
  // up on the coordinator. Longer than deadline_ms because the
  // coordinator legitimately goes quiet while it runs the serial stages
  // (adjustment, synthesis, estimation) between column perturbations.
  int64_t idle_deadline_ms = 120000;
};

// Serves one coordinator session. Returns OK on Commit, an error on
// Abort, malformed traffic, or connection failure.
Status RunWorker(const std::string& host, uint16_t port,
                 const WorkerOptions& options = {});

}  // namespace net
}  // namespace mdrr

#endif  // MDRR_NET_WORKER_H_
