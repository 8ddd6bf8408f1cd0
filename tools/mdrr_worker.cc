// mdrr_worker: worker process for a distributed release.
//
//   mdrr_worker --connect=HOST:PORT [--deadline_ms=MS] [--idle_deadline_ms=MS]
//
// Connects to a coordinator (a `mdrr_cli run --listen=PORT` process or
// an embedded net::Coordinator), handshakes, and serves shard
// assignments until the coordinator commits. The worker holds no data
// and no spec: everything it needs to reproduce the engine's
// deterministic draws (matrix, seed, stream addresses, shard slices)
// arrives in each AssignShards message.
//
// Exit status: 0 after a clean Commit, 1 on any transport, protocol, or
// compute failure (including a coordinator Abort), and 1 before
// connecting on a flag outside the three above, a malformed deadline or
// a malformed HOST:PORT, naming the flag.

#include <cstdio>

#include "mdrr/common/flags.h"
#include "mdrr/net/socket.h"
#include "mdrr/net/worker.h"

int main(int argc, char** argv) {
  const mdrr::FlagSet flags = mdrr::ParseFlagsOrExit(
      argc, argv,
      {mdrr::TextFlag("connect"), mdrr::IntFlag("deadline_ms"),
       mdrr::IntFlag("idle_deadline_ms")});
  if (!flags.Has("connect")) {
    std::fprintf(stderr,
                 "usage: mdrr_worker --connect=HOST:PORT [--deadline_ms=MS] "
                 "[--idle_deadline_ms=MS]\n");
    return 1;
  }
  auto target = mdrr::net::ParseHostPort(flags.GetString("connect", ""));
  if (!target.ok()) {
    std::fprintf(stderr, "error: --connect: %s\n",
                 target.status().message().c_str());
    return 1;
  }

  mdrr::net::WorkerOptions options;
  options.deadline_ms = flags.GetInt("deadline_ms", options.deadline_ms);
  options.idle_deadline_ms =
      flags.GetInt("idle_deadline_ms", options.idle_deadline_ms);
  mdrr::Status status =
      mdrr::net::RunWorker(target.value().host, target.value().port, options);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("worker done\n");
  return 0;
}
