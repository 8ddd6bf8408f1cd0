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
// connecting on an unknown flag or a malformed value, naming the flag.

#include <cstdint>
#include <cstdio>
#include <string>

#include "mdrr/common/flags.h"
#include "mdrr/common/string_util.h"
#include "mdrr/net/worker.h"

int main(int argc, char** argv) {
  mdrr::FlagSet flags;
  flags.Parse(argc, argv);

  mdrr::net::WorkerOptions options;
  struct IntFlag {
    const char* key;
    int64_t* value;
  };
  const IntFlag int_flags[] = {
      {"deadline_ms", &options.deadline_ms},
      {"idle_deadline_ms", &options.idle_deadline_ms},
  };
  for (const std::string& key : flags.Keys()) {
    if (key == "connect") continue;
    const IntFlag* known = nullptr;
    for (const IntFlag& flag : int_flags) {
      if (key == flag.key) known = &flag;
    }
    if (known == nullptr) {
      std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
      return 1;
    }
    // FlagSet::GetInt would fall back to the default on a typo; a worker
    // must not silently run with a deadline nobody asked for.
    auto parsed = mdrr::ParseInt64(flags.GetString(key, ""));
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: --%s: %s\n", key.c_str(),
                   parsed.status().message().c_str());
      return 1;
    }
    *known->value = parsed.value();
  }

  const std::string target = flags.GetString("connect", "");
  const size_t colon = target.rfind(':');
  if (target.empty() || colon == std::string::npos) {
    std::fprintf(stderr,
                 "usage: mdrr_worker --connect=HOST:PORT [--deadline_ms=MS] "
                 "[--idle_deadline_ms=MS]\n");
    return 1;
  }
  const std::string host = target.substr(0, colon);
  auto port = mdrr::ParseInt64(target.substr(colon + 1));
  if (!port.ok() || port.value() < 1 || port.value() > 65535) {
    std::fprintf(stderr, "error: --connect port must be 1..65535\n");
    return 1;
  }

  mdrr::Status status = mdrr::net::RunWorker(
      host, static_cast<uint16_t>(port.value()), options);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("worker done\n");
  return 0;
}
