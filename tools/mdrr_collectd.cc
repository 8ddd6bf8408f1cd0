// mdrr_collectd: the always-on streaming collector service.
//
//   mdrr_collectd --spec=stream.spec --input=reports.csv [--no_header]
//       [--reports=N]          total reports to stream (0 = one per row;
//                              beyond num_rows the replay wraps around)
//       [--ingest_threads=T]   producer threads (never changes output;
//                              at most 256)
//       [--shards=S]           ingest shards / drain threads (at most 256)
//       [--ring_buckets=B]     live buckets in the count ring (at most
//                              1024)
//       [--pause_at=N]         stop before sequence N (before the end of
//                              the stream) and snapshot
//       [--snapshot_out=FILE]  where the pause snapshot goes (required
//                              with --pause_at)
//       [--resume=FILE]        continue from a saved snapshot
//       [--windows_out=FILE]   write the window transcript here too
//       [--verify_replay]      re-run single-threaded, require the
//                              transcripts to match bit for bit
//
// Socket mode (real ingest instead of an in-process replay):
//
//   mdrr_collectd --spec=stream.spec --listen=PORT
//       [--shards=S] [--ring_buckets=B] [--deadline_ms=MS]
//       Bind PORT (0 = ephemeral, printed to stderr), accept ONE ingest
//       client, and feed its reports through the collector; stdout is
//       the same window transcript the in-process replay prints.
//
//   mdrr_collectd --spec=stream.spec --input=reports.csv --connect=HOST:PORT
//       [--reports=N] [--batch=K] [--deadline_ms=MS]
//       Party side: perturb the CSV rows locally (sequence-keyed
//       randomness, so the server never sees true values) and stream
//       them to a --listen instance.
//
// The spec must have streaming.enabled; parties are simulated by
// replaying the CSV rows as a fixed arrival schedule (report s = row
// s % num_rows perturbed with sequence-keyed randomness), so stdout is
// byte-identical for any --ingest_threads / --shards at a fixed spec.
// A --pause_at run plus a --resume run produces exactly the windows of
// the uninterrupted run -- the snapshot carries the counts, the epsilon
// ledger, and the sequence cursor.
//
// Exit status: 0 on success (including budget-suppressed windows --
// that is the fail-closed degraded mode, not an error), 1 otherwise --
// including, before any work, a flag outside kFlags, a flag its mode does
// not honour (ModeFlags) or a value that does not parse as its flag's
// kind within its range, naming the flag.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "mdrr/common/flags.h"
#include "mdrr/dataset/csv.h"
#include "mdrr/net/socket.h"
#include "mdrr/protocol/net_ingest.h"
#include "mdrr/protocol/stream_ingest.h"
#include "mdrr/release/serialization.h"

namespace {

using mdrr::Dataset;
using mdrr::FlagSet;
using mdrr::Status;
using mdrr::StatusOr;
namespace release = mdrr::release;
namespace protocol = mdrr::protocol;

// The flags mdrr_collectd honours.
const std::vector<mdrr::FlagDef> kFlags = {
    mdrr::TextFlag("spec"), mdrr::TextFlag("input"),
    mdrr::BoolFlag("no_header"), mdrr::TextFlag("snapshot_out"),
    mdrr::TextFlag("resume"), mdrr::TextFlag("windows_out"),
    mdrr::BoolFlag("verify_replay"), mdrr::TextFlag("connect"),
    mdrr::UintFlag("reports"),
    mdrr::UintFlag("ingest_threads", 0, release::kMaxIngestThreads),
    mdrr::UintFlag("shards", 0, release::kMaxStreamingShards),
    mdrr::UintFlag("ring_buckets", 0, release::kMaxRingBuckets),
    mdrr::UintFlag("pause_at"), mdrr::UintFlag("listen", 0, 65535),
    mdrr::IntFlag("deadline_ms", 0), mdrr::UintFlag("batch", 0, UINT32_MAX)};

// The flags one mode honours: --listen serves one socket client,
// --connect streams the CSV to a server, and otherwise the CSV replays
// in process.
struct ModeFlags {
  const char* mode;
  std::vector<std::string> honoured;
};

ModeFlags ModeFlagsOf(const FlagSet& flags) {
  if (flags.Has("listen")) {
    return {"--listen",
            {"spec", "listen", "shards", "ring_buckets", "deadline_ms"}};
  }
  if (flags.Has("connect")) {
    return {"--connect",
            {"spec", "input", "no_header", "connect", "reports", "batch",
             "deadline_ms"}};
  }
  return {"the replay",
          {"spec", "input", "no_header", "snapshot_out", "resume",
           "windows_out", "verify_replay", "reports", "ingest_threads",
           "shards", "ring_buckets", "pause_at"}};
}

// Refuses, naming it, the first given flag that its mode does not
// honour.
Status CheckModeFlags(const FlagSet& flags) {
  const ModeFlags mode = ModeFlagsOf(flags);
  for (const mdrr::FlagDef& flag : kFlags) {
    if (flags.Has(flag.name) &&
        std::find(mode.honoured.begin(), mode.honoured.end(), flag.name) ==
            mode.honoured.end()) {
      return Status::InvalidArgument(std::string("--") + flag.name +
                                     " is not honoured in " + mode.mode +
                                     " mode");
    }
  }
  return Status::OK();
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Status WriteFile(const std::string& text, const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  file << text;
  if (!file.good()) {
    return Status::IoError("write failure on '" + path + "'");
  }
  return Status::OK();
}

StatusOr<protocol::StreamingReplayResult> Run(
    const release::ReleaseSpec& spec, const Dataset& dataset,
    const FlagSet& flags, size_t ingest_threads,
    const release::StreamingSnapshot* resume) {
  protocol::StreamingReplayOptions options;
  options.num_ingest_threads = ingest_threads;
  options.collector.num_shards = flags.GetUint64("shards", 1);
  options.collector.ring_buckets = flags.GetUint64("ring_buckets", 4);
  options.total_reports = flags.GetUint64("reports", 0);
  options.pause_at = flags.GetUint64("pause_at", 0);
  options.resume = resume;
  return protocol::RunStreamingReplay(spec, dataset, options);
}

// Socket server: accept one ingest client, run the collector on its
// reports, print the transcript.
int ServeSocket(const FlagSet& flags, const release::ReleaseSpec& spec) {
  mdrr::net::TcpListener listener;
  Status bound =
      listener.Listen(static_cast<uint16_t>(flags.GetUint64("listen", 0)));
  if (!bound.ok()) return Fail(bound);
  std::fprintf(stderr, "listening on port %u\n", listener.port());

  protocol::StreamIngestServeOptions options;
  options.collector.num_shards = flags.GetUint64("shards", 1);
  options.collector.ring_buckets = flags.GetUint64("ring_buckets", 4);
  options.deadline_ms = flags.GetInt("deadline_ms", 0);
  auto served = protocol::ServeStreamIngest(spec, listener, options);
  if (!served.ok()) return Fail(served.status());

  std::fputs(release::PrintStreamWindows(served.value().windows).c_str(),
             stdout);
  std::printf("ingested %llu reports over socket; epsilon spent %.6g\n",
              static_cast<unsigned long long>(
                  served.value().reports_ingested),
              served.value().epsilon_spent);
  return 0;
}

// Socket client: replay the input CSV into a --listen instance.
int ConnectSocket(const FlagSet& flags, const release::ReleaseSpec& spec,
                  const Dataset& dataset) {
  auto target = mdrr::net::ParseHostPort(flags.GetString("connect", ""));
  if (!target.ok()) {
    return Fail(Status::InvalidArgument("--connect: " +
                                        target.status().message()));
  }

  protocol::StreamIngestClientOptions options;
  options.total_reports = flags.GetUint64("reports", 0);
  options.batch_size = static_cast<uint32_t>(flags.GetUint64("batch", 512));
  options.deadline_ms = flags.GetInt("deadline_ms", 0);
  auto sent = protocol::StreamReportsOverSocket(
      spec, dataset, target.value().host, target.value().port, options);
  if (!sent.ok()) return Fail(sent.status());
  std::printf("streamed %llu reports; server ingested %llu; "
              "epsilon spent %.6g\n",
              static_cast<unsigned long long>(sent.value().reports_sent),
              static_cast<unsigned long long>(sent.value().reports_ingested),
              sent.value().epsilon_spent);
  return 0;
}

int Main(const FlagSet& flags) {
  const std::string spec_path = flags.GetString("spec", "");
  const std::string input_path = flags.GetString("input", "");
  if (flags.Has("listen")) {
    if (spec_path.empty()) {
      std::fprintf(stderr,
                   "usage: mdrr_collectd --spec=stream.spec --listen=PORT\n");
      return 1;
    }
    auto spec = release::ReadReleaseSpec(spec_path);
    if (!spec.ok()) return Fail(spec.status());
    if (!spec.value().streaming.enabled) {
      return Fail(Status::InvalidArgument(
          "socket ingest needs a spec with streaming enabled"));
    }
    return ServeSocket(flags, spec.value());
  }
  if (spec_path.empty() || input_path.empty()) {
    std::fprintf(stderr,
                 "usage: mdrr_collectd --spec=stream.spec --input=data.csv "
                 "[--flags]\nsee the header of tools/mdrr_collectd.cc\n");
    return 1;
  }
  if (flags.GetUint64("pause_at", 0) > 0 &&
      flags.GetString("snapshot_out", "").empty()) {
    return Fail(Status::InvalidArgument(
        "--pause_at requires --snapshot_out=FILE (the paused state "
        "would be lost)"));
  }

  auto spec = release::ReadReleaseSpec(spec_path);
  if (!spec.ok()) return Fail(spec.status());
  if (!spec.value().streaming.enabled) {
    return Fail(Status::InvalidArgument(
        "the spec has streaming disabled; batch specs run through "
        "`mdrr_cli run --spec=...`"));
  }
  auto dataset =
      mdrr::ReadCsvDataset(input_path, !flags.GetBool("no_header", false));
  if (!dataset.ok()) return Fail(dataset.status());

  if (flags.Has("connect")) {
    return ConnectSocket(flags, spec.value(), dataset.value());
  }

  release::StreamingSnapshot resume_snapshot;
  const release::StreamingSnapshot* resume = nullptr;
  if (flags.Has("resume")) {
    auto loaded =
        release::ReadStreamingSnapshot(flags.GetString("resume", ""));
    if (!loaded.ok()) return Fail(loaded.status());
    resume_snapshot = std::move(loaded).value();
    resume = &resume_snapshot;
  }

  auto run = Run(spec.value(), dataset.value(), flags,
                 flags.GetUint64("ingest_threads", 1), resume);
  if (!run.ok()) return Fail(run.status());
  const protocol::StreamingReplayResult& result = run.value();

  const std::string transcript = release::PrintStreamWindows(result.windows);
  std::fputs(transcript.c_str(), stdout);
  std::printf("ingested %llu reports (sequences %llu..%llu); "
              "epsilon spent %.6g\n",
              static_cast<unsigned long long>(result.reports_ingested),
              static_cast<unsigned long long>(result.first_sequence),
              static_cast<unsigned long long>(result.first_sequence +
                                              result.reports_ingested),
              result.epsilon_spent);

  if (flags.Has("windows_out")) {
    Status written =
        WriteFile(transcript, flags.GetString("windows_out", ""));
    if (!written.ok()) return Fail(written);
  }
  if (result.snapshot.has_value()) {
    const std::string out = flags.GetString("snapshot_out", "");
    Status written = release::WriteStreamingSnapshot(*result.snapshot, out);
    if (!written.ok()) return Fail(written);
    std::printf("paused before sequence %llu; snapshot written to %s\n",
                static_cast<unsigned long long>(result.snapshot->next_sequence),
                out.c_str());
  }

  // The determinism self-check: the same schedule through one producer
  // thread must give the same transcript, byte for byte.
  if (flags.GetBool("verify_replay", false)) {
    auto rerun = Run(spec.value(), dataset.value(), flags,
                     /*ingest_threads=*/1, resume);
    if (!rerun.ok()) return Fail(rerun.status());
    if (release::PrintStreamWindows(rerun.value().windows) != transcript) {
      return Fail(Status::Internal(
          "replay transcript diverged from the single-threaded run"));
    }
    std::printf("verify_replay: transcripts match\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagSet flags = mdrr::ParseFlagsOrExit(argc, argv, kFlags);
  const Status honoured = CheckModeFlags(flags);
  if (!honoured.ok()) return Fail(honoured);
  return Main(flags);
}
