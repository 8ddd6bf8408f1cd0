// mdrr_collectd: the always-on streaming collector service.
//
//   mdrr_collectd --spec=stream.spec --input=reports.csv [--no_header]
//       [--reports=N]          total reports to stream (0 = one per row;
//                              beyond num_rows the replay wraps around)
//       [--ingest_threads=T]   producer threads (never changes output)
//       [--shards=S]           ingest shards / drain threads
//       [--ring_buckets=B]     live buckets in the count ring
//       [--pause_at=N]         stop before sequence N and snapshot
//       [--snapshot_out=FILE]  where the pause snapshot goes
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
// including, before any work, an unknown flag or a numeric flag that is
// not a non-negative integer, naming the flag.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mdrr/common/flags.h"
#include "mdrr/common/string_util.h"
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

// The flags mdrr_collectd honours. Numeric ones must parse as integers
// in [0, max]: FlagSet::GetInt would run "abc" at the default, and the
// casts below would wrap "-5" to 2^64 - 5.
constexpr const char* kTextFlags[] = {
    "spec",   "input",       "no_header",     "snapshot_out",
    "resume", "windows_out", "verify_replay", "connect"};
struct NumberFlag {
  const char* key;
  int64_t max;
};
constexpr NumberFlag kNumberFlags[] = {
    {"reports", std::numeric_limits<int64_t>::max()},
    {"ingest_threads", std::numeric_limits<int64_t>::max()},
    {"shards", std::numeric_limits<int64_t>::max()},
    {"ring_buckets", std::numeric_limits<int64_t>::max()},
    {"pause_at", std::numeric_limits<int64_t>::max()},
    {"listen", std::numeric_limits<int64_t>::max()},
    {"deadline_ms", std::numeric_limits<int64_t>::max()},
    {"batch", std::numeric_limits<uint32_t>::max()},
};

Status ValidateFlags(const FlagSet& flags) {
  for (const std::string& key : flags.Keys()) {
    const auto number =
        std::find_if(std::begin(kNumberFlags), std::end(kNumberFlags),
                     [&key](const NumberFlag& flag) { return key == flag.key; });
    if (number != std::end(kNumberFlags)) {
      StatusOr<int64_t> parsed = mdrr::ParseInt64(flags.GetString(key, ""));
      if (!parsed.ok()) {
        return Status::InvalidArgument("--" + key + ": " +
                                       parsed.status().message());
      }
      if (parsed.value() < 0) {
        return Status::InvalidArgument("--" + key + " must not be negative");
      }
      if (parsed.value() > number->max) {
        return Status::InvalidArgument("--" + key + " must be at most " +
                                       std::to_string(number->max));
      }
    } else if (std::find(std::begin(kTextFlags), std::end(kTextFlags), key) ==
               std::end(kTextFlags)) {
      return Status::InvalidArgument("--" + key +
                                     " is not an mdrr_collectd flag");
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
  options.collector.num_shards =
      static_cast<size_t>(flags.GetInt("shards", 1));
  options.collector.ring_buckets =
      static_cast<size_t>(flags.GetInt("ring_buckets", 4));
  options.total_reports = static_cast<uint64_t>(flags.GetInt("reports", 0));
  options.pause_at = static_cast<uint64_t>(flags.GetInt("pause_at", 0));
  options.resume = resume;
  return protocol::RunStreamingReplay(spec, dataset, options);
}

// Socket server: accept one ingest client, run the collector on its
// reports, print the transcript.
int ServeSocket(const FlagSet& flags, const release::ReleaseSpec& spec) {
  const int64_t port = flags.GetInt("listen", 0);
  if (port < 0 || port > 65535) {
    return Fail(Status::InvalidArgument("--listen must be 0..65535"));
  }
  mdrr::net::TcpListener listener;
  Status bound = listener.Listen(static_cast<uint16_t>(port));
  if (!bound.ok()) return Fail(bound);
  std::fprintf(stderr, "listening on port %u\n", listener.port());

  protocol::StreamIngestServeOptions options;
  options.collector.num_shards =
      static_cast<size_t>(flags.GetInt("shards", 1));
  options.collector.ring_buckets =
      static_cast<size_t>(flags.GetInt("ring_buckets", 4));
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
  const std::string target = flags.GetString("connect", "");
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    return Fail(Status::InvalidArgument("--connect takes HOST:PORT"));
  }
  auto port = mdrr::ParseInt64(target.substr(colon + 1));
  if (!port.ok() || port.value() < 1 || port.value() > 65535) {
    return Fail(Status::InvalidArgument("--connect port must be 1..65535"));
  }

  protocol::StreamIngestClientOptions options;
  options.total_reports = static_cast<uint64_t>(flags.GetInt("reports", 0));
  options.batch_size = static_cast<uint32_t>(flags.GetInt("batch", 512));
  options.deadline_ms = flags.GetInt("deadline_ms", 0);
  auto sent = protocol::StreamReportsOverSocket(
      spec, dataset, target.substr(0, colon),
      static_cast<uint16_t>(port.value()), options);
  if (!sent.ok()) return Fail(sent.status());
  std::printf("streamed %llu reports; server ingested %llu; "
              "epsilon spent %.6g\n",
              static_cast<unsigned long long>(sent.value().reports_sent),
              static_cast<unsigned long long>(sent.value().reports_ingested),
              sent.value().epsilon_spent);
  return 0;
}

int Main(const FlagSet& flags) {
  Status valid = ValidateFlags(flags);
  if (!valid.ok()) return Fail(valid);
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

  const size_t ingest_threads =
      static_cast<size_t>(flags.GetInt("ingest_threads", 1));
  auto run = Run(spec.value(), dataset.value(), flags, ingest_threads,
                 resume);
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
    if (out.empty()) {
      return Fail(Status::InvalidArgument(
          "--pause_at requires --snapshot_out=FILE (the paused state "
          "would be lost)"));
    }
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
  FlagSet flags;
  flags.Parse(argc, argv);
  return Main(flags);
}
