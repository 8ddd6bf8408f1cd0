// mdrr_cli: command-line front end for the library.
//
//   mdrr_cli schema --input=data.csv [--no_header]
//       Infer and print the categorical schema of a CSV file.
//
//   mdrr_cli run ...
//       Run a full local-anonymization release through the declarative
//       release API (ReleaseSpec -> ReleasePlanner -> ReleaseArtifacts).
//       Two ways to say what to run:
//
//       flag mode:
//         --input=data.csv --method=independent|joint|clusters|pram
//         [--no_header] [--p=0.7] [--attrs=0,1,2 (joint)]
//         [--tv=50] [--td=0.1] [--dep=oracle|rr|securesum|pairwise]
//         [--dep_p=0.7 (assessment-round keep probability)]
//         [--budget=EPS] [--adjust] [--adjust_iters=100]
//         [--randomized_out=y.csv] [--synthetic_out=s.csv] [--report]
//         [--artifacts_out=a.txt] [--seed=1] [--threads=N] [--shard=S]
//         [--rng=mt19937|philox] [--oracle=de|sue|oue|olh]
//         [--oracle_epsilon=EPS]
//
//       --oracle selects the per-attribute frequency-oracle backend
//       (independent and geometric-ordinal methods only). The default
//       keeps the paper's direct-encoding RR path byte-for-byte; de at
//       an explicit --oracle_epsilon still releases microdata;
//       sue/oue/olh publish closed-form marginals with no microdata.
//       --oracle_epsilon spends that epsilon per attribute (0 inherits
//       the per-attribute budget of the method's RR design, so backend
//       swaps compare at equal epsilon).
//       spec mode:
//         --spec=release.spec     (a serialized ReleaseSpec; only the
//                                  coordinator, streaming and --dump-spec
//                                  flags below may accompany it -- any
//                                  other flag is an error, never ignored)
//
//       In either mode an unknown flag or a malformed number is an
//       error naming the flag, never a silent default.
//
//       Passing --threads selects the sharded execution policy: every
//       stage runs through the BatchPerturbationEngine contracts with N
//       workers (0 = one per core), bit-identical for any N at a fixed
//       --seed (--shard, >= 1, is part of the randomness contract).
//       Omitting it selects the sequential policy, which is bit-identical
//       to calling the stage functions directly with one Rng(seed); it
//       has no shards, so --shard without --threads or --listen is an
//       error. --rng=philox switches perturbation to the counter-based
//       engine (sharded or streaming runs only): a different
//       deterministic transcript that is additionally invariant under
//       --shard.
//
//       Coordinator mode for a multi-process release:
//         --listen=PORT [--workers=N] [--worker_deadline_ms=MS]
//       forces the distributed execution policy: the CLI binds PORT
//       (0 = ephemeral), waits for N tools/mdrr_worker processes to
//       connect, and runs the release with column perturbation farmed
//       out over TCP -- bit-identical to --threads at the same --seed /
//       --shard / --rng for any worker count. Any worker failure aborts
//       the release before output is written.
//
//       A spec with streaming.enabled runs through the windowed streaming
//       collector instead of a batch plan: the spec's dataset replays as
//       a fixed arrival schedule and stdout is the per-window transcript
//       ([--ingest_threads=T] [--shards=S] [--reports=N] tune throughput
//       and stream length, never the output). The full service -- pause,
//       snapshot, resume, verify -- is tools/mdrr_collectd.cc.
//
//       --dump-spec prints the ReleaseSpec equivalent of the given flags
//       (or normalizes --spec) and exits without running -- the
//       migration aid from flag soup to spec files.
//
//   mdrr_cli sweep --specs=DIR
//       Run every release spec file in DIR (sorted by name) and emit one
//       combined utility/risk table: per spec, the mechanism, the
//       epsilon actually spent, and the mean/max per-attribute total
//       variation distance of the released marginal estimates against
//       the original data. Streaming specs replay through the windowed
//       collector and report their ledger. A spec that fails to parse,
//       validate, or run becomes an error row (exit status 1) without
//       stopping the sweep.
//
//   mdrr_cli risk --r=4 [--p=0.7] [--prior=0.4,0.3,0.2,0.1]
//       Disclosure-risk analysis of a KeepUniform design: epsilon,
//       posterior best-guess confidences, expected attacker success.
//       --r must be in [2, 4096] (the posterior is a dense r x r
//       matrix) and --p in [0, 1].
//
//   Every command rejects, by name and with exit 1, any flag it does not
//   honour and any malformed number.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "mdrr/common/flags.h"
#include "mdrr/common/string_util.h"
#include "mdrr/core/clustering.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/privacy.h"
#include "mdrr/core/risk.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/csv.h"
#include "mdrr/protocol/stream_ingest.h"
#include "mdrr/release/planner.h"
#include "mdrr/release/serialization.h"

namespace {

using mdrr::Dataset;
using mdrr::FlagSet;
using mdrr::Status;
using mdrr::StatusOr;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Rejects, by name, any given flag outside `honoured`: a flag the
// command does not read is an error, never silently ignored.
template <typename List>
Status OnlyHonoured(const FlagSet& flags, const List& honoured,
                    const std::string& why) {
  for (const std::string& key : flags.Keys()) {
    if (std::find(std::begin(honoured), std::end(honoured), key) ==
        std::end(honoured)) {
      return Status::InvalidArgument("--" + key + " " + why);
    }
  }
  return Status::OK();
}

StatusOr<Dataset> LoadInput(const FlagSet& flags) {
  std::string path = flags.GetString("input", "");
  if (path.empty()) {
    return Status::InvalidArgument("--input=FILE is required");
  }
  return mdrr::ReadCsvDataset(path, !flags.GetBool("no_header", false));
}

constexpr const char* kSchemaFlags[] = {"input", "no_header"};

int CmdSchema(const FlagSet& flags) {
  Status honoured = OnlyHonoured(flags, kSchemaFlags, "is not a schema flag");
  if (!honoured.ok()) return Fail(honoured);
  auto dataset = LoadInput(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  std::printf("%zu records, %zu attributes\n", dataset.value().num_rows(),
              dataset.value().num_attributes());
  uint64_t domain = 1;
  for (size_t j = 0; j < dataset.value().num_attributes(); ++j) {
    const mdrr::Attribute& a = dataset.value().attribute(j);
    domain *= a.cardinality();
    std::printf("  %-24s %3zu categories: %s%s\n", a.name.c_str(),
                a.cardinality(),
                mdrr::Join(std::vector<std::string>(
                               a.categories.begin(),
                               a.categories.begin() +
                                   std::min<size_t>(6, a.cardinality())),
                           ", ")
                    .c_str(),
                a.cardinality() > 6 ? ", ..." : "");
  }
  std::printf("joint domain: %llu combinations\n",
              static_cast<unsigned long long>(domain));
  return 0;
}

void PrintMarginals(const Dataset& released,
                    const std::vector<std::vector<double>>& estimates) {
  for (size_t j = 0; j < released.num_attributes(); ++j) {
    const mdrr::Attribute& a = released.attribute(j);
    std::printf("  %s:\n", a.name.c_str());
    for (size_t v = 0; v < a.cardinality(); ++v) {
      std::printf("    %-24s %.4f\n", a.categories[v].c_str(),
                  estimates[j][v]);
    }
  }
}

// A numeric flag. FlagSet's getters fall back to the default on a
// malformed value; a command must never run with a number nobody asked
// for, so a value `parse` refuses is an error naming the flag.
template <typename T>
StatusOr<T> NumberFlag(const FlagSet& flags, const std::string& key,
                       T default_value,
                       StatusOr<T> (*parse)(std::string_view)) {
  if (!flags.Has(key)) return default_value;
  StatusOr<T> parsed = parse(flags.GetString(key, ""));
  if (!parsed.ok()) {
    return Status::InvalidArgument("--" + key + ": " +
                                   parsed.status().message());
  }
  return parsed;
}

StatusOr<double> DoubleFlag(const FlagSet& flags, const std::string& key,
                            double default_value) {
  return NumberFlag(flags, key, default_value, mdrr::ParseDouble);
}

StatusOr<int64_t> IntFlag(const FlagSet& flags, const std::string& key,
                          int64_t default_value) {
  return NumberFlag(flags, key, default_value, mdrr::ParseInt64);
}

// Seeds and counts take the full uint64 range, and a negative value is
// refused rather than wrapped to a huge one.
StatusOr<uint64_t> ParseUint64(std::string_view input) {
  const std::string_view digits = mdrr::StripWhitespace(input);
  if (!digits.empty() && digits.front() == '-') {
    return Status::InvalidArgument("must not be negative");
  }
  uint64_t value = 0;
  const char* end = digits.data() + digits.size();
  auto [ptr, ec] = std::from_chars(digits.data(), end, value);
  if (digits.empty() || ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("expected an integer in [0, " +
                                   std::to_string(UINT64_MAX) + "], got '" +
                                   std::string(input) + "'");
  }
  return value;
}

StatusOr<uint64_t> UnsignedFlag(const FlagSet& flags, const std::string& key,
                                uint64_t default_value) {
  return NumberFlag(flags, key, default_value, ParseUint64);
}

// The ReleaseSpec equivalent of the `run` flag set.
StatusOr<mdrr::release::ReleaseSpec> SpecFromFlags(const FlagSet& flags) {
  namespace release = mdrr::release;
  release::ReleaseSpec spec;

  spec.dataset.source = release::DatasetSpec::Source::kCsvFile;
  spec.dataset.csv_path = flags.GetString("input", "");
  spec.dataset.csv_has_header = !flags.GetBool("no_header", false);

  MDRR_ASSIGN_OR_RETURN(spec.budget.keep_probability,
                        DoubleFlag(flags, "p", 0.7));
  // The assessment round's keep probability is its own knob with its own
  // default (matching RrClustersOptions), NOT tied to --p: pre-spec
  // command lines must keep producing the same release.
  MDRR_ASSIGN_OR_RETURN(spec.budget.dependence_keep_probability,
                        DoubleFlag(flags, "dep_p", 0.7));
  MDRR_ASSIGN_OR_RETURN(
      spec.budget.max_total_epsilon,
      DoubleFlag(flags, "budget", spec.budget.max_total_epsilon));

  MDRR_ASSIGN_OR_RETURN(
      spec.mechanism.kind,
      release::MechanismKindFromString(flags.GetString("method", "clusters")));
  if (flags.Has("attrs")) {
    for (const std::string& part :
         mdrr::Split(flags.GetString("attrs", ""), ',')) {
      MDRR_ASSIGN_OR_RETURN(int64_t index, mdrr::ParseInt64(part));
      if (index < 0) {
        return Status::InvalidArgument("--attrs indices must be >= 0");
      }
      spec.mechanism.joint_attributes.push_back(static_cast<size_t>(index));
    }
  }
  MDRR_ASSIGN_OR_RETURN(spec.mechanism.clustering.max_combinations,
                        DoubleFlag(flags, "tv", 50.0));
  MDRR_ASSIGN_OR_RETURN(spec.mechanism.clustering.min_dependence,
                        DoubleFlag(flags, "td", 0.1));
  MDRR_ASSIGN_OR_RETURN(
      spec.mechanism.dependence_source,
      release::DependenceSourceFromString(flags.GetString("dep", "rr")));

  spec.adjustment.enabled = flags.GetBool("adjust", false);
  MDRR_ASSIGN_OR_RETURN(const int64_t adjust_iters,
                        IntFlag(flags, "adjust_iters", 100));
  spec.adjustment.max_iterations = static_cast<int>(adjust_iters);

  spec.synthetic.enabled = flags.Has("synthetic_out");
  spec.evaluation.utility_report = flags.GetBool("report", false);

  // Any explicit --threads (including 1) selects the sharded policy, so
  // the flag's value never changes the output.
  if (flags.Has("threads")) {
    MDRR_ASSIGN_OR_RETURN(const int64_t threads, IntFlag(flags, "threads", 0));
    if (threads < 0) {
      return Status::InvalidArgument("--threads must be >= 0");
    }
    spec.execution.kind = release::PolicyKind::kSharded;
    spec.execution.num_threads = static_cast<size_t>(threads);
  }
  // --shard is part of the randomness address of the sharded and
  // distributed policies; the sequential policy has no shards, so there
  // the flag is an error, never ignored.
  if (flags.Has("shard")) {
    if (!flags.Has("threads") && !flags.Has("listen")) {
      return Status::InvalidArgument(
          "--shard needs --threads or --listen (the sequential policy has "
          "no shards)");
    }
    MDRR_ASSIGN_OR_RETURN(const int64_t shard, IntFlag(flags, "shard", 0));
    if (shard < 1) return Status::InvalidArgument("--shard must be >= 1");
    spec.execution.shard_size = static_cast<size_t>(shard);
  }
  MDRR_ASSIGN_OR_RETURN(spec.execution.seed, UnsignedFlag(flags, "seed", 1));
  MDRR_ASSIGN_OR_RETURN(
      spec.execution.rng,
      release::RngKindFromString(flags.GetString("rng", "mt19937")));

  // The frequency-oracle backend. `--oracle=de` alone is the default
  // section (direct encoding at the design's own budget), so pre-oracle
  // command lines keep their exact transcripts.
  if (flags.Has("oracle")) {
    MDRR_ASSIGN_OR_RETURN(
        spec.frequency_oracle.backend,
        mdrr::OracleBackendFromString(flags.GetString("oracle", "de")));
  }
  MDRR_ASSIGN_OR_RETURN(spec.frequency_oracle.epsilon,
                        DoubleFlag(flags, "oracle_epsilon", 0.0));

  spec.output.randomized_csv = flags.GetString("randomized_out", "");
  spec.output.synthetic_csv = flags.GetString("synthetic_out", "");
  spec.output.artifacts_path = flags.GetString("artifacts_out", "");
  return spec;
}

// A streaming spec replays its dataset through the windowed collector
// (protocol::RunStreamingReplay) instead of a batch ReleasePlan. Stdout
// is the window transcript -- byte-identical for any --ingest_threads /
// --shards at a fixed spec -- plus the ledger line.
Status RunStreamingSpec(const FlagSet& flags,
                        const mdrr::release::ReleaseSpec& spec) {
  namespace release = mdrr::release;
  mdrr::protocol::StreamingReplayOptions options;
  MDRR_ASSIGN_OR_RETURN(const uint64_t ingest_threads,
                        UnsignedFlag(flags, "ingest_threads", 1));
  MDRR_ASSIGN_OR_RETURN(const uint64_t shards,
                        UnsignedFlag(flags, "shards", 1));
  MDRR_ASSIGN_OR_RETURN(options.total_reports,
                        UnsignedFlag(flags, "reports", 0));
  options.num_ingest_threads = static_cast<size_t>(ingest_threads);
  options.collector.num_shards = static_cast<size_t>(shards);

  MDRR_ASSIGN_OR_RETURN(const Dataset dataset, [&]() -> StatusOr<Dataset> {
    switch (spec.dataset.source) {
      case release::DatasetSpec::Source::kCsvFile:
        return mdrr::ReadCsvDataset(spec.dataset.csv_path,
                                    spec.dataset.csv_has_header);
      case release::DatasetSpec::Source::kSyntheticAdult:
        return mdrr::SynthesizeAdult(spec.dataset.synthetic_records,
                                     spec.dataset.synthetic_seed);
      case release::DatasetSpec::Source::kProvided:
        return Status::InvalidArgument(
            "streaming runs need an owned dataset source (csv or "
            "synthetic-adult)");
    }
    return Status::Internal("unknown dataset source");
  }());

  MDRR_ASSIGN_OR_RETURN(
      const mdrr::protocol::StreamingReplayResult run,
      mdrr::protocol::RunStreamingReplay(spec, dataset, options));
  std::fputs(release::PrintStreamWindows(run.windows).c_str(), stdout);
  std::printf("streamed %llu reports; epsilon spent %.6g\n",
              static_cast<unsigned long long>(run.reports_ingested),
              run.epsilon_spent);
  return Status::OK();
}

// The flags `run --spec` honours; the spec file carries everything else.
constexpr const char* kSpecModeFlags[] = {
    "spec",      "listen",    "workers",        "worker_deadline_ms",
    "dump-spec", "dump_spec", "ingest_threads", "shards",
    "reports"};

// The flags flag mode honours: SpecFromFlags' release flags plus the
// coordinator and --dump-spec flags.
constexpr const char* kFlagModeFlags[] = {
    "input",              "no_header",     "method",
    "attrs",              "p",             "dep_p",
    "budget",             "tv",            "td",
    "dep",                "adjust",        "adjust_iters",
    "randomized_out",     "synthetic_out", "report",
    "artifacts_out",      "seed",          "threads",
    "shard",              "rng",           "oracle",
    "oracle_epsilon",     "listen",        "workers",
    "worker_deadline_ms", "dump-spec",     "dump_spec"};

// The spec `run` executes: the --spec file or the flag-mode release
// flags, then the coordinator flags. Any flag the mode does not honour
// and any malformed number is an error naming the flag, never ignored.
StatusOr<mdrr::release::ReleaseSpec> RunSpecFromFlags(const FlagSet& flags) {
  namespace release = mdrr::release;
  const bool spec_mode = flags.Has("spec");
  MDRR_RETURN_IF_ERROR(
      spec_mode ? OnlyHonoured(flags, kSpecModeFlags,
                               "is not honoured with --spec; set it in the "
                               "spec file instead")
                : OnlyHonoured(flags, kFlagModeFlags, "is not a run flag"));
  release::ReleaseSpec spec;
  if (spec_mode) {
    MDRR_ASSIGN_OR_RETURN(
        spec, release::ReadReleaseSpec(flags.GetString("spec", "")));
  } else {
    MDRR_ASSIGN_OR_RETURN(spec, SpecFromFlags(flags));
  }

  // Coordinator mode: --listen turns the run into a distributed release
  // (the process listens, waits for --workers worker processes, and
  // farms column perturbation out to them). The transcript stays
  // bit-identical to the sharded policy at the same (seed, shard,
  // rng) for any worker count.
  if (flags.Has("listen")) {
    MDRR_ASSIGN_OR_RETURN(const int64_t port, IntFlag(flags, "listen", 0));
    if (port < 0 || port > 65535) {
      return Status::InvalidArgument("--listen must be 0..65535");
    }
    spec.execution.kind = release::PolicyKind::kDistributed;
    spec.execution.listen_port = static_cast<uint16_t>(port);
  }
  if (flags.Has("workers")) {
    MDRR_ASSIGN_OR_RETURN(const int64_t workers, IntFlag(flags, "workers", 0));
    if (workers < 1) {
      return Status::InvalidArgument("--workers must be >= 1");
    }
    spec.execution.num_workers = static_cast<size_t>(workers);
  }
  MDRR_ASSIGN_OR_RETURN(
      spec.execution.worker_deadline_ms,
      IntFlag(flags, "worker_deadline_ms", spec.execution.worker_deadline_ms));
  return spec;
}

int CmdRun(const FlagSet& flags) {
  namespace release = mdrr::release;

  auto built = RunSpecFromFlags(flags);
  if (!built.ok()) return Fail(built.status());
  const release::ReleaseSpec spec = std::move(built).value();

  if (flags.GetBool("dump-spec", flags.GetBool("dump_spec", false))) {
    std::fputs(release::PrintReleaseSpec(spec).c_str(), stdout);
    return 0;
  }

  if (spec.streaming.enabled) {
    Status streamed = RunStreamingSpec(flags, spec);
    return streamed.ok() ? 0 : Fail(streamed);
  }

  auto plan = release::ReleasePlanner::Plan(spec);
  if (!plan.ok()) return Fail(plan.status());
  auto artifacts = plan.value().Run();
  if (!artifacts.ok()) return Fail(artifacts.status());
  const release::ReleaseArtifacts& a = artifacts.value();

  if (!a.clustering.empty()) {
    std::printf("clusters: %s\n",
                mdrr::ClusteringToString(a.randomized, a.clustering).c_str());
  }
  std::printf("estimated marginal distributions:\n");
  // Frequency-only oracle backends (sue|oue|olh) release no microdata,
  // so the schema for labeling comes from the input dataset instead.
  PrintMarginals(a.randomized.num_attributes() > 0 ? a.randomized
                                                   : plan.value().dataset(),
                 a.marginal_estimates);

  mdrr::PrivacyAccountant accountant;
  if (a.dependence_epsilon > 0) {
    accountant.Spend("dependence assessment", a.dependence_epsilon);
  }
  accountant.Spend(std::string(release::ToString(spec.mechanism.kind)) +
                       " release",
                   a.release_epsilon);
  std::printf("privacy ledger:\n%s", accountant.Report().c_str());

  if (a.adjustment.has_value()) {
    std::printf("adjustment: %d iterations, %s (max marginal gap %.3g)\n",
                a.adjustment->iterations,
                a.adjustment->converged ? "converged" : "NOT converged",
                a.adjustment->max_marginal_gap);
  }
  if (a.utility.has_value()) {
    std::printf("utility report (synthetic vs original):\n%s",
                a.utility->ToString(plan.value().dataset()).c_str());
  }
  // Timings go to stderr: stdout stays byte-identical across runs and
  // thread counts at a fixed seed.
  for (const release::StageTiming& timing : a.timings) {
    std::fprintf(stderr, "stage %-10s %8.3fs\n", timing.stage.c_str(),
                 timing.seconds);
  }
  if (!spec.output.randomized_csv.empty()) {
    std::printf("wrote randomized data to %s\n",
                spec.output.randomized_csv.c_str());
  }
  if (!spec.output.synthetic_csv.empty()) {
    std::printf("wrote synthetic data to %s\n",
                spec.output.synthetic_csv.c_str());
  }
  if (!spec.output.artifacts_path.empty()) {
    std::printf("wrote artifacts summary to %s\n",
                spec.output.artifacts_path.c_str());
  }
  return 0;
}

// Mean and max per-attribute total variation distance between released
// marginal estimates and the empirical marginals of `original`.
void MarginalTvStats(const Dataset& original,
                     const std::vector<std::vector<double>>& estimates,
                     double* mean_tv, double* max_tv) {
  *mean_tv = 0.0;
  *max_tv = 0.0;
  const size_t m = std::min(original.num_attributes(), estimates.size());
  for (size_t j = 0; j < m; ++j) {
    const std::vector<double> truth = mdrr::EmpiricalDistribution(
        original.column(j), original.attribute(j).cardinality());
    double tv = 0.0;
    for (size_t v = 0; v < truth.size() && v < estimates[j].size(); ++v) {
      tv += std::abs(estimates[j][v] - truth[v]);
    }
    tv *= 0.5;
    *mean_tv += tv;
    *max_tv = std::max(*max_tv, tv);
  }
  if (m > 0) *mean_tv /= static_cast<double>(m);
}

constexpr const char* kSweepFlags[] = {"specs"};

// Runs every spec file in --specs=DIR and prints one combined
// utility/risk table. Failures become error rows; the sweep continues.
int CmdSweep(const FlagSet& flags) {
  namespace fs = std::filesystem;
  namespace release = mdrr::release;
  Status honoured = OnlyHonoured(flags, kSweepFlags, "is not a sweep flag");
  if (!honoured.ok()) return Fail(honoured);
  const std::string dir = flags.GetString("specs", "");
  if (dir.empty()) {
    return Fail(Status::InvalidArgument("--specs=DIR is required"));
  }
  std::error_code ec;
  std::vector<fs::path> files;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) files.push_back(it->path());
  }
  if (ec) {
    return Fail(Status::InvalidArgument("cannot read --specs directory '" +
                                        dir + "': " + ec.message()));
  }
  if (files.empty()) {
    return Fail(Status::InvalidArgument("no spec files in '" + dir + "'"));
  }
  std::sort(files.begin(), files.end());

  std::printf("%-28s %-24s %10s %10s %10s\n", "spec", "mechanism", "epsilon",
              "mean_tv", "max_tv");
  int failures = 0;
  for (const fs::path& path : files) {
    const std::string name = path.filename().string();
    auto report_error = [&](const Status& status) {
      std::printf("%-28s error: %s\n", name.c_str(),
                  status.ToString().c_str());
      ++failures;
    };

    auto parsed = release::ReadReleaseSpec(path.string());
    if (!parsed.ok()) {
      report_error(parsed.status());
      continue;
    }
    release::ReleaseSpec spec = std::move(parsed).value();

    if (spec.streaming.enabled) {
      auto dataset = [&]() -> StatusOr<Dataset> {
        switch (spec.dataset.source) {
          case release::DatasetSpec::Source::kCsvFile:
            return mdrr::ReadCsvDataset(spec.dataset.csv_path,
                                        spec.dataset.csv_has_header);
          case release::DatasetSpec::Source::kSyntheticAdult:
            return mdrr::SynthesizeAdult(spec.dataset.synthetic_records,
                                         spec.dataset.synthetic_seed);
          case release::DatasetSpec::Source::kProvided:
            return Status::InvalidArgument(
                "streaming sweep entries need an owned dataset source");
        }
        return Status::Internal("unknown dataset source");
      }();
      if (!dataset.ok()) {
        report_error(dataset.status());
        continue;
      }
      auto run = mdrr::protocol::RunStreamingReplay(
          spec, dataset.value(), mdrr::protocol::StreamingReplayOptions{});
      if (!run.ok()) {
        report_error(run.status());
        continue;
      }
      // Coarse utility: each released window estimates its own slice of
      // the stream, compared here against the full-stream marginals.
      double mean_tv = 0.0;
      double max_tv = 0.0;
      size_t released = 0;
      for (const release::StreamWindow& window : run.value().windows) {
        if (!window.released) continue;
        double window_mean = 0.0;
        double window_max = 0.0;
        MarginalTvStats(dataset.value(),
                        window.artifacts.marginal_estimates, &window_mean,
                        &window_max);
        mean_tv += window_mean;
        max_tv = std::max(max_tv, window_max);
        ++released;
      }
      if (released > 0) mean_tv /= static_cast<double>(released);
      std::printf("%-28s %-24s %10.4f %10.4f %10.4f\n", name.c_str(),
                  "streaming", run.value().epsilon_spent, mean_tv, max_tv);
      continue;
    }

    auto plan = release::ReleasePlanner::Plan(spec);
    if (!plan.ok()) {
      report_error(plan.status());
      continue;
    }
    auto artifacts = plan.value().Run();
    if (!artifacts.ok()) {
      report_error(artifacts.status());
      continue;
    }
    const release::ReleaseArtifacts& a = artifacts.value();
    // Joint releases publish a sub-schema; project the truth onto the
    // attributes the mechanism actually released.
    const Dataset original =
        a.joint.has_value()
            ? plan.value().dataset().Project(a.joint->attributes)
            : plan.value().dataset();
    double mean_tv = 0.0;
    double max_tv = 0.0;
    MarginalTvStats(original, a.marginal_estimates, &mean_tv, &max_tv);
    std::string mechanism = release::ToString(spec.mechanism.kind);
    if (!spec.frequency_oracle.is_default()) {
      mechanism += std::string("+") +
                   mdrr::ToString(spec.frequency_oracle.backend);
    }
    std::printf("%-28s %-24s %10.4f %10.4f %10.4f\n", name.c_str(),
                mechanism.c_str(),
                a.release_epsilon + a.dependence_epsilon, mean_tv, max_tv);
  }
  return failures == 0 ? 0 : 1;
}

constexpr const char* kRiskFlags[] = {"r", "p", "prior"};
// The posterior is a dense r x r matrix: 4096^2 doubles are 128 MiB.
constexpr int64_t kMaxRiskDomain = 4096;

Status PrintRisk(const FlagSet& flags) {
  MDRR_RETURN_IF_ERROR(OnlyHonoured(flags, kRiskFlags, "is not a risk flag"));
  MDRR_ASSIGN_OR_RETURN(const int64_t r_flag, IntFlag(flags, "r", 4));
  if (r_flag < 2) return Status::InvalidArgument("--r must be >= 2");
  if (r_flag > kMaxRiskDomain) {
    return Status::InvalidArgument(
        "--r must be <= " + std::to_string(kMaxRiskDomain) +
        " (the posterior is a dense r x r matrix)");
  }
  const size_t r = static_cast<size_t>(r_flag);
  MDRR_ASSIGN_OR_RETURN(const double p, DoubleFlag(flags, "p", 0.7));
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("--p must be in [0, 1]");
  }

  std::vector<double> prior(r, 1.0 / static_cast<double>(r));
  std::string prior_flag = flags.GetString("prior", "");
  if (!prior_flag.empty()) {
    std::vector<std::string> parts = mdrr::Split(prior_flag, ',');
    if (parts.size() != r) {
      return Status::InvalidArgument(
          "--prior must list exactly r probabilities");
    }
    for (size_t v = 0; v < r; ++v) {
      StatusOr<double> parsed = mdrr::ParseDouble(parts[v]);
      if (!parsed.ok()) {
        return Status::InvalidArgument("--prior: " +
                                       parsed.status().message());
      }
      prior[v] = parsed.value();
    }
  }

  mdrr::RrMatrix matrix = mdrr::RrMatrix::KeepUniform(r, p);
  MDRR_ASSIGN_OR_RETURN(const std::vector<double> confidence,
                        mdrr::BestGuessConfidence(matrix, prior));
  MDRR_ASSIGN_OR_RETURN(const double expected,
                        mdrr::ExpectedDisclosureRisk(matrix, prior));

  std::printf("design: KeepUniform(r=%zu, p=%.2f)\n", r, p);
  std::printf("  epsilon (Expression 4):        %.4f\n", matrix.Epsilon());
  std::printf("  condition number Pmax/Pmin:    %.4f\n",
              matrix.ConditionNumber());
  std::printf("  prior baseline attacker success: %.4f\n",
              mdrr::PriorBaselineRisk(prior));
  std::printf("  expected attacker success:       %.4f\n", expected);
  std::printf("  best-guess confidence per observed value:\n");
  for (size_t v = 0; v < r; ++v) {
    std::printf("    Y=%zu: %.4f\n", v, confidence[v]);
  }
  return Status::OK();
}

int CmdRisk(const FlagSet& flags) {
  const Status status = PrintRisk(flags);
  return status.ok() ? 0 : Fail(status);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: mdrr_cli <schema|run|sweep|risk> [--flags]\n"
                 "see the header of tools/mdrr_cli.cc for details\n");
    return 1;
  }
  std::string command = argv[1];
  FlagSet flags;
  flags.Parse(argc, argv);
  if (command == "schema") return CmdSchema(flags);
  if (command == "run") return CmdRun(flags);
  if (command == "sweep") return CmdSweep(flags);
  if (command == "risk") return CmdRisk(flags);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 1;
}
