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
//       Each mode has its own flag table (RunFlags); a flag outside it
//       is an error naming the flag, never ignored.
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
//   Every command checks its flags against its own table before any
//   work (common/flags.h): a flag it does not honour, a value that does
//   not parse as the flag's kind (a bool takes only the bare flag, true,
//   false, 1 or 0) or a number outside the flag's range exits 1, naming
//   the flag -- never a silent default or a wrapped value.

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
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
#include "mdrr/dataset/csv.h"
#include "mdrr/protocol/stream_ingest.h"
#include "mdrr/release/planner.h"
#include "mdrr/release/serialization.h"

namespace {

using mdrr::BoolFlag;
using mdrr::Dataset;
using mdrr::FlagDef;
using mdrr::FlagSet;
using mdrr::IntFlag;
using mdrr::RealFlag;
using mdrr::TextFlag;
using mdrr::UintFlag;
using mdrr::Status;
using mdrr::StatusOr;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

StatusOr<Dataset> LoadInput(const FlagSet& flags) {
  std::string path = flags.GetString("input", "");
  if (path.empty()) {
    return Status::InvalidArgument("--input=FILE is required");
  }
  return mdrr::ReadCsvDataset(path, !flags.GetBool("no_header", false));
}

int CmdSchema(const FlagSet& flags) {
  Status checked = flags.Check({TextFlag("input"), BoolFlag("no_header")});
  if (!checked.ok()) return Fail(checked);
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

// The ReleaseSpec equivalent of the `run` flag set.
StatusOr<mdrr::release::ReleaseSpec> SpecFromFlags(const FlagSet& flags) {
  namespace release = mdrr::release;
  release::ReleaseSpec spec;

  spec.dataset.source = release::DatasetSpec::Source::kCsvFile;
  spec.dataset.csv_path = flags.GetString("input", "");
  spec.dataset.csv_has_header = !flags.GetBool("no_header", false);

  spec.budget.keep_probability = flags.GetDouble("p", 0.7);
  // The assessment round's keep probability is its own knob with its own
  // default (matching RrClustersOptions), NOT tied to --p: pre-spec
  // command lines must keep producing the same release.
  spec.budget.dependence_keep_probability = flags.GetDouble("dep_p", 0.7);
  spec.budget.max_total_epsilon =
      flags.GetDouble("budget", spec.budget.max_total_epsilon);

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
  spec.mechanism.clustering.max_combinations = flags.GetDouble("tv", 50.0);
  spec.mechanism.clustering.min_dependence = flags.GetDouble("td", 0.1);
  MDRR_ASSIGN_OR_RETURN(
      spec.mechanism.dependence_source,
      release::DependenceSourceFromString(flags.GetString("dep", "rr")));

  spec.adjustment.enabled = flags.GetBool("adjust", false);
  spec.adjustment.max_iterations =
      static_cast<int>(flags.GetInt("adjust_iters", 100));

  spec.synthetic.enabled = flags.Has("synthetic_out");
  spec.evaluation.utility_report = flags.GetBool("report", false);

  // Any explicit --threads (including 1) selects the sharded policy, so
  // the flag's value never changes the output.
  if (flags.Has("threads")) {
    spec.execution.kind = release::PolicyKind::kSharded;
    spec.execution.num_threads = flags.GetUint64("threads", 0);
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
    spec.execution.shard_size = flags.GetUint64("shard", 0);
  }
  spec.execution.seed = flags.GetUint64("seed", 1);
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
  spec.frequency_oracle.epsilon = flags.GetDouble("oracle_epsilon", 0.0);

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
  options.num_ingest_threads = flags.GetUint64("ingest_threads", 1);
  options.collector.num_shards = flags.GetUint64("shards", 1);
  options.total_reports = flags.GetUint64("reports", 0);
  MDRR_ASSIGN_OR_RETURN(const Dataset dataset,
                        release::ResolveDataset(spec.dataset));
  MDRR_ASSIGN_OR_RETURN(
      const mdrr::protocol::StreamingReplayResult run,
      mdrr::protocol::RunStreamingReplay(spec, dataset, options));
  std::fputs(release::PrintStreamWindows(run.windows).c_str(), stdout);
  std::printf("streamed %llu reports; epsilon spent %.6g\n",
              static_cast<unsigned long long>(run.reports_ingested),
              run.epsilon_spent);
  return Status::OK();
}

// The flags `run` honours: the coordinator flags and --dump-spec in
// either mode, plus the streaming knobs with --spec (the spec file
// carries everything else) or SpecFromFlags' release flags without it.
std::vector<FlagDef> RunFlags(bool spec_mode) {
  std::vector<FlagDef> table = {
      UintFlag("listen", 0, 65535), UintFlag("workers", 1),
      IntFlag("worker_deadline_ms"), BoolFlag("dump-spec"),
      BoolFlag("dump_spec")};
  if (spec_mode) {
    table.insert(
        table.end(),
        {TextFlag("spec"),
         UintFlag("ingest_threads", 0, mdrr::release::kMaxIngestThreads),
         UintFlag("shards", 0, mdrr::release::kMaxStreamingShards),
         UintFlag("reports")});
    return table;
  }
  table.insert(
      table.end(),
      {TextFlag("input"), BoolFlag("no_header"), TextFlag("method"),
       TextFlag("attrs"), RealFlag("p"), RealFlag("dep_p"),
       RealFlag("budget"), RealFlag("tv"), RealFlag("td"), TextFlag("dep"),
       BoolFlag("adjust"), IntFlag("adjust_iters", INT_MIN, INT_MAX),
       TextFlag("randomized_out"), TextFlag("synthetic_out"),
       BoolFlag("report"), TextFlag("artifacts_out"), UintFlag("seed"),
       UintFlag("threads"), UintFlag("shard", 1), TextFlag("rng"),
       TextFlag("oracle"), RealFlag("oracle_epsilon")});
  return table;
}

// The spec `run` executes: the --spec file or the flag-mode release
// flags, then the coordinator flags.
StatusOr<mdrr::release::ReleaseSpec> RunSpecFromFlags(const FlagSet& flags) {
  namespace release = mdrr::release;
  const bool spec_mode = flags.Has("spec");
  MDRR_RETURN_IF_ERROR(flags.Check(RunFlags(spec_mode)));
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
    spec.execution.kind = release::PolicyKind::kDistributed;
    spec.execution.listen_port =
        static_cast<uint16_t>(flags.GetUint64("listen", 0));
  }
  spec.execution.num_workers =
      flags.GetUint64("workers", spec.execution.num_workers);
  spec.execution.worker_deadline_ms =
      flags.GetInt("worker_deadline_ms", spec.execution.worker_deadline_ms);
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

// Runs every spec file in --specs=DIR and prints one combined
// utility/risk table. Failures become error rows; the sweep continues.
int CmdSweep(const FlagSet& flags) {
  namespace fs = std::filesystem;
  namespace release = mdrr::release;
  Status checked = flags.Check({TextFlag("specs")});
  if (!checked.ok()) return Fail(checked);
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
      auto dataset = release::ResolveDataset(spec.dataset);
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

Status PrintRisk(const FlagSet& flags) {
  // The posterior is a dense r x r matrix: 4096^2 doubles are 128 MiB.
  MDRR_RETURN_IF_ERROR(flags.Check({UintFlag("r", 2, 4096),
                                    RealFlag("p", 0.0, 1.0),
                                    TextFlag("prior")}));
  const size_t r = flags.GetUint64("r", 4);
  const double p = flags.GetDouble("p", 0.7);

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
