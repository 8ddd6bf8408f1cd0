// mdrr_perfbench: one run of one workload (see workloads.h).
//
//   mdrr_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  [--git_sha=SHA] [--source_digest=HEX]
//   mdrr_perfbench --selftest
//
// Prints a host block, then the result line -- exactly the keys
// correct/attempted/failed/metrics -- as the last line of stdout. With
// --trace=0 the metrics are the end-to-end table, with --trace=1 the
// per-layer table. Progress and failure reasons go to stderr. Exits 0
// iff every operation passed its output check.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "mdrr/common/flags.h"
#include "mdrr/rng/rng.h"
#include "workloads.h"

#ifndef MDRR_PERFBENCH_BUILD_TYPE
#define MDRR_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace mdrr::perfbench {
namespace {

// The end-to-end table, printed by every untraced run of every workload.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"records_per_s", "1/s"},
    {"records_per_s_1t", "1/s"},
    {"peak_rss_mb", "MB"},
    {"success_rate", "ratio"},
    {"marginal_tv", "tv"},
};

// The per-layer table, printed by every traced run of every workload; a
// layer that is not on a workload's path reads 0 there (README.md maps
// each metric to its workload).
const std::vector<MetricSpec> kPerLayer = {
    {"dataset.synthesize_s", "s"},
    {"release.plan_s", "s"},
    {"release.wall_s", "s"},
    {"release.coverage", "ratio"},
    {"release.unaccounted_s", "s"},
    {"core.assess_s", "s"},
    {"core.cluster_s", "s"},
    {"core.clusters", "count"},
    {"core.max_cluster_domain", "count"},
    {"dataset.assemble_s", "s"},
    {"core.perturb_s", "s"},
    {"core.estimate_s", "s"},
    {"linalg.lu_factorizations", "count"},
    {"dataset.decode_s", "s"},
    {"core.adjust_s", "s"},
    {"core.adjust_iterations", "count"},
    {"core.adjust_s_per_iter", "s"},
    {"core.adjust_gbps_computed", "GB/s"},
    {"core.adjust_bw_fraction", "ratio"},
    {"core.synthesize_s", "s"},
    {"common.parallel_call_us", "us"},
    {"host.stream_gbps", "GB/s"},
    {"rng.stream_seed_ns", "ns"},
    {"core.randomize_ns", "ns"},
    {"release.submit_ns", "ns"},
    {"release.drain_ns", "ns"},
    {"release.backpressure_ratio", "ratio"},
    {"release.window_poll_ms_p50", "ms"},
    {"release.window_poll_ms_p90", "ms"},
    {"release.windows_released", "count"},
    {"release.windows_suppressed", "count"},
    {"net.accept_s", "s"},
    {"net.perturb_column_s", "s"},
    {"net.overhead_s", "s"},
    {"net.encode_s", "s"},
    {"net.parse_s", "s"},
    {"net.commit_s", "s"},
    {"net.wire_bytes_per_record", "B"},
};

// STREAM's rule is arrays of at least 4x the last-level cache; the cap
// keeps the probe's footprint bounded on hosts reporting a socket-wide
// LLC of hundreds of MiB (the host block states both sizes).
constexpr size_t kMaxStreamArrayBytes = size_t{512} << 20;

// Engine seeds derived per run; each workload rotates over a prefix.
constexpr size_t kEngineSeeds = 16;

using WorkloadFn = WorkloadResult (*)(const RunConfig&);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "batch-clusters-adjust") return RunBatchClustersAdjust;
  if (name == "stream-collect") return RunStreamCollect;
  if (name == "distributed-independent") return RunDistributedIndependent;
  return nullptr;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// Runs one workload and fills in the metrics every workload shares.
WorkloadResult RunWorkload(WorkloadFn workload, const RunConfig& config,
                           std::string* host_extra) {
  WorkloadResult result = workload(config);
  if (!config.trace) {
    result.Set("peak_rss_mb", PeakRssMb());
    result.Set("success_rate",
               result.attempted > 0
                   ? 1.0 - static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted)
                   : 0.0);
    return result;
  }
  const size_t llc = LastLevelCacheBytes();
  const size_t array_bytes =
      std::min(kMaxStreamArrayBytes,
               std::max<size_t>(4 * llc, size_t{64} << 20));
  const double stream_gbps = StreamCopyGbps(array_bytes, config.threads, 5);
  result.Set("host.stream_gbps", stream_gbps);
  result.Set("common.parallel_call_us",
             ParallelCallMicros(config.threads, 2000));
  auto adjust = result.values.find("core.adjust_gbps_computed");
  if (adjust != result.values.end() && stream_gbps > 0.0) {
    result.Set("core.adjust_bw_fraction", adjust->second / stream_gbps);
  }
  *host_extra = ", \"llc_bytes\": " + std::to_string(llc) +
                ", \"stream_array_bytes\": " + std::to_string(array_bytes) +
                ", \"stream_gbps\": " + std::to_string(stream_gbps);
  return result;
}

// --- Self-test: the checks and the coverage arithmetic on small inputs.

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (condition) return;
  ++failures;
  std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
}

int SelfTest() {
  // Coverage arithmetic.
  Attribution a = Explain(0.25 + 0.5 + 0.125, 1.0);
  Expect(a.coverage == 0.875 && a.unaccounted_seconds == 0.125,
         "Explain holds the layer sum against the wall");
  a = Explain(1.25, 1.0);
  Expect(a.coverage == 1.25 && a.unaccounted_seconds == -0.25,
         "Explain reports over-explained walls as negative unaccounted");
  Expect(Explain(1.0, 0.0).coverage == 0.0, "zero wall has no coverage");

  // Statistics.
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  Expect(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9) == 9.0,
         "nearest-rank p90");
  Expect(Percentile({5.0}, 0.5) == 5.0, "single-sample percentile");

  // Output checks: the digest sees one flipped code, the TV check sees
  // a malformed estimate, and a failed operation fails the run.
  Dataset data({Attribute{"a", AttributeType::kNominal, {"x", "y", "z"}}},
               {{0, 1, 2, 1}});
  Fnv1a before;
  before.AddDataset(data);
  data.MutableColumn(0)[3] = 2;
  Fnv1a after;
  after.AddDataset(data);
  Expect(before.value() != after.value(), "digest changes with one code");
  const std::vector<std::vector<double>> truth = TrueMarginals(data, 0, 4);
  Expect(truth[0] == std::vector<double>({0.25, 0.25, 0.5}),
         "true marginals");
  Expect(MeanTotalVariation(truth, truth) == 0.0, "TV of equal marginals");
  Expect(MeanTotalVariation({{0.5, 0.5, 0.0}}, truth) == 0.5,
         "TV distance");
  Expect(MeanTotalVariation({{1.0}}, truth) < 0.0, "TV shape mismatch");
  WorkloadResult failed;
  failed.Record("");
  failed.Record("mismatch");
  Expect(ResultJson(failed, {}).find("\"correct\": false") == 1,
         "a failed operation makes the run incorrect");
  WorkloadResult nonfinite;
  nonfinite.Record("");
  nonfinite.Set("setup_s", std::nan(""));
  Expect(ResultJson(nonfinite, kEndToEnd).find("\"correct\": false") == 1,
         "a non-finite metric makes the run incorrect");

  // Closed loop: each side runs at least its minimum.
  std::vector<std::vector<double>> loop =
      ClosedLoop(0.0, 0.5, 2, 5, [](bool) { return 0.001; });
  Expect(loop[0].size() == 2 && loop[1].size() == 5, "closed-loop minimum");
  SeedReferences references(2);
  Expect(references.Check(0, 42, 0.5).empty() &&
             !references.Check(0, 43, 0.5).empty() &&
             references.MeanTv() < 0.0 &&
             references.Check(1, 7, 0.25).empty() &&
             references.MeanTv() == 0.375,
         "per-seed references catch a differing release");

  // Every workload, both trace modes, on small inputs: the digest,
  // transcript and sharded-reference checks must all pass.
  for (const char* name : {"batch-clusters-adjust", "stream-collect",
                           "distributed-independent"}) {
    for (bool trace : {false, true}) {
      RunConfig config;
      config.data_seed = 7;
      config.engine_seeds = {11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                             23, 24, 25, 26};
      config.seconds = 0.2;
      config.trace = trace;
      config.threads = 2;
      config.setups = 2;
      config.shrink = 40;
      std::string host_extra;
      WorkloadResult result =
          RunWorkload(FindWorkload(name), config, &host_extra);
      for (const std::string& failure : result.failures) {
        std::fprintf(stderr, "  %s: %s\n", name, failure.c_str());
      }
      const std::string tag =
          std::string(name) + (trace ? " (traced)" : " (untraced)");
      Expect(result.failed == 0 && result.attempted >= 3,
             tag + " passes its output checks");
      for (const auto& [metric, value] : result.values) {
        const std::vector<MetricSpec>& table = trace ? kPerLayer : kEndToEnd;
        Expect(std::any_of(table.begin(), table.end(),
                           [&](const MetricSpec& spec) {
                             return metric == spec.name;
                           }),
               tag + " reports unlisted metric " + metric);
        Expect(std::isfinite(value), tag + " " + metric + " is finite");
      }
      if (trace && std::string(name) != "stream-collect") {
        const double coverage = result.values["release.coverage"];
        std::fprintf(stderr, "  %s coverage %.3f\n", tag.c_str(), coverage);
        Expect(coverage > 0.5 && coverage < 1.5,
               tag + " layers roughly explain the release wall");
      }
    }
  }
  std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  FlagSet flags;
  flags.Parse(argc, argv);
  if (flags.GetBool("selftest", false)) return SelfTest();

  const std::string name = flags.GetString("workload", "");
  WorkloadFn workload = FindWorkload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  RunConfig config;
  // --seed derives the data seed and the engine seeds.
  uint64_t seed_state = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.data_seed = SplitMix64Next(seed_state);
  config.engine_seeds.resize(kEngineSeeds);
  for (uint64_t& engine_seed : config.engine_seeds) {
    engine_seed = SplitMix64Next(seed_state);
  }
  config.seconds = flags.GetDouble("seconds", 10.0);
  config.trace = flags.GetInt("trace", 0) != 0;
  config.threads = std::min<size_t>(nproc, 4);

  std::fprintf(stderr, "# %s seed=%lld seconds=%g trace=%d threads=%zu\n",
               name.c_str(), static_cast<long long>(flags.GetInt("seed", 1)),
               config.seconds, config.trace ? 1 : 0, config.threads);
  std::string host_extra;
  WorkloadResult result = RunWorkload(workload, config, &host_extra);
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "FAILED operation: %s\n", failure.c_str());
  }

  std::string compiler = "unknown";
#if defined(__clang__)
  compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  compiler = "gcc " __VERSION__;
#endif
  std::printf(
      "{\"host\": {\"nproc\": %zu, \"threads\": %zu, \"compiler\": %s, "
      "\"build_type\": %s, \"git_sha\": %s, \"source_digest\": %s%s}}\n",
      nproc, config.threads, JsonString(compiler).c_str(),
      JsonString(MDRR_PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(flags.GetString("git_sha", "unknown")).c_str(),
      JsonString(flags.GetString("source_digest", "unknown")).c_str(),
      host_extra.c_str());
  const std::string line =
      ResultJson(result, config.trace ? kPerLayer : kEndToEnd);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return line.rfind("{\"correct\": true", 0) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mdrr::perfbench

int main(int argc, char** argv) { return mdrr::perfbench::Main(argc, argv); }
