// The three perfbench workloads. Each is a closed loop -- the next
// operation starts when the previous one returns -- driven from this one
// process through the library's public entry points:
//
//   batch-clusters-adjust    ReleasePlanner::Plan + ReleasePlan::Run, the
//                            `mdrr_cli run --spec` path (RR-Clusters,
//                            Algorithm 2 adjustment, synthetic output).
//   stream-collect           protocol::RunStreamingReplay, the
//                            `mdrr_collectd --input` path.
//   distributed-independent  ReleasePlan::RunDistributed over a
//                            net::Coordinator with loopback workers.
//
// An untraced run (trace = false) reports the end-to-end metrics; a
// traced run re-composes the same release from the layers' public
// functions with a stopwatch around each call and reports the per-layer
// metrics. Both check every output they produce and count failures.

#ifndef MDRR_PERFBENCH_WORKLOADS_H_
#define MDRR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "harness.h"

namespace mdrr::perfbench {

struct RunConfig {
  uint64_t data_seed = 1;
  // Engine seeds the releases rotate over (a workload uses a prefix; the
  // set-up, traced and single-seed checks use the first).
  std::vector<uint64_t> engine_seeds = {1};
  // Wall time of the measured closed loop.
  double seconds = 10.0;
  bool trace = false;
  // Worker threads of the full-width variant (never above nproc).
  size_t threads = 4;
  // Set-ups per run; setup_s is their median.
  int setups = 3;
  // Input-size divisor: 1 for the benchmark, larger for the self-test.
  size_t shrink = 1;
};

WorkloadResult RunBatchClustersAdjust(const RunConfig& config);
WorkloadResult RunStreamCollect(const RunConfig& config);
WorkloadResult RunDistributedIndependent(const RunConfig& config);

}  // namespace mdrr::perfbench

#endif  // MDRR_PERFBENCH_WORKLOADS_H_
