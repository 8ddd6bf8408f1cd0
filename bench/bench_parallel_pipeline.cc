// Full-pipeline scaling: every sharded stage of a release -- perturbation
// (RR-Independent, RR-Clusters), dependence assessment, Algorithm 2
// adjustment, synthetic release, and the party-level session -- at 1
// thread vs N threads on a large synthetic Adult workload. The sharding
// contracts make each pair of runs bit-identical, so the bench both
// measures the speedup and verifies the determinism claim on every
// invocation (exit 1 on any mismatch).
//
// Flags:
//   --n=N          records (default 1000000)
//   --threads=T    parallel thread count to compare against 1 (default 4)
//   --shard=S      records per shard (default 65536)
//   --p=P          keep probability (default 0.7)
//   --seed=S       engine seed (default 1)
//   --data_seed=S  synthetic-workload seed, independent of --seed
//                  (default 2020)
//   --session_n=N  parties in the session stage (default min(n, 100000);
//                  each simulated party carries its own mt19937_64, so
//                  the session stage is memory-bound in parties)
//   --est_r=R      joint-domain cardinality of the estimation stages
//                  (default 512)
// Any other flag, or a value that is malformed or out of range (a count
// below 1, a negative thread count or seed), exits 1, naming the flag.
//
// The rng-policy stage reads differently from every other row: its two
// columns are the two RNG policies at the SAME thread count (t1 =
// mt19937, tN = philox), so "speedup" is philox's throughput win over
// the sequential-stream mt19937 engine rather than a thread-scaling
// ratio. Its identical bit asserts each policy's own determinism
// contract -- mt19937 across thread counts, philox across thread counts
// AND shard grains -- plus that the two policies produce different
// transcripts (they are distinct generators, not aliases).
//
// The two estimate-joint stages exercise the Eq. (2) fast estimation
// backend at high cardinality: the structured stage additionally asserts
// (via linalg::LuFactorizationCount) that the O(r) closed-form path
// triggers NO LU factorization, and the dense stage asserts the blocked
// parallel LU + SolveTransposeMany output is bit-identical across thread
// counts.
//
// protocol-session runs the batched session at 1 vs N threads; its
// golden contract against the per-party reference loop is asserted in
// tests/session_fast_path_test.cc.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "mdrr/common/flags.h"
#include "mdrr/core/adjustment.h"
#include "mdrr/core/batch_engine.h"
#include "mdrr/core/dependence.h"
#include "mdrr/core/dependence_estimators.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/core/synthetic.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/linalg/lu.h"
#include "mdrr/net/coordinator.h"
#include "mdrr/net/worker.h"
#include "mdrr/protocol/session.h"
#include "mdrr/protocol/stream_ingest.h"
#include "mdrr/release/planner.h"
#include "mdrr/release/serialization.h"
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"

namespace {

using mdrr::BatchPerturbationEngine;
using mdrr::BatchPerturbationOptions;
using mdrr::Dataset;

struct StageResult {
  std::string name;
  double t1 = 0.0;
  double tn = 0.0;
  bool identical = false;
};

bool SameEstimates(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t j = 0; j < a.size(); ++j) {
    if (a[j] != b[j]) return false;
  }
  return true;
}

bool SameData(const Dataset& a, const Dataset& b) {
  if (a.num_rows() != b.num_rows() ||
      a.num_attributes() != b.num_attributes()) {
    return false;
  }
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    if (a.column(j) != b.column(j)) return false;
  }
  return true;
}

bool SameMatrix(const mdrr::linalg::Matrix& a, const mdrr::linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != b(i, j)) return false;
    }
  }
  return true;
}

BatchPerturbationEngine MakeEngine(const mdrr::FlagSet& flags, size_t threads,
                                   mdrr::RngKind rng =
                                       mdrr::RngKind::kMt19937) {
  BatchPerturbationOptions options;
  options.seed = flags.GetUint64("seed", 1);
  options.num_threads = threads;
  options.shard_size = flags.GetUint64("shard", 1 << 16);
  options.rng = rng;
  return BatchPerturbationEngine(options);
}

void PrintStage(const StageResult& stage) {
  std::printf("%-22s %10.3f %10.3f %8.2fx %12s\n", stage.name.c_str(),
              stage.t1, stage.tn, stage.tn > 0.0 ? stage.t1 / stage.tn : 0.0,
              stage.identical ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  const mdrr::FlagSet flags = mdrr::ParseFlagsOrExit(
      argc, argv,
      {mdrr::UintFlag("n", 1), mdrr::UintFlag("threads"),
       mdrr::UintFlag("shard", 1), mdrr::RealFlag("p"),
       mdrr::UintFlag("seed"), mdrr::UintFlag("data_seed"),
       mdrr::UintFlag("session_n", 1), mdrr::UintFlag("est_r", 2)});

  const size_t n = flags.GetUint64("n", 1000000);
  const size_t threads = flags.GetUint64("threads", 4);
  const double p = flags.GetDouble("p", 0.7);
  const uint64_t data_seed = flags.GetUint64("data_seed", 2020);
  const size_t session_n =
      flags.GetUint64("session_n", std::min<size_t>(n, 100000));

  mdrr::bench::PrintHeader("parallel release pipeline");
  std::printf("# synthesizing %zu Adult records...\n", n);
  Dataset data = mdrr::SynthesizeAdult(n, data_seed);

  BatchPerturbationEngine single = MakeEngine(flags, 1);
  BatchPerturbationEngine parallel = MakeEngine(flags, threads);
  std::printf("# shards: %zu (shard_size %zu)\n", single.NumShards(n),
              single.options().shard_size);

  mdrr::RrIndependentOptions independent_options{p};
  mdrr::RrClustersOptions clusters_options;
  clusters_options.keep_probability = p;
  clusters_options.dependence_source = mdrr::DependenceSource::kOracle;

  std::printf("%-22s %10s %10s %9s %12s\n", "stage", "t1 (s)", "tN (s)",
              "speedup", "identical");
  std::vector<StageResult> stages;
  mdrr::bench::WallTimer timer;

  // --- RR-Independent perturbation. ---
  timer.Restart();
  auto independent_one = single.RunIndependent(data, independent_options);
  double independent_t1 = timer.Seconds();
  timer.Restart();
  auto independent_many = parallel.RunIndependent(data, independent_options);
  double independent_tn = timer.Seconds();
  if (!independent_one.ok() || !independent_many.ok()) {
    std::fprintf(stderr, "RR-Independent failed\n");
    return 1;
  }
  stages.push_back(
      {"RR-Independent", independent_t1, independent_tn,
       SameEstimates(independent_one.value().estimated,
                     independent_many.value().estimated) &&
           SameData(independent_one.value().randomized,
                    independent_many.value().randomized)});
  PrintStage(stages.back());

  // --- RNG policy: the same RR-Independent workload under the mt19937
  // engine vs the counter-based philox backend. Both columns run at
  // --threads threads, so the ratio is the policy's throughput win, not
  // thread scaling (t1 = mt19937, reused from the stage above; tN =
  // philox). The identical bit covers philox's full determinism
  // contract: thread-count invariance, shard-grain invariance (the
  // draws are element-addressed, so resharding must not move a single
  // output), and divergence from the mt19937 transcript. ---
  BatchPerturbationEngine philox_single =
      MakeEngine(flags, 1, mdrr::RngKind::kPhilox);
  BatchPerturbationEngine philox_parallel =
      MakeEngine(flags, threads, mdrr::RngKind::kPhilox);
  auto philox_one = philox_single.RunIndependent(data, independent_options);
  timer.Restart();
  auto philox_many =
      philox_parallel.RunIndependent(data, independent_options);
  double philox_tn = timer.Seconds();
  BatchPerturbationOptions regrain_options = philox_parallel.options();
  regrain_options.shard_size =
      std::max<size_t>(1, regrain_options.shard_size / 2) + 1;
  auto philox_regrain = BatchPerturbationEngine(regrain_options)
                            .RunIndependent(data, independent_options);
  if (!philox_one.ok() || !philox_many.ok() || !philox_regrain.ok()) {
    std::fprintf(stderr, "philox RR-Independent failed\n");
    return 1;
  }
  bool philox_same =
      SameData(philox_one.value().randomized,
               philox_many.value().randomized) &&
      SameEstimates(philox_one.value().estimated,
                    philox_many.value().estimated) &&
      SameData(philox_many.value().randomized,
               philox_regrain.value().randomized) &&
      !SameData(philox_one.value().randomized,
                independent_one.value().randomized);
  stages.push_back({"rng-policy", independent_tn, philox_tn, philox_same});
  PrintStage(stages.back());

  // --- Frequency-oracle backends: DE vs OUE vs OLH at equal epsilon.
  // Every backend fans every attribute through the engine's RunOracle at
  // the per-attribute epsilon the RR design spends, so the columns
  // compare encodings at equal privacy budget. t1 = DE (the default RR
  // path through the oracle seam), tN = OLH, so the "speedup" column is
  // DE's throughput advantage over local hashing rather than thread
  // scaling; OUE's time prints as a comment line. The identical bit
  // asserts every backend's cross-thread determinism (support counts at
  // 1 thread == counts at --threads) plus that the three backends
  // produce three distinct count transcripts. ---
  auto run_backend = [&](mdrr::OracleBackend backend,
                         const BatchPerturbationEngine& engine)
      -> mdrr::StatusOr<std::vector<std::vector<int64_t>>> {
    std::vector<std::vector<int64_t>> counts;
    for (size_t j = 0; j < data.num_attributes(); ++j) {
      const size_t r = data.attribute(j).cardinality();
      const double eps =
          mdrr::MakeIndependentMatrix(r, independent_options).Epsilon();
      MDRR_ASSIGN_OR_RETURN(std::unique_ptr<mdrr::FrequencyOracle> oracle,
                            mdrr::MakeFrequencyOracle(backend, r, eps));
      counts.push_back(engine.RunOracle(*oracle, data.column(j), j).counts);
    }
    return counts;
  };
  timer.Restart();
  auto oracle_de = run_backend(mdrr::OracleBackend::kDirect, parallel);
  double oracle_de_t = timer.Seconds();
  timer.Restart();
  auto oracle_oue = run_backend(mdrr::OracleBackend::kOptimizedUnary,
                                parallel);
  double oracle_oue_t = timer.Seconds();
  timer.Restart();
  auto oracle_olh = run_backend(mdrr::OracleBackend::kLocalHashing, parallel);
  double oracle_olh_t = timer.Seconds();
  auto oracle_de_one = run_backend(mdrr::OracleBackend::kDirect, single);
  auto oracle_oue_one = run_backend(mdrr::OracleBackend::kOptimizedUnary,
                                    single);
  auto oracle_olh_one = run_backend(mdrr::OracleBackend::kLocalHashing,
                                    single);
  if (!oracle_de.ok() || !oracle_oue.ok() || !oracle_olh.ok() ||
      !oracle_de_one.ok() || !oracle_oue_one.ok() || !oracle_olh_one.ok()) {
    std::fprintf(stderr, "oracle-backends failed\n");
    return 1;
  }
  bool oracle_same = oracle_de.value() == oracle_de_one.value() &&
                     oracle_oue.value() == oracle_oue_one.value() &&
                     oracle_olh.value() == oracle_olh_one.value() &&
                     oracle_de.value() != oracle_oue.value() &&
                     oracle_de.value() != oracle_olh.value() &&
                     oracle_oue.value() != oracle_olh.value();
  std::printf("# oracle-backends: oue tN=%.3fs\n", oracle_oue_t);
  stages.push_back({"oracle-backends", oracle_de_t, oracle_olh_t,
                    oracle_same});
  PrintStage(stages.back());

  // --- Dependence assessment (Corollary 1 pairwise statistics). ---
  mdrr::DependenceShardingOptions dependence_one;
  dependence_one.num_threads = 1;
  mdrr::DependenceShardingOptions dependence_many;
  dependence_many.num_threads = threads;
  timer.Restart();
  mdrr::linalg::Matrix deps_one =
      mdrr::DependenceMatrixSharded(data, dependence_one);
  double dependence_t1 = timer.Seconds();
  timer.Restart();
  mdrr::linalg::Matrix deps_many =
      mdrr::DependenceMatrixSharded(data, dependence_many);
  double dependence_tn = timer.Seconds();
  stages.push_back({"dependence-assess", dependence_t1, dependence_tn,
                    SameMatrix(deps_one, deps_many)});
  PrintStage(stages.back());

  // --- Privacy-preserving dependence estimators (Sections 4.2/4.3):
  // stream-per-pair secure sums + pairwise-RR masking, the last
  // previously-sequential stages. t1/tN time the mt19937 pairwise-RR
  // estimator at 1 vs --threads workers; the identical bit asserts the
  // full addressing contract on every run -- both estimators bit-equal
  // across thread counts under both RNG policies, philox additionally
  // across shard grains, and the two policies producing distinct
  // pairwise-RR transcripts. ---
  const uint64_t dep_seed = flags.GetUint64("seed", 1);
  auto estimator_options = [&](mdrr::RngKind rng_kind, size_t est_threads,
                               size_t grain) {
    mdrr::DependenceEstimatorOptions options;
    options.rng = rng_kind;
    options.sharding.num_threads = est_threads;
    options.sharding.record_chunk_size = grain;
    return options;
  };
  const size_t dep_grain = single.options().shard_size;
  timer.Restart();
  auto pairwise_one = mdrr::PairwiseRrDependences(
      data, p, mdrr::mpc::SimulationMode::kFastSimulation, dep_seed,
      estimator_options(mdrr::RngKind::kMt19937, 1, dep_grain));
  double pairwise_t1 = timer.Seconds();
  timer.Restart();
  auto pairwise_many = mdrr::PairwiseRrDependences(
      data, p, mdrr::mpc::SimulationMode::kFastSimulation, dep_seed,
      estimator_options(mdrr::RngKind::kMt19937, threads, dep_grain));
  double pairwise_tn = timer.Seconds();
  auto pairwise_philox_one = mdrr::PairwiseRrDependences(
      data, p, mdrr::mpc::SimulationMode::kFastSimulation, dep_seed,
      estimator_options(mdrr::RngKind::kPhilox, 1, dep_grain));
  auto pairwise_philox_many = mdrr::PairwiseRrDependences(
      data, p, mdrr::mpc::SimulationMode::kFastSimulation, dep_seed,
      estimator_options(mdrr::RngKind::kPhilox, threads,
                        dep_grain / 2 + 1));
  auto secure_one = mdrr::SecureSumDependences(
      data, mdrr::mpc::SimulationMode::kFastSimulation, dep_seed,
      estimator_options(mdrr::RngKind::kMt19937, 1, dep_grain));
  auto secure_many = mdrr::SecureSumDependences(
      data, mdrr::mpc::SimulationMode::kFastSimulation, dep_seed,
      estimator_options(mdrr::RngKind::kPhilox, threads, dep_grain));
  if (!pairwise_one.ok() || !pairwise_many.ok() ||
      !pairwise_philox_one.ok() || !pairwise_philox_many.ok() ||
      !secure_one.ok() || !secure_many.ok()) {
    std::fprintf(stderr, "dependence estimators failed\n");
    return 1;
  }
  bool pairwise_same =
      SameMatrix(pairwise_one.value().dependences,
                 pairwise_many.value().dependences) &&
      SameMatrix(pairwise_philox_one.value().dependences,
                 pairwise_philox_many.value().dependences) &&
      !SameMatrix(pairwise_one.value().dependences,
                  pairwise_philox_one.value().dependences) &&
      // The secure sums are exact, so every policy and schedule must
      // agree bit for bit.
      SameMatrix(secure_one.value().dependences,
                 secure_many.value().dependences);
  stages.push_back({"dependence-pairwise", pairwise_t1, pairwise_tn,
                    pairwise_same});
  PrintStage(stages.back());

  // --- RR-Clusters (assessment + clustering + joint perturbation). ---
  timer.Restart();
  auto clusters_one = single.RunClusters(data, clusters_options);
  double clusters_t1 = timer.Seconds();
  timer.Restart();
  auto clusters_many = parallel.RunClusters(data, clusters_options);
  double clusters_tn = timer.Seconds();
  if (!clusters_one.ok() || !clusters_many.ok()) {
    std::fprintf(stderr, "RR-Clusters failed\n");
    return 1;
  }
  bool clusters_same =
      SameData(clusters_one.value().randomized,
               clusters_many.value().randomized) &&
      clusters_one.value().release_epsilon ==
          clusters_many.value().release_epsilon;
  for (size_t c = 0;
       clusters_same && c < clusters_one.value().cluster_results.size();
       ++c) {
    clusters_same = clusters_one.value().cluster_results[c].estimated ==
                    clusters_many.value().cluster_results[c].estimated;
  }
  stages.push_back({"RR-Clusters", clusters_t1, clusters_tn, clusters_same});
  PrintStage(stages.back());

  // --- Algorithm 2 adjustment on the clusters release. ---
  std::vector<mdrr::AdjustmentGroup> groups =
      mdrr::GroupsFromClusters(clusters_one.value());
  mdrr::AdjustmentOptions adjustment_options;
  adjustment_options.max_iterations = 25;
  timer.Restart();
  auto adjustment_one = single.RunAdjustment(groups, n, adjustment_options);
  double adjustment_t1 = timer.Seconds();
  timer.Restart();
  auto adjustment_many =
      parallel.RunAdjustment(groups, n, adjustment_options);
  double adjustment_tn = timer.Seconds();
  if (!adjustment_one.ok() || !adjustment_many.ok()) {
    std::fprintf(stderr, "adjustment failed\n");
    return 1;
  }
  stages.push_back(
      {"adjustment", adjustment_t1, adjustment_tn,
       adjustment_one.value().weights == adjustment_many.value().weights &&
           adjustment_one.value().iterations ==
               adjustment_many.value().iterations});
  PrintStage(stages.back());

  // --- Synthetic release from the clusters estimates. ---
  timer.Restart();
  auto synthetic_one =
      single.SynthesizeClusters(clusters_one.value(),
                                static_cast<int64_t>(n));
  double synthetic_t1 = timer.Seconds();
  timer.Restart();
  auto synthetic_many =
      parallel.SynthesizeClusters(clusters_one.value(),
                                  static_cast<int64_t>(n));
  double synthetic_tn = timer.Seconds();
  if (!synthetic_one.ok() || !synthetic_many.ok()) {
    std::fprintf(stderr, "synthetic release failed\n");
    return 1;
  }
  stages.push_back({"synthetic-release", synthetic_t1, synthetic_tn,
                    SameData(synthetic_one.value(), synthetic_many.value())});
  PrintStage(stages.back());

  // --- The release façade driving the same composition end to end
  // (clusters + adjustment + synthetic under one sharded-policy spec).
  // The stage both measures the API layer's overhead -- its time should
  // be within noise of the direct clusters+adjustment+synthetic sum
  // above -- and asserts zero divergence: façade output must be
  // bit-identical across thread counts AND to the direct engine calls.
  mdrr::release::ReleaseSpec spec;
  spec.mechanism.kind = mdrr::release::MechanismKind::kClusters;
  spec.mechanism.dependence_source = clusters_options.dependence_source;
  spec.budget.keep_probability = p;
  spec.adjustment.enabled = true;
  spec.adjustment.max_iterations = adjustment_options.max_iterations;
  spec.synthetic.enabled = true;
  spec.execution.kind = mdrr::release::PolicyKind::kSharded;
  spec.execution.seed = single.options().seed;
  spec.execution.shard_size = single.options().shard_size;

  auto run_facade = [&](size_t facade_threads)
      -> mdrr::StatusOr<mdrr::release::ReleaseArtifacts> {
    spec.execution.num_threads = facade_threads;
    MDRR_ASSIGN_OR_RETURN(mdrr::release::ReleasePlan plan,
                          mdrr::release::ReleasePlanner::Plan(spec, &data));
    return plan.Run();
  };
  timer.Restart();
  auto facade_one = run_facade(1);
  double facade_t1 = timer.Seconds();
  timer.Restart();
  auto facade_many = run_facade(threads);
  double facade_tn = timer.Seconds();
  if (!facade_one.ok() || !facade_many.ok()) {
    std::fprintf(stderr, "release facade failed\n");
    return 1;
  }
  bool facade_same =
      SameData(facade_one.value().randomized,
               facade_many.value().randomized) &&
      facade_one.value().adjustment->weights ==
          facade_many.value().adjustment->weights &&
      SameData(*facade_one.value().synthetic,
               *facade_many.value().synthetic) &&
      // Zero divergence from the direct engine composition.
      SameData(facade_one.value().randomized,
               clusters_one.value().randomized) &&
      facade_one.value().adjustment->weights ==
          adjustment_one.value().weights &&
      SameData(*facade_one.value().synthetic, synthetic_one.value());
  stages.push_back({"release-facade", facade_t1, facade_tn, facade_same});
  PrintStage(stages.back());
  double direct_t1 = clusters_t1 + adjustment_t1 + synthetic_t1;
  if (direct_t1 > 0.0) {
    std::printf("# facade overhead vs direct composition (t1): %+.1f%%\n",
                100.0 * (facade_t1 - direct_t1) / direct_t1);
  }

  // --- Distributed release: the RR-Independent workload with column
  // perturbation farmed out over loopback TCP to 2 worker protocol
  // endpoints (each running the exact tools/mdrr_worker session loop),
  // shipping matrices, shard slices, and merged counts through the net/
  // wire format. t1 is the in-process sharded engine at --threads, tN
  // the 2-worker distributed run, so the "speedup" column reads as the
  // transport overhead ratio. The identical bit asserts the tentpole
  // contract on EVERY run: the distributed transcript is bit-equal to
  // the in-process engine for both RNG policies. ---
  auto run_distributed = [&](mdrr::RngKind rng_kind)
      -> mdrr::StatusOr<mdrr::RrIndependentResult> {
    mdrr::net::CoordinatorOptions coordinator_options;
    coordinator_options.seed = flags.GetUint64("seed", 1);
    coordinator_options.rng = rng_kind;
    coordinator_options.shard_size = single.options().shard_size;
    mdrr::net::Coordinator coordinator(coordinator_options);
    MDRR_RETURN_IF_ERROR(coordinator.Listen(0));
    const uint16_t port = coordinator.port();
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
      workers.emplace_back(
          [port] { (void)mdrr::net::RunWorker("127.0.0.1", port); });
    }
    mdrr::Status accepted = coordinator.AcceptWorkers(2);
    if (!accepted.ok()) {
      coordinator.Abort(accepted.ToString());
      for (std::thread& worker : workers) worker.join();
      return accepted;
    }
    BatchPerturbationOptions engine_options = single.options();
    engine_options.rng = rng_kind;
    engine_options.shard_perturber =
        [&coordinator](const mdrr::RrMatrix& matrix,
                       const std::vector<uint32_t>& codes,
                       uint64_t stream_base, uint64_t counter_stream) {
          return coordinator.PerturbColumn(matrix, codes, stream_base,
                                           counter_stream);
        };
    auto result = BatchPerturbationEngine(engine_options)
                      .RunIndependent(data, independent_options);
    mdrr::Status committed =
        result.ok() ? coordinator.Commit() : result.status();
    if (!committed.ok()) coordinator.Abort(committed.ToString());
    for (std::thread& worker : workers) worker.join();
    if (!result.ok()) return result.status();
    MDRR_RETURN_IF_ERROR(committed);
    return result;
  };
  timer.Restart();
  auto distributed_mt = run_distributed(mdrr::RngKind::kMt19937);
  double distributed_tn = timer.Seconds();
  auto distributed_philox = run_distributed(mdrr::RngKind::kPhilox);
  if (!distributed_mt.ok() || !distributed_philox.ok()) {
    std::fprintf(stderr, "distributed release failed: %s\n",
                 (!distributed_mt.ok() ? distributed_mt.status()
                                       : distributed_philox.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  bool distributed_same =
      SameData(distributed_mt.value().randomized,
               independent_many.value().randomized) &&
      SameEstimates(distributed_mt.value().estimated,
                    independent_many.value().estimated) &&
      SameData(distributed_philox.value().randomized,
               philox_many.value().randomized) &&
      SameEstimates(distributed_philox.value().estimated,
                    philox_many.value().estimated);
  stages.push_back({"release-distributed", independent_tn, distributed_tn,
                    distributed_same});
  PrintStage(stages.back());

  // --- Eq. (2) estimation on a high-cardinality joint domain. ---
  const size_t est_r = flags.GetUint64("est_r", 512);
  const int64_t est_n = static_cast<int64_t>(n);
  std::vector<double> est_lambda(est_r);
  {
    mdrr::Rng lambda_rng(data_seed ^ 0x9e3779b97f4a7c15ULL);
    double total = 0.0;
    for (double& x : est_lambda) {
      x = lambda_rng.UniformDouble();
      total += x;
    }
    for (double& x : est_lambda) x /= total;
  }

  // Structured (the shape of every matrix the paper constructs): the
  // closed-form path must be O(r) -- in particular it must never reach an
  // LU factorization, which LuFactorizationCount makes observable.
  mdrr::RrMatrix structured_design =
      mdrr::RrMatrix::OptimalForEpsilon(est_r, 2.0);
  // The closed forms are O(r) and sub-millisecond even at nightly
  // cardinalities, so repeat them to lift the stage above timer noise.
  // The structured path has no parallel section -- expect speedup ~1.0;
  // the stage's signal is the time RATIO vs estimate-dense-lu and the
  // no-factorization assertion below.
  const int structured_reps = 1000;
  auto run_structured_estimation = [&](size_t est_threads) {
    mdrr::EstimationOptions est_options{est_threads};
    auto estimate = mdrr::EstimateProjectedDistribution(
        structured_design, est_lambda, est_options);
    auto variances = mdrr::EstimateVariances(structured_design, est_lambda,
                                             est_n, est_options);
    for (int rep = 1; rep < structured_reps; ++rep) {
      estimate = mdrr::EstimateProjectedDistribution(structured_design,
                                                     est_lambda, est_options);
      variances = mdrr::EstimateVariances(structured_design, est_lambda,
                                          est_n, est_options);
    }
    return std::make_pair(std::move(estimate), std::move(variances));
  };
  uint64_t factorizations_before = mdrr::linalg::LuFactorizationCount();
  timer.Restart();
  auto structured_one = run_structured_estimation(1);
  double structured_t1 = timer.Seconds();
  timer.Restart();
  auto structured_many = run_structured_estimation(threads);
  double structured_tn = timer.Seconds();
  bool structured_no_lu =
      mdrr::linalg::LuFactorizationCount() == factorizations_before;
  if (!structured_one.first.ok() || !structured_one.second.ok() ||
      !structured_many.first.ok() || !structured_many.second.ok()) {
    std::fprintf(stderr, "structured joint estimation failed\n");
    return 1;
  }
  if (!structured_no_lu) {
    std::fprintf(stderr,
                 "structured joint estimation executed an LU "
                 "factorization (the O(r) closed-form path regressed)\n");
  }
  stages.push_back(
      {"estimate-structured", structured_t1, structured_tn,
       structured_no_lu &&
           structured_one.first.value() == structured_many.first.value() &&
           structured_one.second.value() == structured_many.second.value()});
  PrintStage(stages.back());

  // Dense fallback at the same cardinality: blocked parallel LU +
  // SolveTransposeMany. Fresh RrMatrix instances per run so each thread
  // count pays (and times) its own factorization instead of sharing the
  // first run's cache.
  mdrr::linalg::Matrix dense_design =
      mdrr::RrMatrix::GeometricOrdinal(est_r, 2.0).ToDense();
  auto run_dense_estimation = [&](size_t est_threads)
      -> mdrr::StatusOr<std::pair<std::vector<double>,
                                  std::vector<double>>> {
    MDRR_ASSIGN_OR_RETURN(mdrr::RrMatrix matrix,
                          mdrr::RrMatrix::FromDense(dense_design));
    mdrr::EstimationOptions est_options{est_threads};
    MDRR_ASSIGN_OR_RETURN(
        std::vector<double> estimate,
        mdrr::EstimateDistribution(matrix, est_lambda, est_options));
    MDRR_ASSIGN_OR_RETURN(
        std::vector<double> variances,
        mdrr::EstimateVariances(matrix, est_lambda, est_n, est_options));
    return std::make_pair(std::move(estimate), std::move(variances));
  };
  timer.Restart();
  auto dense_one = run_dense_estimation(1);
  double dense_t1 = timer.Seconds();
  timer.Restart();
  auto dense_many = run_dense_estimation(threads);
  double dense_tn = timer.Seconds();
  if (!dense_one.ok() || !dense_many.ok()) {
    std::fprintf(stderr, "dense joint estimation failed\n");
    return 1;
  }
  stages.push_back(
      {"estimate-dense-lu", dense_t1, dense_tn,
       dense_one.value().first == dense_many.value().first &&
           dense_one.value().second == dense_many.value().second});
  PrintStage(stages.back());

  // --- Party-level two-round session. ---
  Dataset session_data =
      session_n == n ? data : mdrr::SynthesizeAdult(session_n, data_seed);
  mdrr::protocol::SessionOptions session_options;
  session_options.keep_probability = p;
  session_options.seed = flags.GetUint64("seed", 1);
  // The session grain is load-balancing only (never changes results), so
  // size it to give the parallel run ~8 batches per worker; the default
  // 65536 would clamp a 100k-party session to 2 workers.
  session_options.shard_size = std::max<size_t>(
      1, session_n / std::max<size_t>(1, 8 * threads));
  session_options.num_threads = 1;
  // Untimed warm-up: the session stages are the first allocations of the
  // party state (~2.5 KB of engine per party), and on virtualized runners
  // first-ever RSS growth faults in at a fraction of reuse bandwidth --
  // a one-time provisioning cost that would otherwise land on whichever
  // session run happens to execute first and distort every ratio below.
  {
    auto warmup =
        mdrr::protocol::RunDistributedSession(session_data, session_options);
    if (!warmup.ok()) {
      std::fprintf(stderr, "session warm-up failed\n");
      return 1;
    }
  }
  timer.Restart();
  auto session_one =
      mdrr::protocol::RunDistributedSession(session_data, session_options);
  double session_t1 = timer.Seconds();
  session_options.num_threads = threads;
  timer.Restart();
  auto session_many =
      mdrr::protocol::RunDistributedSession(session_data, session_options);
  double session_tn = timer.Seconds();
  if (!session_one.ok() || !session_many.ok()) {
    std::fprintf(stderr, "session failed\n");
    return 1;
  }
  stages.push_back(
      {"protocol-session", session_t1, session_tn,
       session_one.value().clusters == session_many.value().clusters &&
           session_one.value().cluster_joints ==
               session_many.value().cluster_joints &&
           SameData(session_one.value().randomized,
                    session_many.value().randomized)});
  PrintStage(stages.back());

  // --- Streaming windowed collection. The collector ingests the session
  // workload through the lock-free channels at 1 vs N ingest threads and
  // re-runs the Eq. (2) closed forms per tumbling window; the identical
  // column asserts the per-window transcripts bit-equal AND that the
  // structured windows triggered zero LU factorizations. ---
  mdrr::release::ReleaseSpec stream_spec;
  stream_spec.mechanism.kind = mdrr::release::MechanismKind::kIndependent;
  stream_spec.budget.keep_probability = p;
  stream_spec.streaming.enabled = true;
  stream_spec.streaming.window_size =
      std::max<uint64_t>(1, static_cast<uint64_t>(session_n) / 8);
  stream_spec.execution.seed = session_options.seed;
  auto run_streaming = [&](size_t ingest_threads) {
    mdrr::protocol::StreamingReplayOptions streaming_options;
    streaming_options.num_ingest_threads = ingest_threads;
    streaming_options.collector.num_shards = std::min<size_t>(
        4, std::max<size_t>(1, ingest_threads));
    return mdrr::protocol::RunStreamingReplay(stream_spec, session_data,
                                              streaming_options);
  };
  const uint64_t lu_before_streaming = mdrr::linalg::LuFactorizationCount();
  timer.Restart();
  auto streaming_one = run_streaming(1);
  double streaming_t1 = timer.Seconds();
  timer.Restart();
  auto streaming_many = run_streaming(threads);
  double streaming_tn = timer.Seconds();
  if (!streaming_one.ok() || !streaming_many.ok()) {
    std::fprintf(stderr, "streaming-window failed\n");
    return 1;
  }
  stages.push_back(
      {"streaming-window", streaming_t1, streaming_tn,
       mdrr::release::PrintStreamWindows(streaming_one.value().windows) ==
               mdrr::release::PrintStreamWindows(
                   streaming_many.value().windows) &&
           !streaming_one.value().windows.empty() &&
           mdrr::linalg::LuFactorizationCount() == lu_before_streaming});
  PrintStage(stages.back());

  int failures = 0;
  for (const StageResult& stage : stages) {
    if (!stage.identical) ++failures;
  }

  if (failures > 0) {
    std::fprintf(stderr,
                 "FAIL: %d stage(s) were not bit-identical across thread "
                 "counts\n",
                 failures);
    return 1;
  }
  return 0;
}
