// The one batch driver for the three release protocols, under every
// execution policy.
//
// The sequential policy (BatchPerturbationEngine::Sequential) is the
// reference transcript: one Rng(seed) that every stage draws from in
// call order, exactly as the stage functions (RunRrIndependent,
// RunRrJoint, RunRrClusters, SynthesizeFrom*) draw when a caller threads
// one Rng through them by hand. Such a stream is serial by construction,
// so a sequential engine runs on one worker, and its calls advance the
// stream it owns: results depend on the order of calls, and one
// sequential engine must not be shared between threads.
//
// The sharded policy (the options constructor) instead shards the
// records into fixed-size batches and gives shard s its own
// deterministic sub-stream (RngStreamFamily) for both perturbation and
// the shard's frequency counts. Shard boundaries and stream indices
// depend only on the record count and options.shard_size -- never on
// options.num_threads -- so a run's output is bit-identical for any
// thread count, including one, and for any call order. Against the
// sequential policy the estimates agree statistically (same matrices,
// same estimator) but not bit-for-bit: the random bits come from
// different streams.
//
// The randomness address. This block is the single statement of where
// every sharded column perturbation draws from; PerturbShard
// (core/frequency_oracle.h) is the one kernel that maps a shard to it,
// and the distributed worker (net/worker.h) runs that same kernel on the
// slices it is sent.
//
// Stream layout for seed s (mt19937 policy): stream 0 is reserved for
// serial randomness (the dependence-assessment round of RunClusters);
// perturbed column c (attribute for Independent, cluster for Clusters,
// the composite column for Joint) uses streams
// [1 + c * num_shards, 1 + (c + 1) * num_shards), shard k of the column
// drawing Stream(1 + c * num_shards + k) in record order.
//
// Under the philox policy (BatchPerturbationOptions::rng) perturbation
// instead draws element-addressed counter blocks: column c is philox
// stream 1 + c (1 for Joint) of the engine seed and record i is element i
// of that stream, so the randomized columns are additionally invariant
// under shard_size. Serial randomness and synthesis keep the mt19937
// family either way.

#ifndef MDRR_CORE_BATCH_ENGINE_H_
#define MDRR_CORE_BATCH_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/adjustment.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/perturber.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

// Override for the engine's sharded column kernel. Receives the full
// randomness address of the column -- `stream_base` (mt19937: shard s of
// the column draws from family.Stream(stream_base + s)) and
// `counter_stream` (philox: every element draws from this stream at its
// global index) -- and must honor the engine's determinism contract:
// return exactly what the in-process kernel would for those addresses.
// The distributed coordinator (net/coordinator.h) uses this to farm the
// shards out to worker processes while every serial stage stays local;
// a failed column surfaces as its Status and stops the release.
using ColumnShardPerturber = std::function<StatusOr<PerturbedColumn>(
    const RrMatrix& matrix, const std::vector<uint32_t>& codes,
    uint64_t stream_base, uint64_t counter_stream)>;

struct BatchPerturbationOptions {
  uint64_t seed = 1;
  // Worker threads; 0 means one per hardware core. Never changes results.
  size_t num_threads = 0;
  // Records per shard: the unit of work distribution and of RNG
  // sub-stream assignment. Under kMt19937 this is part of the randomness
  // contract -- changing it reassigns records to streams, like changing
  // the seed. Under kPhilox it is pure work-distribution tuning: counter
  // draws are addressed by record index, so output never depends on it.
  // 0 is clamped to 1.
  size_t shard_size = 1 << 16;
  // Perturbation stream engine. kMt19937 (default) keeps every committed
  // transcript bit-identical; kPhilox switches perturbation to the
  // counter-based element-addressed draws of counter_rng.h, whose output
  // is invariant under thread count AND shard grain. The two policies
  // produce different (each individually deterministic) transcripts.
  // Serial randomness (RunClusters' dependence-assessment round on
  // stream 0) and synthetic release stay on the mt19937 family under
  // either policy: both are already grain/thread-invariant, and synthesis
  // consumes shuffle draws the counter layout does not model.
  RngKind rng = RngKind::kMt19937;
  // When set, replaces the in-process sharded kernel for every column
  // perturbation (see ColumnShardPerturber above). Serial randomness,
  // adjustment, synthesis, and estimation still run locally.
  ColumnShardPerturber shard_perturber;
};

class BatchPerturbationEngine {
 public:
  // The sharded policy.
  explicit BatchPerturbationEngine(const BatchPerturbationOptions& options);

  // The sequential policy: a one-worker engine owning one Rng(seed). Only
  // PerturbColumn, RunClusters, RunAdjustment and the Synthesize* calls
  // branch on it (to PerturbColumnSequential, RunRrClusters,
  // RunRrAdjustment and SynthesizeFrom*); RunIndependent and RunJoint
  // reach the stream through PerturbColumn. RunOracle is always the
  // sharded kernel.
  static BatchPerturbationEngine Sequential(uint64_t seed);

  // Protocol 1: same result contract as RunRrIndependent, and
  // bit-identical to it on a sequential engine.
  StatusOr<RrIndependentResult> RunIndependent(
      const Dataset& dataset, const RrIndependentOptions& options) const;

  // The engine's column perturber: column `column_index` of the stream
  // layout above randomized through `oracle`. A sequential engine draws
  // the column from its stream instead. When
  // options().shard_perturber is set, a direct-encoding oracle's matrix
  // goes to it (other backends fail: the hook ships RR matrices);
  // otherwise RunOracle runs the column in process. Every protocol frame
  // the engine runs perturbs through here.
  StatusOr<PerturbedColumn> PerturbColumn(const FrequencyOracle& oracle,
                                          const std::vector<uint32_t>& codes,
                                          size_t column_index) const;

  // PerturbColumnSharded of a generic frequency-oracle backend over one
  // column with the engine's sharding and RNG policy, at the SAME
  // address as column `column_index` of RunIndependent (stream layout
  // above). Bit-identical for any thread count -- and for the
  // direct-encoding backend, bit-identical to RunIndependent's perturbed
  // column at the same address.
  OracleColumnResult RunOracle(const FrequencyOracle& oracle,
                               const std::vector<uint32_t>& codes,
                               size_t column_index) const;

  // Protocol 2: same result contract as RunRrJoint, and bit-identical to
  // it on a sequential engine.
  StatusOr<RrJointResult> RunJoint(const Dataset& dataset,
                                   const std::vector<size_t>& attributes,
                                   double epsilon) const;

  // RR-Clusters. A sequential engine runs RunRrClusters on its stream.
  // The sharded policy has the same result *shape*, agreeing
  // statistically but not bit-for-bit (different RNG streams, and the
  // Corollary 1 ordinal-ordinal |Pearson| is evaluated from joint counts
  // rather than raw columns -- see DependenceMatrixSharded). The
  // dependence-assessment round is seeded from stream 0 (one engine word
  // per source) and runs through AssessDependencesSharded with the
  // engine's RNG policy: every estimator shards its pair grid on
  // stream-per-pair draws, and under kPhilox record ranges shard too --
  // bit-identical at any thread count and shard grain either way. The
  // per-cluster joint randomization is sharded as before.
  StatusOr<RrClustersResult> RunClusters(
      const Dataset& dataset, const RrClustersOptions& options) const;

  // Algorithm 2: RunRrAdjustment. The sharded policy overrides
  // `options`' num_threads/chunk_size with the engine's (num_threads
  // workers, shard_size reduction chunks); a sequential engine keeps the
  // caller's, whose defaults are the sequential transcript.
  StatusOr<AdjustmentResult> RunAdjustment(
      const std::vector<AdjustmentGroup>& groups, size_t num_records,
      AdjustmentOptions options = {}) const;

  // Synthetic release: SynthesizeFrom{Independent,Clusters} on a
  // sequential engine's stream; otherwise their sharded forms, with
  // per-shard apportionment and per-shard shuffle streams. Stream
  // layout mirrors perturbation but on a salted family, so synthesis
  // never replays perturbation randomness at the same seed.
  StatusOr<Dataset> SynthesizeIndependent(const RrIndependentResult& result,
                                          int64_t n) const;
  StatusOr<Dataset> SynthesizeClusters(const RrClustersResult& result,
                                       int64_t n) const;

  // Shards used for a column of `num_rows` records (>= 1; the last shard
  // may be short). Exposed for tests and capacity planning.
  size_t NumShards(size_t num_rows) const;

  const BatchPerturbationOptions& options() const { return options_; }

 private:
  // The address of column `column_index` of the stream layout above (the
  // attribute for Independent, the cluster for Clusters, 0 for Joint)
  // for a column of `num_rows` records.
  ColumnAddress AddressOf(size_t column_index, size_t num_rows) const;

  BatchPerturbationOptions options_;
  // Set only by Sequential(): the stream every stage draws from.
  std::unique_ptr<Rng> serial_;
};

}  // namespace mdrr

#endif  // MDRR_CORE_BATCH_ENGINE_H_
