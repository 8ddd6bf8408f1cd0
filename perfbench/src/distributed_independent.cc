// distributed-independent: RR-Independent on 1M synthetic-adult records
// under the Philox counter policy, released through
// ReleasePlan::RunDistributed over a net::Coordinator whose 2 workers
// (net::RunWorker threads) connect over loopback. One worker session
// serves one release, so every release re-accepts its workers. The same
// perturbation layer as the in-process engine runs behind frame encode,
// send, receive and merge; there is no adjustment or synthesis. One
// worker is the single-thread baseline.
//
// Every release must be bit-equal to the same spec under the sharded
// policy, computed once, untimed. The traced composition drives the
// coordinator column by column with the addresses the engine would use
// and re-measures the same columns in-process and through the public
// net/protocol.h codecs, to split the transport overhead.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mdrr/common/parallel.h"
#include "mdrr/core/batch_engine.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/net/coordinator.h"
#include "mdrr/net/protocol.h"
#include "mdrr/net/worker.h"
#include "mdrr/release/planner.h"
#include "workloads.h"

namespace mdrr::perfbench {

namespace {

constexpr size_t kRecords = 1000000;
constexpr size_t kWorkers = 2;
// Engine seeds the releases rotate over; marginal_tv averages them.
constexpr size_t kSeeds = 16;
// [u32 payload_length][u8 frame_type] ahead of every payload (net/frame.h).
constexpr double kFrameHeaderBytes = 5.0;

release::ReleaseSpec MakeSpec(const RunConfig& config,
                              release::PolicyKind kind, uint64_t seed) {
  release::ReleaseSpec spec;  // dataset.source provided.
  spec.mechanism.kind = release::MechanismKind::kIndependent;
  spec.execution.kind = kind;
  spec.execution.rng = RngKind::kPhilox;
  spec.execution.seed = seed;
  if (kind == release::PolicyKind::kDistributed) {
    spec.execution.num_workers = kWorkers;
  } else {
    spec.execution.num_threads = config.threads;
  }
  return spec;
}

struct DistributedState {
  Dataset data;
  std::vector<std::vector<double>> truth;
  // Per engine seed: the plan and a listening coordinator (the
  // coordinator carries the seed of the randomness it hands out).
  std::vector<release::ReleasePlan> plans;
  std::vector<std::unique_ptr<net::Coordinator>> coordinators;
};

uint64_t Digest(const Dataset& randomized,
                const std::vector<std::vector<double>>& marginals) {
  Fnv1a hash;
  hash.AddDataset(randomized);
  for (const std::vector<double>& marginal : marginals) {
    hash.AddDoubles(marginal);
  }
  return hash.value();
}

// Loopback worker threads serving one coordinator session; joined (and
// their statuses collected) on Join or destruction.
class WorkerFleet {
 public:
  WorkerFleet(uint16_t port, size_t count) : statuses_(count, Status::OK()) {
    for (size_t i = 0; i < count; ++i) {
      threads_.emplace_back([this, port, i] {
        statuses_[i] = net::RunWorker("127.0.0.1", port);
      });
    }
  }
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;
  ~WorkerFleet() { Join(); }

  // Waits for every worker; returns the first worker failure.
  Status Join() {
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    for (const Status& status : statuses_) {
      if (!status.ok()) return status;
    }
    return Status::OK();
  }

 private:
  std::vector<Status> statuses_;
  std::vector<std::thread> threads_;
};

// One distributed release: accept `workers`, run, join. Returns the wall
// seconds of the whole session and sets `digest`/`tv`, or an error.
std::string RunRelease(DistributedState& state, size_t seed, size_t workers,
                       double* seconds, uint64_t* digest, double* tv) {
  net::Coordinator& coordinator = *state.coordinators[seed];
  Stopwatch watch;
  WorkerFleet fleet(coordinator.port(), workers);
  Status accepted = coordinator.AcceptWorkers(workers);
  StatusOr<release::ReleaseArtifacts> artifacts =
      accepted.ok() ? state.plans[seed].RunDistributed(coordinator)
                    : StatusOr<release::ReleaseArtifacts>(accepted);
  if (!accepted.ok()) coordinator.Abort(accepted.ToString());
  Status joined = fleet.Join();
  *seconds = watch.Seconds();
  if (!artifacts.ok()) return artifacts.status().ToString();
  if (!joined.ok()) return "worker: " + joined.ToString();
  *digest = Digest(artifacts->randomized, artifacts->marginal_estimates);
  *tv = MeanTotalVariation(artifacts->marginal_estimates, state.truth);
  if (*tv < 0.0) return "marginal estimates do not match the schema";
  return "";
}

struct DistributedLayers {
  double accept = 0.0;
  double assemble = 0.0;
  double perturb_column = 0.0;
  double estimate = 0.0;
  double commit = 0.0;
  // Side measurements of the same columns (not part of the release).
  double perturb_in_process = 0.0;
  double encode = 0.0;
  double parse = 0.0;
  double wire_bytes = 0.0;

  double Sum() const {
    return accept + assemble + perturb_column + estimate + commit;
  }
};

// The encode/parse cost and encoded size of one column's round trip: the
// AssignShards messages the coordinator deals (shard s to worker s mod W)
// and the PartialResult replies the workers would send for `perturbed`.
Status MeasureWire(const RrMatrix& matrix, const std::vector<uint32_t>& codes,
                   const std::vector<uint32_t>& perturbed, uint64_t seed,
                   uint64_t stream_base, uint64_t counter_stream,
                   size_t shard_size, DistributedLayers* layers) {
  const size_t n = codes.size();
  std::vector<net::AssignShardsMsg> assign(kWorkers);
  std::vector<net::PartialResultMsg> partial(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) {
    assign[w].task_id = w + 1;
    assign[w].rng_kind = static_cast<uint8_t>(RngKind::kPhilox);
    assign[w].seed = seed;
    assign[w].stream_base = stream_base;
    assign[w].counter_stream = counter_stream;
    assign[w].matrix.emplace(matrix);
    partial[w].task_id = w + 1;
    partial[w].counts.assign(matrix.size(), 0);
  }
  for (size_t s = 0; s * shard_size < n; ++s) {
    const size_t begin = s * shard_size;
    const size_t end = std::min(n, begin + shard_size);
    net::ShardAssignment shard;
    shard.shard_index = s;
    shard.global_begin = begin;
    shard.codes.assign(codes.begin() + static_cast<ptrdiff_t>(begin),
                       codes.begin() + static_cast<ptrdiff_t>(end));
    assign[s % kWorkers].shards.push_back(std::move(shard));
    net::ShardResult result;
    result.shard_index = s;
    result.codes.assign(perturbed.begin() + static_cast<ptrdiff_t>(begin),
                        perturbed.begin() + static_cast<ptrdiff_t>(end));
    for (uint32_t code : result.codes) ++partial[s % kWorkers].counts[code];
    partial[s % kWorkers].shards.push_back(std::move(result));
  }
  for (size_t w = 0; w < kWorkers; ++w) {
    std::vector<uint8_t> request = Timed(&layers->encode, [&] {
      return net::EncodeAssignShards(assign[w]);
    });
    std::vector<uint8_t> reply = net::EncodePartialResult(partial[w]);
    StatusOr<net::PartialResultMsg> parsed = Timed(&layers->parse, [&] {
      return net::ParsePartialResult(reply);
    });
    if (!parsed.ok()) return parsed.status();
    layers->wire_bytes += static_cast<double>(request.size() + reply.size()) +
                          2.0 * kFrameHeaderBytes;
  }
  return Status::OK();
}

// RunDistributed of the spec re-composed column by column: accept, then
// per attribute Coordinator::PerturbColumn at the engine's addresses
// (philox counter stream 1 + j) and the Eq. (2) estimate, then commit.
StatusOr<uint64_t> TracedRelease(DistributedState& state,
                                 const release::ReleaseSpec& spec,
                                 const RunConfig& config,
                                 DistributedLayers* layers) {
  net::Coordinator& coordinator = *state.coordinators[0];
  const Dataset& data = state.data;
  const size_t shard_size = spec.execution.shard_size;
  const size_t num_shards = NumChunks(data.num_rows(), shard_size);
  const RrIndependentOptions options{spec.budget.keep_probability};

  std::optional<WorkerFleet> fleet;
  Status accepted = Timed(&layers->accept, [&] {
    fleet.emplace(coordinator.port(), kWorkers);
    return coordinator.AcceptWorkers(kWorkers);
  });
  if (!accepted.ok()) {
    coordinator.Abort(accepted.ToString());
    return accepted;
  }

  Dataset randomized;
  Timed(&layers->assemble, [&] { randomized = data; });
  std::vector<std::vector<double>> marginals(data.num_attributes());
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    const RrMatrix matrix =
        MakeIndependentMatrix(data.attribute(j).cardinality(), options);
    StatusOr<PerturbedColumn> column = Timed(&layers->perturb_column, [&] {
      return coordinator.PerturbColumn(matrix, data.column(j),
                                       1 + j * num_shards, 1 + j);
    });
    if (!column.ok()) {
      coordinator.Abort(column.status().ToString());
      return column.status();
    }
    StatusOr<std::vector<double>> raw = Timed(&layers->estimate, [&] {
      return EstimateDistribution(matrix, column->lambda);
    });
    if (!raw.ok()) {
      coordinator.Abort(raw.status().ToString());
      return raw.status();
    }
    Timed(&layers->estimate, [&] { marginals[j] = ProjectToSimplex(*raw); });
    Timed(&layers->assemble,
          [&] { randomized.SetColumn(j, std::move(column->codes)); });
  }
  Status committed = Timed(&layers->commit, [&] {
    Status commit = coordinator.Commit();
    Status joined = fleet->Join();
    return commit.ok() ? joined : commit;
  });
  if (!committed.ok()) return committed;

  // The same columns in-process at the engine's addresses, and through
  // the wire codecs, for the overhead split.
  BatchPerturbationOptions engine_options;
  engine_options.seed = spec.execution.seed;
  engine_options.num_threads = std::min<size_t>(kWorkers, config.threads);
  engine_options.shard_size = shard_size;
  engine_options.rng = spec.execution.rng;
  const BatchPerturbationEngine engine(engine_options);
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    const RrMatrix matrix =
        MakeIndependentMatrix(data.attribute(j).cardinality(), options);
    OracleColumnResult column = Timed(&layers->perturb_in_process, [&] {
      return engine.RunOracle(DirectEncodingOracle(matrix), data.column(j), j);
    });
    if (column.codes != randomized.column(j)) {
      return Status::Internal("in-process column " + std::to_string(j) +
                              " differs from the distributed one");
    }
    MDRR_RETURN_IF_ERROR(MeasureWire(matrix, data.column(j), column.codes,
                                     engine_options.seed, 1 + j * num_shards,
                                     1 + j, shard_size, layers));
  }
  return Digest(randomized, marginals);
}

// Plans the spec and starts its listening coordinator.
std::string AddSeed(DistributedState& state, const release::ReleaseSpec& spec) {
  StatusOr<release::ReleasePlan> planned =
      release::ReleasePlanner::Plan(spec, &state.data);
  if (!planned.ok()) return planned.status().ToString();
  state.plans.push_back(std::move(planned).value());
  net::CoordinatorOptions options;
  options.seed = spec.execution.seed;
  options.rng = spec.execution.rng;
  options.shard_size = spec.execution.shard_size;
  options.deadline_ms = spec.execution.worker_deadline_ms;
  state.coordinators.push_back(std::make_unique<net::Coordinator>(options));
  Status listening = state.coordinators.back()->Listen(0);
  return listening.ok() ? "" : listening.ToString();
}

}  // namespace

WorkloadResult RunDistributedIndependent(const RunConfig& config) {
  WorkloadResult result;
  const size_t n = kRecords / config.shrink;
  const size_t seeds = std::min(kSeeds, config.engine_seeds.size());
  const release::ReleaseSpec spec = MakeSpec(
      config, release::PolicyKind::kDistributed, config.engine_seeds[0]);

  // Set-up: synthesize, plan and listen per seed, one warm-up release
  // (which accepts the first worker session).
  std::unique_ptr<DistributedState> state;
  std::vector<double> setup_s, synthesize_s, plan_s;
  SeedReferences references(seeds);
  for (int k = 0; k < config.setups; ++k) {
    state.reset();
    Stopwatch setup;
    state = std::make_unique<DistributedState>();
    double synthesize = 0.0, plan = 0.0;
    state->data = Timed(&synthesize, [&] {
      return SynthesizeAdult(n, config.data_seed);
    });
    state->truth = TrueMarginals(state->data, 0, n);
    std::string error;
    for (size_t s = 0; s < seeds && error.empty(); ++s) {
      error = Timed(&plan, [&] {
        return AddSeed(*state,
                       MakeSpec(config, release::PolicyKind::kDistributed,
                                config.engine_seeds[s]));
      });
    }
    double warmup_s = 0.0, tv = 0.0;
    uint64_t digest = 0;
    if (error.empty()) {
      error = RunRelease(*state, 0, kWorkers, &warmup_s, &digest, &tv);
    }
    result.Record(error.empty() ? references.Check(0, digest, tv) : error);
    if (result.failed > 0) return result;
    setup_s.push_back(setup.Seconds());
    synthesize_s.push_back(synthesize);
    plan_s.push_back(plan / static_cast<double>(seeds));
  }

  // One release at seed `s`, checked against that seed's reference.
  auto checked_release = [&](size_t s, size_t workers) {
    double seconds = 0.0, tv = 0.0;
    uint64_t digest = 0;
    std::string error =
        RunRelease(*state, s, workers, &seconds, &digest, &tv);
    result.Record(error.empty() ? references.Check(s, digest, tv) : error);
    return seconds;
  };

  if (!config.trace) {
    // Each worker count walks the seeds in order, so seed s runs at both
    // once both have made s + 1 releases.
    size_t next[2] = {0, 0};
    std::vector<std::vector<double>> samples =
        ClosedLoop(config.seconds, 0.5, seeds, 3, [&](bool single) {
          return checked_release(next[single ? 1 : 0]++ % seeds,
                                 single ? 1 : kWorkers);
        });
    // The sharded policy at the same (seed, shard_size, rng) must produce
    // the same artifacts, bit for bit, for every seed.
    for (size_t s = 0; s < seeds; ++s) {
      StatusOr<release::ReleasePlan> sharded = release::ReleasePlanner::Plan(
          MakeSpec(config, release::PolicyKind::kSharded,
                   config.engine_seeds[s]),
          &state->data);
      StatusOr<release::ReleaseArtifacts> artifacts =
          sharded.ok() ? sharded->Run()
                       : StatusOr<release::ReleaseArtifacts>(sharded.status());
      result.Record(
          !artifacts.ok() ? artifacts.status().ToString()
          : Digest(artifacts->randomized, artifacts->marginal_estimates) !=
                  references.digest(s)
              ? "distributed release differs from the sharded policy"
              : "");
    }
    result.Set("setup_s", Median(setup_s));
    result.Set("records_per_s", static_cast<double>(n) / Median(samples[0]));
    result.Set("records_per_s_1t",
               static_cast<double>(n) / Median(samples[1]));
    result.Set("marginal_tv", references.MeanTv());
    return result;
  }

  std::vector<DistributedLayers> traced;
  std::vector<std::vector<double>> samples =
      ClosedLoop(config.seconds, 0.5, 3, 3, [&](bool trace) {
        if (!trace) return checked_release(0, kWorkers);
        DistributedLayers layers;
        StatusOr<uint64_t> digest =
            TracedRelease(*state, spec, config, &layers);
        result.Record(!digest.ok() ? digest.status().ToString()
                      : *digest != references.digest(0)
                          ? "traced composition digest differs from the "
                            "release"
                          : "");
        traced.push_back(layers);
        return layers.Sum();
      });
  auto median_of = [&](double DistributedLayers::*field) {
    std::vector<double> values;
    for (const DistributedLayers& layers : traced) {
      values.push_back(layers.*field);
    }
    return Median(values);
  };
  std::vector<double> sums, overheads;
  for (const DistributedLayers& layers : traced) {
    sums.push_back(layers.Sum());
    overheads.push_back(layers.perturb_column - layers.perturb_in_process);
  }
  const double wall = Median(samples[0]);
  const Attribution attribution = Explain(Median(sums), wall);
  result.Set("dataset.synthesize_s", Median(synthesize_s));
  result.Set("release.plan_s", Median(plan_s));
  result.Set("release.wall_s", wall);
  result.Set("release.coverage", attribution.coverage);
  result.Set("release.unaccounted_s", attribution.unaccounted_seconds);
  result.Set("net.accept_s", median_of(&DistributedLayers::accept));
  result.Set("dataset.assemble_s", median_of(&DistributedLayers::assemble));
  result.Set("net.perturb_column_s",
             median_of(&DistributedLayers::perturb_column));
  result.Set("core.perturb_s",
             median_of(&DistributedLayers::perturb_in_process));
  result.Set("net.overhead_s", Median(overheads));
  result.Set("core.estimate_s", median_of(&DistributedLayers::estimate));
  result.Set("net.commit_s", median_of(&DistributedLayers::commit));
  result.Set("net.encode_s", median_of(&DistributedLayers::encode));
  result.Set("net.parse_s", median_of(&DistributedLayers::parse));
  result.Set("net.wire_bytes_per_record",
             traced.back().wire_bytes / static_cast<double>(n));
  return result;
}

}  // namespace mdrr::perfbench
