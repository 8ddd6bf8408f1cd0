// batch-clusters-adjust: the paper's own pipeline -- RR-Clusters with the
// Section 4.1 randomized-response dependence round, Algorithm 2
// adjustment, and synthetic microdata -- on 1M synthetic-adult records,
// through ReleasePlanner::Plan + ReleasePlan::Run under the sharded
// mt19937 policy. The same release at one thread is the single-thread
// baseline (the sharded contract makes it bit-identical).
//
// The traced composition replays ReleasePlan::Run stage by stage from
// the public functions BatchPerturbationEngine::RunClusters and
// ReleasePlan::ExecuteStages call, at the same randomness addresses, so
// its digest must equal the untraced release's.

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mdrr/common/parallel.h"
#include "mdrr/core/adjustment.h"
#include "mdrr/core/batch_engine.h"
#include "mdrr/core/clustering.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/linalg/lu.h"
#include "mdrr/release/planner.h"
#include "workloads.h"

namespace mdrr::perfbench {

namespace {

constexpr size_t kRecords = 1000000;
// Engine seeds the releases rotate over; marginal_tv averages them.
constexpr size_t kSeeds = 12;
// The decode grain RunRrClustersWith uses (a load-balancing knob only).
constexpr size_t kDecodeChunkSize = 1 << 16;

release::ReleaseSpec MakeSpec(size_t threads, uint64_t seed) {
  release::ReleaseSpec spec;  // dataset.source provided, dependence rr.
  spec.mechanism.kind = release::MechanismKind::kClusters;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  spec.execution.kind = release::PolicyKind::kSharded;
  spec.execution.num_threads = threads;
  spec.execution.seed = seed;
  return spec;
}

struct BatchState {
  Dataset data;
  std::vector<std::vector<double>> truth;
  // One plan per engine seed, at full width and at one thread.
  std::vector<release::ReleasePlan> plans;
  std::vector<release::ReleasePlan> plans_single;
};

uint64_t Digest(const Dataset& randomized,
                const std::vector<std::vector<double>>& marginals,
                const std::vector<double>& weights, const Dataset& synthetic) {
  Fnv1a hash;
  hash.AddDataset(randomized);
  for (const std::vector<double>& marginal : marginals) {
    hash.AddDoubles(marginal);
  }
  hash.AddDoubles(weights);
  hash.AddDataset(synthetic);
  return hash.value();
}

// Runs one untraced release; returns its wall seconds and sets `digest`
// and `tv`, or an error message.
std::string RunRelease(const release::ReleasePlan& plan,
                       const std::vector<std::vector<double>>& truth,
                       double* seconds, uint64_t* digest, double* tv) {
  Stopwatch watch;
  StatusOr<release::ReleaseArtifacts> artifacts = plan.Run();
  *seconds = watch.Seconds();
  if (!artifacts.ok()) return artifacts.status().ToString();
  if (!artifacts->adjustment.has_value() || !artifacts->synthetic.has_value()) {
    return "release is missing its adjustment or synthetic output";
  }
  *digest = Digest(artifacts->randomized, artifacts->marginal_estimates,
                   artifacts->adjustment->weights, *artifacts->synthetic);
  *tv = MeanTotalVariation(artifacts->marginal_estimates, truth);
  if (*tv < 0.0) return "marginal estimates do not match the schema";
  return "";
}

// Per-layer seconds and counts of one traced composition.
struct BatchLayers {
  double assess = 0.0;
  double cluster = 0.0;
  double assemble = 0.0;
  double perturb = 0.0;
  double estimate = 0.0;
  double decode = 0.0;
  double adjust = 0.0;
  double synthesize = 0.0;
  int iterations = 0;
  size_t clusters = 0;
  uint64_t max_cluster_domain = 0;
  uint64_t lu_factorizations = 0;

  double Sum() const {
    return assess + cluster + assemble + perturb + estimate + decode +
           adjust + synthesize;
  }
};

// Bytes Algorithm 2 moves through memory for `groups` groups of `n`
// records over `iterations` iterations, from the array sizes
// RunRrAdjustment touches (computed, not counted by hardware): group
// construction copies every group's uint32 codes (read + write); the
// first accumulate reads weights + group-0 codes; each middle pass reads
// weights, writes weights and reads two code arrays; the last pass of an
// iteration reads + writes weights and reads every group's codes; the
// closing total and divide passes read weights, then read + write them.
double AdjustmentBytes(size_t groups, size_t n, int iterations) {
  const double records = static_cast<double>(n);
  const double g = static_cast<double>(groups);
  const double fixed = 8.0 * g + 8.0 + 12.0 + 8.0 + 16.0;
  const double per_iteration = 24.0 * (g - 1.0) + 16.0 + 4.0 * g;
  return records * (fixed + per_iteration * iterations);
}

// ReleasePlan::Run of the batch spec, re-composed from public calls with
// a stopwatch around each layer. Returns the output digest.
StatusOr<uint64_t> TracedRelease(const BatchState& state,
                                 const release::ReleaseSpec& spec,
                                 BatchLayers* layers) {
  const Dataset& data = state.data;
  const size_t threads = spec.execution.num_threads;
  BatchPerturbationOptions engine_options;
  engine_options.seed = spec.execution.seed;
  engine_options.num_threads = threads;
  engine_options.shard_size = spec.execution.shard_size;
  engine_options.rng = spec.execution.rng;
  const BatchPerturbationEngine engine(engine_options);

  // The options release::MakeMechanism derives from the spec.
  RrClustersOptions options;
  options.keep_probability = spec.budget.keep_probability;
  options.clustering = spec.mechanism.clustering;
  options.dependence_source = spec.mechanism.dependence_source;
  options.dependence_keep_probability = spec.budget.dependence_keep_probability;
  options.use_paper_epsilon_formula = spec.mechanism.use_paper_epsilon_formula;
  const uint64_t lu_before = linalg::LuFactorizationCount();

  // Dependence assessment, seeded from the engine's serial stream 0.
  Rng serial = RngStreamFamily(engine_options.seed).Stream(0);
  DependenceEstimatorOptions assessment;
  assessment.rng = engine_options.rng;
  assessment.sharding.num_threads = threads;
  assessment.sharding.record_chunk_size = engine_options.shard_size;
  StatusOr<DependenceEstimate> dependences = Timed(&layers->assess, [&] {
    return AssessDependencesSharded(data, options, serial, assessment);
  });
  if (!dependences.ok()) return dependences.status();

  // Algorithm 1.
  StatusOr<AttributeClustering> clustering = Timed(&layers->cluster, [&] {
    return ClusterAttributes(data, dependences->dependences,
                             options.clustering);
  });
  if (!clustering.ok()) return clustering.status();
  const AttributeClustering& clusters = *clustering;

  RrClustersResult result;
  result.clusters = clusters;
  result.dependences = dependences->dependences;
  result.dependence_epsilon = dependences->epsilon;
  Timed(&layers->assemble, [&] { result.randomized = data; });

  // Joint perturbation per cluster at the engine's address: cluster c
  // draws the streams of oracle column c.
  std::vector<RrJointPerturbation> perturbations;
  for (size_t c = 0; c < clusters.size(); ++c) {
    const double budget =
        ClusterEpsilonBudget(data, clusters[c], options.keep_probability,
                             options.use_paper_epsilon_formula);
    ColumnPerturber perturber = [&engine, c](const RrMatrix& matrix,
                                             const std::vector<uint32_t>& codes,
                                             size_t /*column_index*/) {
      OracleColumnResult column =
          engine.RunOracle(DirectEncodingOracle(matrix), codes, c);
      return PerturbedColumn{std::move(column.codes),
                             std::move(column.lambda)};
    };
    StatusOr<RrJointPerturbation> perturbation = Timed(&layers->perturb, [&] {
      return PerturbRrJoint(data, clusters[c], budget, perturber);
    });
    if (!perturbation.ok()) return perturbation.status();
    layers->max_cluster_domain = std::max<uint64_t>(
        layers->max_cluster_domain, perturbation->domain.size());
    perturbations.push_back(std::move(perturbation).value());
  }

  // Eq. (2) estimation with RunRrClustersWith's worker split.
  const size_t k = clusters.size();
  std::vector<StatusOr<RrJointResult>> estimated(
      k, Status::Internal("cluster estimation did not run"));
  Timed(&layers->estimate, [&] {
    if (k == 1) {
      estimated[0] = EstimateRrJoint(std::move(perturbations[0]),
                                     EstimationOptions{threads});
      return;
    }
    const size_t outer = ResolveWorkerCount(threads, k, 1);
    const size_t total = ResolveWorkerCount(
        threads, std::numeric_limits<size_t>::max(), 1);
    const size_t inner = std::max<size_t>(1, total / outer);
    ParallelChunks(k, 1, threads,
                   [&](size_t, size_t, size_t begin, size_t end) {
                     for (size_t c = begin; c < end; ++c) {
                       estimated[c] =
                           EstimateRrJoint(std::move(perturbations[c]),
                                           EstimationOptions{inner});
                     }
                   });
  });

  // Composite-code decode back to attribute columns, cluster by cluster,
  // then the per-attribute marginals of each cluster's joint estimate.
  std::vector<std::vector<double>> marginals(data.num_attributes());
  for (size_t c = 0; c < k; ++c) {
    if (!estimated[c].ok()) return estimated[c].status();
    RrJointResult joint = std::move(estimated[c]).value();
    result.release_epsilon += joint.epsilon;
    Timed(&layers->decode, [&] {
      for (size_t position = 0; position < clusters[c].size(); ++position) {
        result.randomized.SetColumn(
            clusters[c][position],
            DecodeColumnSharded(joint.domain, joint.randomized_codes, position,
                                kDecodeChunkSize, threads));
      }
    });
    Timed(&layers->estimate, [&] {
      for (size_t position = 0; position < clusters[c].size(); ++position) {
        marginals[clusters[c][position]] =
            joint.domain.MarginalizeTo(joint.estimated, position);
      }
    });
    result.cluster_results.push_back(std::move(joint));
  }

  // Algorithm 2 over one group per cluster.
  AdjustmentOptions adjustment_options;
  adjustment_options.max_iterations = spec.adjustment.max_iterations;
  adjustment_options.tolerance = spec.adjustment.tolerance;
  StatusOr<AdjustmentResult> adjusted = Timed(&layers->adjust, [&] {
    return engine.RunAdjustment(GroupsFromClusters(result), data.num_rows(),
                                adjustment_options);
  });
  if (!adjusted.ok()) return adjusted.status();

  // Synthetic microdata from the cluster estimates.
  const int64_t n = spec.synthetic.records > 0
                        ? spec.synthetic.records
                        : static_cast<int64_t>(data.num_rows());
  StatusOr<Dataset> synthetic = Timed(&layers->synthesize, [&] {
    return engine.SynthesizeClusters(result, n);
  });
  if (!synthetic.ok()) return synthetic.status();

  layers->iterations = adjusted->iterations;
  layers->clusters = k;
  layers->lu_factorizations = linalg::LuFactorizationCount() - lu_before;
  return Digest(result.randomized, marginals, adjusted->weights, *synthetic);
}

}  // namespace

WorkloadResult RunBatchClustersAdjust(const RunConfig& config) {
  WorkloadResult result;
  const size_t n = kRecords / config.shrink;
  const size_t seeds = std::min(kSeeds, config.engine_seeds.size());
  const release::ReleaseSpec spec =
      MakeSpec(config.threads, config.engine_seeds[0]);

  // Set-up: synthesize, plan every seed at both widths, one warm-up
  // release.
  std::unique_ptr<BatchState> state;
  std::vector<double> setup_s, synthesize_s, plan_s;
  SeedReferences references(seeds);
  for (int k = 0; k < config.setups; ++k) {
    state.reset();
    Stopwatch setup;
    state = std::make_unique<BatchState>();
    double synthesize = 0.0, plan = 0.0;
    state->data = Timed(&synthesize, [&] {
      return SynthesizeAdult(n, config.data_seed);
    });
    state->truth = TrueMarginals(state->data, 0, n);
    for (size_t s = 0; s < seeds; ++s) {
      StatusOr<release::ReleasePlan> planned = Timed(&plan, [&] {
        return release::ReleasePlanner::Plan(
            MakeSpec(config.threads, config.engine_seeds[s]), &state->data);
      });
      StatusOr<release::ReleasePlan> planned_single =
          release::ReleasePlanner::Plan(MakeSpec(1, config.engine_seeds[s]),
                                        &state->data);
      if (!planned.ok() || !planned_single.ok()) {
        result.Record("plan: " + (planned.ok() ? planned_single.status()
                                               : planned.status())
                                     .ToString());
        return result;
      }
      state->plans.push_back(std::move(planned).value());
      state->plans_single.push_back(std::move(planned_single).value());
    }
    double warmup_s = 0.0, tv = 0.0;
    uint64_t digest = 0;
    std::string error =
        RunRelease(state->plans[0], state->truth, &warmup_s, &digest, &tv);
    result.Record(error.empty() ? references.Check(0, digest, tv) : error);
    if (result.failed > 0) return result;
    setup_s.push_back(setup.Seconds());
    synthesize_s.push_back(synthesize);
    plan_s.push_back(plan / static_cast<double>(seeds));
  }

  // One release at seed `s`, checked against that seed's reference.
  auto checked_release = [&](const release::ReleasePlan& plan, size_t s) {
    double seconds = 0.0, tv = 0.0;
    uint64_t digest = 0;
    std::string error =
        RunRelease(plan, state->truth, &seconds, &digest, &tv);
    result.Record(error.empty() ? references.Check(s, digest, tv) : error);
    return seconds;
  };

  if (!config.trace) {
    // Each width walks the seeds in order, so seed s runs at both widths
    // once both have made s + 1 releases.
    size_t next[2] = {0, 0};
    std::vector<std::vector<double>> samples =
        ClosedLoop(config.seconds, 0.5, seeds, 3, [&](bool single) {
          const size_t s = next[single ? 1 : 0]++ % seeds;
          return checked_release(
              single ? state->plans_single[s] : state->plans[s], s);
        });
    // The traced composition must reproduce the release bit for bit.
    BatchLayers layers;
    StatusOr<uint64_t> traced = TracedRelease(*state, spec, &layers);
    result.Record(!traced.ok() ? traced.status().ToString()
                  : *traced != references.digest(0)
                      ? "traced composition digest differs from the release"
                      : "");
    result.Set("setup_s", Median(setup_s));
    result.Set("records_per_s", static_cast<double>(n) / Median(samples[0]));
    result.Set("records_per_s_1t",
               static_cast<double>(n) / Median(samples[1]));
    result.Set("marginal_tv", references.MeanTv());
    return result;
  }

  // Traced: alternate the untraced release (the wall the layers must
  // explain) with the traced composition of the same inputs.
  std::vector<BatchLayers> traced;
  std::vector<double> layer_sums;
  std::vector<std::vector<double>> samples =
      ClosedLoop(config.seconds, 0.5, 3, 3, [&](bool trace) {
        if (!trace) return checked_release(state->plans[0], 0);
        BatchLayers layers;
        StatusOr<uint64_t> digest = TracedRelease(*state, spec, &layers);
        result.Record(!digest.ok() ? digest.status().ToString()
                      : *digest != references.digest(0)
                          ? "traced composition digest differs from the "
                            "release"
                          : "");
        traced.push_back(layers);
        layer_sums.push_back(layers.Sum());
        return layers.Sum();
      });
  auto median_of = [&](double BatchLayers::*field) {
    std::vector<double> values;
    for (const BatchLayers& layers : traced) values.push_back(layers.*field);
    return Median(values);
  };
  const double wall = Median(samples[0]);
  const Attribution attribution = Explain(Median(layer_sums), wall);
  const BatchLayers& last = traced.back();
  const double adjust_s = median_of(&BatchLayers::adjust);
  result.Set("dataset.synthesize_s", Median(synthesize_s));
  result.Set("release.plan_s", Median(plan_s));
  result.Set("release.wall_s", wall);
  result.Set("release.coverage", attribution.coverage);
  result.Set("release.unaccounted_s", attribution.unaccounted_seconds);
  result.Set("core.assess_s", median_of(&BatchLayers::assess));
  result.Set("core.cluster_s", median_of(&BatchLayers::cluster));
  result.Set("core.clusters", static_cast<double>(last.clusters));
  result.Set("core.max_cluster_domain",
             static_cast<double>(last.max_cluster_domain));
  result.Set("dataset.assemble_s", median_of(&BatchLayers::assemble));
  result.Set("core.perturb_s", median_of(&BatchLayers::perturb));
  result.Set("core.estimate_s", median_of(&BatchLayers::estimate));
  result.Set("linalg.lu_factorizations",
             static_cast<double>(last.lu_factorizations));
  result.Set("dataset.decode_s", median_of(&BatchLayers::decode));
  result.Set("core.adjust_s", adjust_s);
  result.Set("core.adjust_iterations", last.iterations);
  result.Set("core.adjust_s_per_iter",
             last.iterations > 0 ? adjust_s / last.iterations : 0.0);
  result.Set("core.adjust_gbps_computed",
             adjust_s > 0.0
                 ? AdjustmentBytes(last.clusters, n, last.iterations) /
                       adjust_s / 1e9
                 : 0.0);
  result.Set("core.synthesize_s", median_of(&BatchLayers::synthesize));
  return result;
}

}  // namespace mdrr::perfbench
