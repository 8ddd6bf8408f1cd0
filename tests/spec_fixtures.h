// Shared ReleaseSpec fixtures for the serialization tests.

#ifndef MDRR_TESTS_SPEC_FIXTURES_H_
#define MDRR_TESTS_SPEC_FIXTURES_H_

#include "mdrr/release/spec.h"

namespace mdrr {

// A spec whose printed text carries every key: a CSV path with a space,
// a non-default frequency-oracle section with its epsilon, the
// distributed worker trio, all three output paths, two adjustment groups,
// and negative values in the signed fields. Validation would reject it
// (it mixes contradictory sections); it exists to pin the printer.
inline release::ReleaseSpec FullyPrintedSpec() {
  release::ReleaseSpec spec;
  spec.dataset.source = release::DatasetSpec::Source::kCsvFile;
  spec.dataset.csv_path = "/data/adult census.csv";
  spec.dataset.csv_has_header = false;
  spec.dataset.synthetic_records = 777;
  spec.dataset.synthetic_seed = 123456789;
  spec.budget.keep_probability = 0.55;
  spec.budget.dependence_keep_probability = 0.91;
  spec.budget.max_total_epsilon = 12.75;
  spec.mechanism.kind = release::MechanismKind::kGeometricOrdinal;
  spec.mechanism.joint_attributes = {4, 6, 7};
  spec.mechanism.clustering = ClusteringOptions{123.0, 0.25};
  spec.mechanism.dependence_source = DependenceSource::kPairwiseRr;
  spec.mechanism.use_paper_epsilon_formula = true;
  spec.mechanism.geometric_epsilon = 0.8;
  spec.frequency_oracle.backend = OracleBackend::kLocalHashing;
  spec.frequency_oracle.epsilon = 1.5;
  spec.adjustment.enabled = true;
  spec.adjustment.max_iterations = -3;
  spec.adjustment.tolerance = 1e-7;
  spec.adjustment.groups = {{0}, {3, 1}};
  spec.synthetic.enabled = true;
  spec.synthetic.records = -5;
  spec.evaluation.utility_report = true;
  spec.evaluation.sigmas = {0.2, 0.4};
  spec.evaluation.queries_per_sigma = -9;
  spec.evaluation.seed = 99;
  spec.streaming.enabled = true;
  spec.streaming.window_kind = release::WindowKind::kSliding;
  spec.streaming.window_size = 400;
  spec.streaming.window_stride = 200;
  spec.streaming.window_epsilon = 2.5;
  spec.streaming.max_windows = 12;
  spec.execution.kind = release::PolicyKind::kDistributed;
  spec.execution.seed = 31337;
  spec.execution.num_threads = 6;
  spec.execution.shard_size = 4096;
  spec.execution.rng = RngKind::kPhilox;
  spec.execution.num_workers = 3;
  spec.execution.listen_port = 7117;
  spec.execution.worker_deadline_ms = -250;
  spec.output.randomized_csv = "/out/y.csv";
  spec.output.synthetic_csv = "/out/s.csv";
  spec.output.artifacts_path = "/out/a.txt";
  return spec;
}

}  // namespace mdrr

#endif  // MDRR_TESTS_SPEC_FIXTURES_H_
