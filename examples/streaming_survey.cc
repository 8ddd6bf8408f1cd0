// A live survey on the always-on streaming collector: reports arrive
// continuously, the collector counts them into tumbling windows, and
// every completed window re-runs the Eq. (2) closed forms on merged
// counts to publish one estimation summary -- records are touched once,
// at ingest, and every release afterwards is pure count arithmetic.
//
// Each released window charges its design epsilon against the spec's
// total budget. The example sizes the budget to afford four of the five
// windows, so the last one demonstrates the fail-closed degraded mode:
// counting continues, publication stops.
//
// The transcript printed here is bit-identical for ANY ingest thread
// count -- rerun with a different `kIngestThreads` to check. The
// service version of this loop (pause, snapshot, resume, verify) is
// tools/mdrr_collectd.cc.
//
// Build & run:  ./build/example_streaming_survey

#include <cstdio>

#include "mdrr/common/flags.h"
#include "mdrr/protocol/stream_ingest.h"
#include "mdrr/release/serialization.h"
#include "mdrr/rng/rng.h"

int main(int argc, char** argv) {
  mdrr::ParseFlagsOrExit(argc, argv, {});  // Takes no flags.
  // Four-category sensitive attribute (say, substance-use frequency).
  const std::vector<double> true_distribution = {0.70, 0.17, 0.09, 0.04};
  const double keep_probability = 0.55;
  const size_t kIngestThreads = 4;

  // The population: 25k respondents drawn from the true distribution.
  // They arrive in sequence order; the collector sees only the
  // randomized reports the replay perturbs party-side.
  mdrr::Attribute frequency;
  frequency.name = "frequency";
  frequency.categories = {"never", "monthly", "weekly", "daily"};
  std::vector<uint32_t> truths;
  mdrr::Rng rng(13);
  for (int i = 0; i < 25000; ++i) {
    truths.push_back(static_cast<uint32_t>(rng.Discrete(true_distribution)));
  }
  mdrr::Dataset survey({frequency}, {truths});

  mdrr::release::ReleaseSpec spec;
  spec.mechanism.kind = mdrr::release::MechanismKind::kIndependent;
  spec.budget.keep_probability = keep_probability;
  spec.budget.max_total_epsilon = 7.2;  // Affords 4 windows of ~1.77 each.
  spec.streaming.enabled = true;
  spec.streaming.window_size = 5000;
  spec.execution.seed = 14;

  mdrr::protocol::StreamingReplayOptions options;
  options.num_ingest_threads = kIngestThreads;
  options.collector.num_shards = 2;
  auto run = mdrr::protocol::RunStreamingReplay(spec, survey, options);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const auto& result = run.value();

  std::printf("streamed %llu reports through %zu ingest threads\n\n",
              static_cast<unsigned long long>(result.reports_ingested),
              kIngestThreads);
  std::printf("%8s  %16s  %26s\n", "window", "sequences",
              "estimate ('daily') / status");
  for (const mdrr::release::StreamWindow& window : result.windows) {
    if (window.released) {
      std::printf("%8llu  %7llu..%-7llu  %10.4f  (epsilon %.3f)\n",
                  static_cast<unsigned long long>(window.index),
                  static_cast<unsigned long long>(window.begin_sequence),
                  static_cast<unsigned long long>(window.end_sequence),
                  window.artifacts.marginal_estimates[0][3], window.epsilon);
    } else {
      std::printf("%8llu  %7llu..%-7llu  %10s  (budget exhausted)\n",
                  static_cast<unsigned long long>(window.index),
                  static_cast<unsigned long long>(window.begin_sequence),
                  static_cast<unsigned long long>(window.end_sequence),
                  "SUPPRESSED");
    }
  }
  std::printf("\ntrue value of 'daily': %.4f\n", true_distribution[3]);
  std::printf("epsilon spent %.3f of budget %.1f -- the suppressed window "
              "kept counting but published nothing\n",
              result.epsilon_spent, spec.budget.max_total_epsilon);

  // The archived spec: anyone can replay the identical window sequence
  // from this text (mdrr_cli run --spec=... or mdrr_collectd --spec=...).
  std::printf("\narchived spec:\n%s",
              mdrr::release::PrintReleaseSpec(spec).c_str());
  return 0;
}
