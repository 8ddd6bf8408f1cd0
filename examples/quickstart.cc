// Quickstart: the classic single-question randomized response survey,
// run through the declarative release API.
//
// A controller asks n respondents a sensitive yes/no question and wants
// an unbiased estimate of the true "yes" rate without ever seeing a
// truthful answer. Instead of wiring protocol stages by hand, the
// controller writes down a ReleaseSpec -- mechanism, privacy budget,
// execution policy -- and lets ReleasePlanner validate, lower, and run
// it. The same spec, serialized (release/serialization.h), reproduces
// the release anywhere.
//
// Build & run:  ./build/example_quickstart

#include <cstdio>

#include "mdrr/common/flags.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/release/planner.h"
#include "mdrr/rng/rng.h"

int main(int argc, char** argv) {
  mdrr::ParseFlagsOrExit(argc, argv, {});  // Takes no flags.
  const size_t n = 20000;
  const double true_yes_rate = 0.13;  // What the controller cannot see.

  // The survey data: one sensitive yes/no attribute, one record per
  // respondent. (In production this is the collected file; here we
  // simulate the population.)
  mdrr::Attribute answer;
  answer.name = "answer";
  answer.categories = {"no", "yes"};
  mdrr::Rng population(7);
  std::vector<uint32_t> truths(n);
  for (uint32_t& value : truths) {
    value = population.Bernoulli(true_yes_rate) ? 1 : 0;
  }
  mdrr::Dataset survey({answer}, {truths});

  // The whole release, declaratively: per-attribute RR (Protocol 1) at
  // keep probability 0.5, sequential reference execution at seed 7.
  mdrr::release::ReleaseSpec spec;
  spec.mechanism.kind = mdrr::release::MechanismKind::kIndependent;
  spec.budget.keep_probability = 0.5;
  spec.execution.seed = 7;

  auto plan = mdrr::release::ReleasePlanner::Plan(spec, &survey);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  auto artifacts = plan.value().Run();
  if (!artifacts.ok()) {
    std::fprintf(stderr, "release failed: %s\n",
                 artifacts.status().ToString().c_str());
    return 1;
  }

  // The controller reads everything off the artifacts: the observed
  // (biased) rate, the Eq. (2) estimate, and the privacy ledger.
  const mdrr::release::ReleaseArtifacts& a = artifacts.value();
  std::printf("respondents:              %zu\n", n);
  std::printf("observed 'yes' rate:      %.4f  (biased by randomization)\n",
              a.independent->lambda[0][1]);
  std::printf("estimated true rate:      %.4f\n", a.marginal_estimates[0][1]);
  std::printf("actual true rate:         %.4f  (for reference only)\n",
              true_yes_rate);
  std::printf("differential privacy:     eps = %.3f per respondent\n",
              a.total_epsilon());
  return 0;
}
