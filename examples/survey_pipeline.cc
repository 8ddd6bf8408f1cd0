// A full multi-attribute local-anonymization pipeline on Adult-style
// microdata -- the workload the paper's introduction motivates:
//
//   1. n individuals each hold one 8-attribute record;
//   2. attribute dependences are assessed (Section 4.1 per-attribute
//      RR), attributes are clustered (Algorithm 1), and each individual
//      publishes cluster-wise randomized responses (RR-Joint per
//      cluster at the Section 6.3.2 calibration);
//   3. the controller repairs cross-cluster structure with
//      RR-Adjustment (Algorithm 2) and answers count queries;
//   4. the total privacy cost is reported by sequential composition.
//
// All of it is one declarative ReleaseSpec: the clusters mechanism with
// adjustment enabled, planned and executed by ReleasePlanner. The
// artifacts carry the clustering, the adjusted weights, and the ledger.
//
// Build & run:  ./build/example_survey_pipeline

#include <cstdio>

#include "mdrr/common/flags.h"
#include "mdrr/core/privacy.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/eval/metrics.h"
#include "mdrr/release/planner.h"

int main(int argc, char** argv) {
  mdrr::ParseFlagsOrExit(argc, argv, {});  // Takes no flags.
  // The true microdata, held in shards of one record per individual.
  mdrr::Dataset survey = mdrr::SynthesizeAdult(32561, 42);
  std::printf("survey: %zu respondents x %zu attributes\n",
              survey.num_rows(), survey.num_attributes());

  // Steps 2-3, declaratively: dependence assessment + clustering +
  // cluster-wise RR + Algorithm 2 adjustment under one spec.
  mdrr::release::ReleaseSpec spec;
  spec.mechanism.kind = mdrr::release::MechanismKind::kClusters;
  spec.mechanism.clustering = mdrr::ClusteringOptions{50.0, 0.1};
  spec.mechanism.dependence_source =
      mdrr::DependenceSource::kRandomizedResponse;
  spec.budget.keep_probability = 0.7;
  spec.budget.dependence_keep_probability = 0.7;
  spec.adjustment.enabled = true;
  spec.execution.seed = 2024;

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
  const mdrr::release::ReleaseArtifacts& a = artifacts.value();
  std::printf("clusters: %s\n",
              mdrr::ClusteringToString(survey, a.clustering).c_str());

  // The artifacts' best estimator (adjusted weights, since adjustment
  // ran) answers analyst queries.
  auto estimate = mdrr::release::MakeJointEstimate(a);
  if (!estimate.ok()) {
    std::fprintf(stderr, "estimator failed: %s\n",
                 estimate.status().ToString().c_str());
    return 1;
  }

  struct NamedQuery {
    const char* description;
    mdrr::CountQuery query;
  };
  const uint32_t married = 0;   // Married-civ-spouse.
  const uint32_t husband = 2;   // Relationship = Husband.
  const uint32_t high_income = 1;
  std::vector<NamedQuery> queries = {
      {"married husbands",
       {{mdrr::kAdultMaritalStatus, mdrr::kAdultRelationship},
        {{married, husband}}}},
      {"high-income married",
       {{mdrr::kAdultMaritalStatus, mdrr::kAdultIncome},
        {{married, high_income}}}},
      {"female + high income",
       {{mdrr::kAdultSex, mdrr::kAdultIncome}, {{0, high_income}}}},
  };

  mdrr::EmpiricalCounts truth(survey);
  std::printf("\n%-24s %10s %12s %10s\n", "query", "true", "estimated",
              "rel err");
  for (const NamedQuery& nq : queries) {
    double t = truth.EstimateCount(nq.query);
    double e = estimate.value()->EstimateCount(nq.query);
    std::printf("%-24s %10.0f %12.1f %10.4f\n", nq.description, t, e,
                mdrr::eval::RelativeError(e, t));
  }

  // Step 4: privacy ledger, straight from the artifacts.
  mdrr::PrivacyAccountant accountant;
  accountant.Spend("dependence assessment (Sec 4.1)", a.dependence_epsilon);
  accountant.Spend("cluster-wise RR release", a.release_epsilon);
  std::printf("\nprivacy ledger:\n%s", accountant.Report().c_str());
  std::printf(
      "note: RR-Adjustment post-processes the randomized data only, so it\n"
      "adds no privacy cost (Section 5).\n");
  return 0;
}
