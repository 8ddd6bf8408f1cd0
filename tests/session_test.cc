#include <sys/resource.h>

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/estimator.h"
#include "mdrr/core/privacy.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/protocol/session.h"
#include "mdrr/rng/rng.h"
#include "session_reference.h"

namespace mdrr::protocol {
namespace {

Dataset MakeCorrelatedDataset(size_t n, uint64_t seed) {
  std::vector<Attribute> schema = {
      Attribute{"A", AttributeType::kNominal, {"0", "1", "2"}},
      Attribute{"B", AttributeType::kNominal, {"0", "1", "2"}},
      Attribute{"C", AttributeType::kNominal, {"0", "1"}},
  };
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> cols(3);
  for (size_t i = 0; i < n; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.Discrete({0.5, 0.3, 0.2}));
    uint32_t b =
        rng.Bernoulli(0.85) ? a : static_cast<uint32_t>(rng.UniformInt(3));
    cols[0].push_back(a);
    cols[1].push_back(b);
    cols[2].push_back(static_cast<uint32_t>(rng.UniformInt(2)));
  }
  return Dataset(schema, std::move(cols));
}

TEST(PartyTest, PublishesValidCodes) {
  Party party({1, 2}, 7);
  std::vector<RrMatrix> matrices = {RrMatrix::KeepUniform(3, 0.5),
                                    RrMatrix::KeepUniform(4, 0.5)};
  std::vector<uint32_t> published = party.PublishIndependent(matrices);
  ASSERT_EQ(published.size(), 2u);
  EXPECT_LT(published[0], 3u);
  EXPECT_LT(published[1], 4u);
}

TEST(PartyTest, ClusterPublicationEncodesJointly) {
  Party party({1, 2}, 11);
  AttributeClustering clusters = {{0, 1}};
  std::vector<Domain> domains = {Domain({3, 4})};
  // Identity matrix: the publication must be the exact composite code.
  std::vector<RrMatrix> matrices = {RrMatrix::KeepUniform(12, 1.0)};
  std::vector<uint32_t> published =
      party.PublishClusters(clusters, domains, matrices);
  ASSERT_EQ(published.size(), 1u);
  EXPECT_EQ(published[0], domains[0].Encode({1, 2}));
}

TEST(SessionTest, EndToEndOnCorrelatedData) {
  Dataset ds = MakeCorrelatedDataset(60000, 3);
  SessionOptions options;
  options.keep_probability = 0.8;
  options.round1_keep_probability = 0.8;
  options.clustering = ClusteringOptions{20.0, 0.1};
  options.seed = 5;

  auto session = RunDistributedSession(ds, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // A and B must cluster (their dependence survives round 1 at p = 0.8).
  ASSERT_GE(session.value().clusters.size(), 1u);
  bool ab_together = false;
  for (const auto& cluster : session.value().clusters) {
    if (cluster == std::vector<size_t>{0, 1}) ab_together = true;
  }
  EXPECT_TRUE(ab_together);

  // The cluster joint estimate approximates the true joint.
  for (size_t c = 0; c < session.value().clusters.size(); ++c) {
    if (session.value().clusters[c] != std::vector<size_t>{0, 1}) continue;
    const Domain& domain = session.value().cluster_domains[c];
    std::vector<double> truth(domain.size(), 0.0);
    for (size_t i = 0; i < ds.num_rows(); ++i) {
      truth[domain.Encode({ds.at(i, 0), ds.at(i, 1)})] +=
          1.0 / static_cast<double>(ds.num_rows());
    }
    for (size_t k = 0; k < truth.size(); ++k) {
      EXPECT_NEAR(session.value().cluster_joints[c][k], truth[k], 0.03)
          << "cell " << k;
    }
  }
}

TEST(SessionTest, MessageAccounting) {
  Dataset ds = MakeCorrelatedDataset(500, 7);
  SessionOptions options;
  options.clustering = ClusteringOptions{20.0, 0.1};
  auto session = RunDistributedSession(ds, options);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value().messages_round1, 500u);
  EXPECT_EQ(session.value().messages_broadcast, 500u);
  EXPECT_EQ(session.value().messages_round2, 500u);
}

TEST(SessionTest, EpsilonMatchesColumnLevelProtocol) {
  Dataset ds = MakeCorrelatedDataset(2000, 11);
  SessionOptions options;
  options.keep_probability = 0.5;
  options.round1_keep_probability = 0.6;
  options.clustering = ClusteringOptions{20.0, 0.1};
  auto session = RunDistributedSession(ds, options);
  ASSERT_TRUE(session.ok());

  // Round 1 epsilon: sum of per-attribute KeepUniform epsilons at 0.6.
  double expected_round1 = KeepUniformEpsilon(3, 0.6) * 2 +
                           KeepUniformEpsilon(2, 0.6);
  EXPECT_NEAR(session.value().round1_epsilon, expected_round1, 1e-9);

  // Round 2 epsilon: sum over clusters of the Section 6.3.2 budgets.
  double expected_round2 = 0.0;
  for (const auto& cluster : session.value().clusters) {
    expected_round2 += ClusterEpsilonBudget(ds, cluster, 0.5);
  }
  EXPECT_NEAR(session.value().round2_epsilon, expected_round2, 1e-6);
}

TEST(SessionTest, DeterministicInSeed) {
  Dataset ds = MakeCorrelatedDataset(1000, 13);
  SessionOptions options;
  options.clustering = ClusteringOptions{20.0, 0.1};
  options.seed = 42;
  auto a = RunDistributedSession(ds, options);
  auto b = RunDistributedSession(ds, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().clusters, b.value().clusters);
  for (size_t j = 0; j < ds.num_attributes(); ++j) {
    EXPECT_EQ(a.value().randomized.column(j), b.value().randomized.column(j));
  }
}

TEST(SessionTest, RejectsEmptySession) {
  Dataset empty({Attribute{"A", AttributeType::kNominal, {"x", "y"}}},
                {std::vector<uint32_t>()});
  EXPECT_FALSE(RunDistributedSession(empty, SessionOptions{}).ok());
}

TEST(SessionTest, MarginalsRecoveredOnAdultSample) {
  Dataset adult = SynthesizeAdult(20000, 17);
  SessionOptions options;
  options.keep_probability = 0.8;
  options.clustering = ClusteringOptions{50.0, 0.1};
  auto session = RunDistributedSession(adult, options);
  ASSERT_TRUE(session.ok());

  // Marginalize each cluster joint back to single attributes and compare
  // with the true marginals.
  for (size_t c = 0; c < session.value().clusters.size(); ++c) {
    const auto& members = session.value().clusters[c];
    for (size_t position = 0; position < members.size(); ++position) {
      std::vector<double> estimated =
          session.value().cluster_domains[c].MarginalizeTo(
              session.value().cluster_joints[c], position);
      std::vector<double> truth = EmpiricalDistribution(
          adult.column(members[position]),
          adult.attribute(members[position]).cardinality());
      for (size_t v = 0; v < truth.size(); ++v) {
        EXPECT_NEAR(estimated[v], truth[v], 0.05)
            << "attribute " << members[position] << " value " << v;
      }
    }
  }
}

// The session keeps a seed per party, not an engine: a party's round-2
// engine is re-seeded and replays round 1. Kept mt19937_64 engines would
// cost ~2.5 KB per party; records, seeds and the published columns cost
// about a hundred bytes.
TEST(SessionTest, PartyStateDoesNotScaleWithEngines) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__linux__)
  GTEST_SKIP() << "RSS is measured on plain Linux builds only (sanitizer "
                  "allocators and shadow memory change it)";
#endif
  const size_t n = 200000;
  Dataset adult = SynthesizeAdult(n, 23);
  SessionOptions options;
  options.clustering = ClusteringOptions{50.0, 0.1};
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  auto session = RunDistributedSession(adult, options);
  ASSERT_TRUE(session.ok());
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  // ru_maxrss is the peak resident set in kilobytes on Linux.
  const double growth_kb =
      static_cast<double>(after.ru_maxrss - before.ru_maxrss);
  EXPECT_LT(growth_kb / static_cast<double>(n), 1.0)
      << "peak RSS grew " << growth_kb << " KB over " << n << " parties";
}

}  // namespace
}  // namespace mdrr::protocol
