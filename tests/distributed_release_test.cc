// Integration suite for the distributed release: at a fixed (seed,
// shard_size, rng) the coordinator/worker pipeline must produce the
// EXACT artifacts of the in-process sharded engine -- released data,
// marginals, epsilons, adjustment weights, synthetic data -- for 1, 2,
// and 4 worker processes and for both RNG policies. Plus the failure
// contract (fail-closed on disconnect and deadline, no partial
// transcript), the spec surface, and the collectd socket ingest path.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/clustering.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/net/coordinator.h"
#include "mdrr/net/frame.h"
#include "mdrr/net/protocol.h"
#include "mdrr/net/socket.h"
#include "mdrr/net/worker.h"
#include "mdrr/protocol/net_ingest.h"
#include "mdrr/protocol/stream_ingest.h"
#include "mdrr/release/planner.h"
#include "mdrr/release/serialization.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

namespace release = ::mdrr::release;
namespace net = ::mdrr::net;
namespace protocol = ::mdrr::protocol;

constexpr uint64_t kSeed = 17;
constexpr size_t kRecords = 2000;
constexpr size_t kShard = 256;  // Many shards at 2000 records.
constexpr char kLoopback[] = "127.0.0.1";

Dataset TestData() { return SynthesizeAdult(kRecords, /*seed=*/5); }

release::ReleaseSpec BaseSpec(release::MechanismKind kind, RngKind rng) {
  release::ReleaseSpec spec;
  spec.mechanism.kind = kind;
  spec.budget.keep_probability = 0.6;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  spec.execution.seed = kSeed;
  spec.execution.shard_size = kShard;
  spec.execution.rng = rng;
  return spec;
}

void ExpectSameData(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    EXPECT_EQ(a.column(j), b.column(j)) << "column " << j;
  }
}

// Byte-for-byte equality of everything the release publishes.
void ExpectSameArtifacts(const release::ReleaseArtifacts& a,
                         const release::ReleaseArtifacts& b) {
  ExpectSameData(a.randomized, b.randomized);
  EXPECT_EQ(a.marginal_estimates, b.marginal_estimates);
  EXPECT_EQ(a.release_epsilon, b.release_epsilon);
  EXPECT_EQ(a.dependence_epsilon, b.dependence_epsilon);
  EXPECT_EQ(ClusteringToString(a.randomized, a.clustering),
            ClusteringToString(b.randomized, b.clustering));
  ASSERT_EQ(a.adjustment.has_value(), b.adjustment.has_value());
  if (a.adjustment.has_value()) {
    EXPECT_EQ(a.adjustment->weights, b.adjustment->weights);
    EXPECT_EQ(a.adjustment->iterations, b.adjustment->iterations);
  }
  ASSERT_EQ(a.synthetic.has_value(), b.synthetic.has_value());
  if (a.synthetic.has_value()) ExpectSameData(*a.synthetic, *b.synthetic);
}

release::ReleaseArtifacts MustRun(const release::ReleaseSpec& spec,
                                  const Dataset& data) {
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto artifacts = plan.value().Run();
  EXPECT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  return std::move(artifacts).value();
}

// Runs the spec distributed over `num_workers` in-process worker
// threads through a caller-hosted coordinator (ephemeral port).
release::ReleaseArtifacts MustRunDistributed(release::ReleaseSpec spec,
                                             const Dataset& data,
                                             size_t num_workers) {
  spec.execution.kind = release::PolicyKind::kDistributed;
  spec.execution.num_workers = num_workers;
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();

  net::CoordinatorOptions options;
  options.seed = spec.execution.seed;
  options.rng = spec.execution.rng;
  options.shard_size = spec.execution.shard_size;
  net::Coordinator coordinator(options);
  Status bound = coordinator.Listen(0);
  EXPECT_TRUE(bound.ok()) << bound.ToString();
  const uint16_t port = coordinator.port();

  std::vector<Status> worker_status(num_workers);
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers.emplace_back([port, w, &worker_status] {
      worker_status[w] = net::RunWorker(kLoopback, port);
    });
  }
  Status accepted = coordinator.AcceptWorkers(num_workers);
  EXPECT_TRUE(accepted.ok()) << accepted.ToString();

  auto artifacts = plan.value().RunDistributed(coordinator);
  for (std::thread& worker : workers) worker.join();
  EXPECT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  for (size_t w = 0; w < num_workers; ++w) {
    EXPECT_TRUE(worker_status[w].ok())
        << "worker " << w << ": " << worker_status[w].ToString();
  }
  return std::move(artifacts).value();
}

// ---------------------------------------------------------------------------
// The bit-equality contract: distributed == in-process sharded, any
// worker count, both RNG policies, both mechanism families.
// ---------------------------------------------------------------------------

class DistributedEquality : public ::testing::TestWithParam<RngKind> {};

TEST_P(DistributedEquality, IndependentMatchesShardedAt124Workers) {
  Dataset data = TestData();
  release::ReleaseSpec spec =
      BaseSpec(release::MechanismKind::kIndependent, GetParam());
  spec.execution.kind = release::PolicyKind::kSharded;
  spec.execution.num_threads = 4;
  release::ReleaseArtifacts sharded = MustRun(spec, data);

  for (size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    release::ReleaseArtifacts distributed =
        MustRunDistributed(spec, data, workers);
    ExpectSameArtifacts(distributed, sharded);
  }
}

TEST_P(DistributedEquality, ClustersMatchesShardedAt124Workers) {
  Dataset data = TestData();
  release::ReleaseSpec spec =
      BaseSpec(release::MechanismKind::kClusters, GetParam());
  spec.execution.kind = release::PolicyKind::kSharded;
  spec.execution.num_threads = 4;
  release::ReleaseArtifacts sharded = MustRun(spec, data);

  for (size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    release::ReleaseArtifacts distributed =
        MustRunDistributed(spec, data, workers);
    ExpectSameArtifacts(distributed, sharded);
  }
}

// Only dense matrices take the alias path of the shard kernel; the
// geometric-ordinal design is dense, so this case compares the worker's
// dense path against the engine's.
TEST_P(DistributedEquality, GeometricOrdinalMatchesShardedAt124Workers) {
  Dataset data = TestData();
  release::ReleaseSpec spec =
      BaseSpec(release::MechanismKind::kGeometricOrdinal, GetParam());
  spec.mechanism.geometric_epsilon = 1.5;
  spec.execution.kind = release::PolicyKind::kSharded;
  spec.execution.num_threads = 4;
  release::ReleaseArtifacts sharded = MustRun(spec, data);

  for (size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    release::ReleaseArtifacts distributed =
        MustRunDistributed(spec, data, workers);
    ExpectSameArtifacts(distributed, sharded);
  }
}

// The direct frequency-oracle backend at an explicit epsilon runs the
// same per-attribute mechanism as `independent`, so its optimal-design
// matrices reach the workers through the same shard perturber.
TEST_P(DistributedEquality, DirectOracleAtExplicitEpsilonMatchesSharded) {
  Dataset data = TestData();
  release::ReleaseSpec spec =
      BaseSpec(release::MechanismKind::kIndependent, GetParam());
  spec.frequency_oracle.backend = OracleBackend::kDirect;
  spec.frequency_oracle.epsilon = 1.0;
  spec.execution.kind = release::PolicyKind::kSharded;
  spec.execution.num_threads = 4;
  release::ReleaseArtifacts sharded = MustRun(spec, data);

  for (size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    release::ReleaseArtifacts distributed =
        MustRunDistributed(spec, data, workers);
    ExpectSameArtifacts(distributed, sharded);
  }
}

INSTANTIATE_TEST_SUITE_P(BothRngs, DistributedEquality,
                         ::testing::Values(RngKind::kMt19937,
                                           RngKind::kPhilox),
                         [](const auto& info) {
                           return info.param == RngKind::kPhilox ? "philox"
                                                                 : "mt19937";
                         });

// ---------------------------------------------------------------------------
// Spec surface.
// ---------------------------------------------------------------------------

TEST(DistributedSpecTest, DistributedFieldsRoundTripThroughText) {
  release::ReleaseSpec spec =
      BaseSpec(release::MechanismKind::kIndependent, RngKind::kPhilox);
  spec.execution.kind = release::PolicyKind::kDistributed;
  spec.execution.num_workers = 3;
  spec.execution.listen_port = 7117;
  spec.execution.worker_deadline_ms = 2500;
  std::string text = release::PrintReleaseSpec(spec);
  auto parsed = release::ParseReleaseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
  EXPECT_EQ(release::PrintReleaseSpec(parsed.value()), text);
}

TEST(DistributedSpecTest, ValidationRejectsContradictions) {
  Dataset data = TestData();
  release::ReleaseSpec spec =
      BaseSpec(release::MechanismKind::kIndependent, RngKind::kMt19937);

  // Distributed without workers.
  spec.execution.kind = release::PolicyKind::kDistributed;
  spec.execution.num_workers = 0;
  EXPECT_FALSE(release::ReleasePlanner::Plan(spec, &data).ok());

  // Distributed knobs on a non-distributed policy.
  spec.execution.kind = release::PolicyKind::kSharded;
  spec.execution.num_workers = 2;
  EXPECT_FALSE(release::ReleasePlanner::Plan(spec, &data).ok());

  // Streaming and distributed are exclusive.
  spec.execution.kind = release::PolicyKind::kDistributed;
  spec.streaming.enabled = true;
  spec.streaming.window_size = 100;
  EXPECT_FALSE(release::ReleasePlanner::Plan(spec, &data).ok());
}

TEST(DistributedSpecTest, ControllerPlanRejectsDistributed) {
  release::ExecutionPolicy policy;
  policy.kind = release::PolicyKind::kDistributed;
  policy.num_workers = 2;
  EXPECT_FALSE(
      release::ReleasePlanner::PlanController(ClusteringOptions{}, policy)
          .ok());
}

// ---------------------------------------------------------------------------
// Failure contract: fail-closed, never a partial transcript.
// ---------------------------------------------------------------------------

TEST(DistributedFailureTest, AcceptDeadlineExpiresWithoutWorkers) {
  net::CoordinatorOptions options;
  options.deadline_ms = 100;
  net::Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Listen(0).ok());
  Status accepted = coordinator.AcceptWorkers(1);
  EXPECT_FALSE(accepted.ok());
  EXPECT_EQ(accepted.code(), StatusCode::kDeadlineExceeded)
      << accepted.ToString();
}

TEST(DistributedFailureTest, WorkerDisconnectAbortsTheRelease) {
  Dataset data = TestData();
  release::ReleaseSpec spec =
      BaseSpec(release::MechanismKind::kIndependent, RngKind::kMt19937);
  spec.execution.kind = release::PolicyKind::kDistributed;
  spec.execution.num_workers = 1;
  spec.execution.worker_deadline_ms = 2000;
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  net::CoordinatorOptions options;
  options.seed = spec.execution.seed;
  options.rng = spec.execution.rng;
  options.shard_size = spec.execution.shard_size;
  options.deadline_ms = 2000;
  net::Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Listen(0).ok());
  const uint16_t port = coordinator.port();

  // A worker that handshakes correctly, then vanishes before serving
  // any assignment.
  std::thread ghost([port] {
    auto conn = net::TcpConnection::Connect(kLoopback, port, 2000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    Status hello =
        net::ClientHandshake(conn.value(), net::PeerRole::kWorker, 2000);
    EXPECT_TRUE(hello.ok()) << hello.ToString();
    // Destructor closes the socket: the coordinator's next exchange
    // with this worker fails.
  });
  ASSERT_TRUE(coordinator.AcceptWorkers(1).ok());
  ghost.join();

  auto artifacts = plan.value().RunDistributed(coordinator);
  EXPECT_FALSE(artifacts.ok());
  // Poisoned for good: the release cannot be committed afterwards.
  EXPECT_FALSE(coordinator.Commit().ok());
}

TEST(DistributedFailureTest, RogueWorkerCountsAbortTheRelease) {
  Dataset data = TestData();
  release::ReleaseSpec spec =
      BaseSpec(release::MechanismKind::kIndependent, RngKind::kMt19937);
  spec.execution.kind = release::PolicyKind::kDistributed;
  spec.execution.num_workers = 1;
  spec.execution.worker_deadline_ms = 2000;
  // Nothing downstream of the marginals, so only the counts check can
  // stop the release.
  spec.adjustment.enabled = false;
  spec.synthetic.enabled = false;
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  net::CoordinatorOptions options;
  options.seed = spec.execution.seed;
  options.rng = spec.execution.rng;
  options.shard_size = spec.execution.shard_size;
  options.deadline_ms = 2000;
  net::Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Listen(0).ok());
  const uint16_t port = coordinator.port();

  // A worker that returns in-range codes (its true inputs) but claims
  // every report landed in category 0: counts that disagree with the
  // codes beside them. It serves every task until the coordinator hangs
  // up.
  std::thread rogue([port] {
    auto conn = net::TcpConnection::Connect(kLoopback, port, 2000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    ASSERT_TRUE(
        net::ClientHandshake(conn.value(), net::PeerRole::kWorker, 2000).ok());
    for (;;) {
      auto frame = conn.value().RecvFrame(2000);
      if (!frame.ok() || frame->type != net::FrameType::kAssignShards) return;
      auto assign = net::ParseAssignShards(frame->payload);
      ASSERT_TRUE(assign.ok()) << assign.status().ToString();
      net::PartialResultMsg reply;
      reply.task_id = assign->task_id;
      reply.counts.assign(assign->matrix->size(), 0);
      for (const net::ShardAssignment& shard : assign->shards) {
        reply.shards.push_back({shard.shard_index, shard.codes});
        reply.counts[0] += static_cast<int64_t>(shard.codes.size());
      }
      if (!conn.value()
               .SendFrame(net::FrameType::kPartialResult,
                          net::EncodePartialResult(reply), 2000)
               .ok()) {
        return;
      }
    }
  });
  ASSERT_TRUE(coordinator.AcceptWorkers(1).ok());

  auto artifacts = plan.value().RunDistributed(coordinator);
  rogue.join();
  ASSERT_FALSE(artifacts.ok());
  EXPECT_EQ(artifacts.status().code(), StatusCode::kInvalidArgument)
      << artifacts.status().ToString();
  EXPECT_FALSE(coordinator.Commit().ok());
}

TEST(DistributedFailureTest, CoordinatorAddressMismatchAbortsTheRelease) {
  // A coordinator whose seed, rng or shard grain differs from the
  // policy's would hand out other randomness than the sharded release
  // draws; RunDistributed must refuse it by name and abort the workers.
  Dataset data = TestData();
  release::ReleaseSpec spec =
      BaseSpec(release::MechanismKind::kIndependent, RngKind::kMt19937);
  spec.execution.kind = release::PolicyKind::kDistributed;
  spec.execution.num_workers = 1;
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  struct Mismatch {
    const char* field;
    void (*apply)(net::CoordinatorOptions&);
  };
  const Mismatch mismatches[] = {
      {"seed", [](net::CoordinatorOptions& o) { o.seed += 1; }},
      {"rng", [](net::CoordinatorOptions& o) { o.rng = RngKind::kPhilox; }},
      {"shard_size", [](net::CoordinatorOptions& o) { o.shard_size *= 2; }},
  };
  for (const Mismatch& mismatch : mismatches) {
    SCOPED_TRACE(mismatch.field);
    net::CoordinatorOptions options;
    options.seed = spec.execution.seed;
    options.rng = spec.execution.rng;
    options.shard_size = spec.execution.shard_size;
    options.deadline_ms = 2000;
    mismatch.apply(options);
    net::Coordinator coordinator(options);
    ASSERT_TRUE(coordinator.Listen(0).ok());
    const uint16_t port = coordinator.port();
    Status worker_status;
    std::thread worker([port, &worker_status] {
      worker_status = net::RunWorker(kLoopback, port);
    });
    ASSERT_TRUE(coordinator.AcceptWorkers(1).ok());

    auto artifacts = plan.value().RunDistributed(coordinator);
    worker.join();
    ASSERT_FALSE(artifacts.ok());
    EXPECT_EQ(artifacts.status().code(), StatusCode::kInvalidArgument)
        << artifacts.status().ToString();
    const std::string field = std::string("execution.") + mismatch.field;
    EXPECT_NE(artifacts.status().message().find(field), std::string::npos)
        << artifacts.status().ToString();
    EXPECT_FALSE(worker_status.ok());
    EXPECT_NE(worker_status.message().find(field), std::string::npos)
        << worker_status.ToString();
  }
}

TEST(DistributedFailureTest, HandshakeRejectsWrongVersion) {
  net::CoordinatorOptions options;
  options.deadline_ms = 2000;
  net::Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Listen(0).ok());
  const uint16_t port = coordinator.port();

  std::thread impostor([port] {
    auto conn = net::TcpConnection::Connect(kLoopback, port, 2000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    net::HelloMsg hello;
    hello.magic = net::kProtocolMagic;
    hello.version = net::kProtocolVersion + 1;
    hello.role = net::PeerRole::kWorker;
    Status sent = conn.value().SendFrame(net::FrameType::kHello,
                                         net::EncodeHello(hello), 2000);
    EXPECT_TRUE(sent.ok()) << sent.ToString();
    // The server answers with Abort, not HelloAck.
    auto reply = conn.value().RecvFrame(2000);
    if (reply.ok()) {
      EXPECT_EQ(reply.value().type, net::FrameType::kAbort);
    }
  });
  Status accepted = coordinator.AcceptWorkers(1);
  impostor.join();
  EXPECT_FALSE(accepted.ok());
}

// ---------------------------------------------------------------------------
// Socket ingest (the collectd endpoint): the served transcript is the
// in-process replay transcript, byte for byte.
// ---------------------------------------------------------------------------

class SocketIngest : public ::testing::TestWithParam<RngKind> {};

TEST_P(SocketIngest, ServedTranscriptMatchesInProcessReplay) {
  Dataset data = SynthesizeAdult(600, /*seed=*/3);
  release::ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kIndependent;
  spec.budget.keep_probability = 0.6;
  spec.streaming.enabled = true;
  spec.streaming.window_size = 200;
  spec.execution.seed = kSeed;
  spec.execution.rng = GetParam();

  protocol::StreamingReplayOptions replay_options;
  auto replay = protocol::RunStreamingReplay(spec, data, replay_options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  net::TcpListener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  const uint16_t port = listener.port();

  StatusOr<protocol::StreamServeResult> served =
      Status::Internal("server never ran");
  std::thread server([&] {
    protocol::StreamIngestServeOptions options;
    options.deadline_ms = 5000;
    served = protocol::ServeStreamIngest(spec, listener, options);
  });

  protocol::StreamIngestClientOptions client_options;
  client_options.batch_size = 128;
  client_options.deadline_ms = 5000;
  auto sent = protocol::StreamReportsOverSocket(spec, data, kLoopback, port,
                                                client_options);
  server.join();
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  EXPECT_EQ(release::PrintStreamWindows(served.value().windows),
            release::PrintStreamWindows(replay.value().windows));
  EXPECT_EQ(served.value().reports_ingested,
            replay.value().reports_ingested);
  EXPECT_EQ(served.value().epsilon_spent, replay.value().epsilon_spent);
  EXPECT_EQ(sent.value().reports_ingested, served.value().reports_ingested);
}

INSTANTIATE_TEST_SUITE_P(BothRngs, SocketIngest,
                         ::testing::Values(RngKind::kMt19937,
                                           RngKind::kPhilox),
                         [](const auto& info) {
                           return info.param == RngKind::kPhilox ? "philox"
                                                                 : "mt19937";
                         });

}  // namespace
}  // namespace mdrr
