// Integration suite for the distributed release: at a fixed (seed,
// shard_size, rng) the coordinator/worker pipeline must produce the
// EXACT artifacts of the in-process sharded engine -- released data,
// marginals, epsilons, adjustment weights, synthetic data -- for 1, 2,
// and 4 worker processes and for both RNG policies. Plus the failure
// contract (fail-closed on disconnect and deadline, no partial
// transcript), the spec surface, and the collectd socket ingest path.

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/clustering.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/net/coordinator.h"
#include "mdrr/net/frame.h"
#include "mdrr/net/protocol.h"
#include "mdrr/net/socket.h"
#include "mdrr/net/wire.h"
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

// ---------------------------------------------------------------------------
// Failures with frames in flight: 2 workers, 4 shards each per column,
// one AssignShards frame per shard (the matrix is structured). The
// release must fail with the root cause -- not a sibling's consequent
// EPIPE -- refuse to commit, and leave no thread behind.
// ---------------------------------------------------------------------------

// What a worker computes for one assignment: the shard kernel over the
// matrix's direct-encoding oracle, as RunWorker does.
net::PartialResultMsg HonestReply(const net::AssignShardsMsg& assign) {
  const DirectEncodingOracle oracle(*assign.matrix);
  const ColumnAddress address{static_cast<RngKind>(assign.rng_kind),
                              assign.seed, assign.stream_base,
                              assign.counter_stream};
  net::PartialResultMsg reply;
  reply.task_id = assign.task_id;
  reply.counts.assign(oracle.domain_size(), 0);
  for (const net::ShardAssignment& shard : assign.shards) {
    net::ShardResult out{shard.shard_index,
                         std::vector<uint32_t>(shard.codes.size())};
    PerturbShard(oracle, address, shard.shard_index, shard.global_begin,
                 shard.codes.data(), shard.codes.size(), out.codes.data(),
                 reply.counts.data());
    reply.shards.push_back(std::move(out));
  }
  return reply;
}

// How a scripted worker serves assignment k (numbered from 0 over the
// session): it sends whatever reply it likes and returns false to hang
// up.
using Script = std::function<bool(size_t k, const net::AssignShardsMsg&,
                                  net::TcpConnection&)>;

// A worker that handshakes, then serves each assignment by `serve`.
// Returns once `serve` hangs up or the coordinator closes the connection.
void ScriptedWorker(uint16_t port, const Script& serve) {
  auto conn = net::TcpConnection::Connect(kLoopback, port, 2000);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE(
      net::ClientHandshake(conn.value(), net::PeerRole::kWorker, 2000).ok());
  for (size_t k = 0;; ++k) {
    auto frame = conn.value().RecvFrame(30000);
    if (!frame.ok() || frame->type != net::FrameType::kAssignShards) return;
    auto assign = net::ParseAssignShards(frame->payload);
    ASSERT_TRUE(assign.ok()) << assign.status().ToString();
    if (!serve(k, assign.value(), conn.value())) return;
  }
}

bool SendReply(net::TcpConnection& conn, const net::PartialResultMsg& reply) {
  return conn
      .SendFrame(net::FrameType::kPartialResult,
                 net::EncodePartialResult(reply), 2000)
      .ok();
}

// Reads every assignment and answers none, until the coordinator hangs
// up: a sibling whose receiver only fails once the socket is shut down.
bool Silent(size_t, const net::AssignShardsMsg&, net::TcpConnection&) {
  return true;
}

// A 2-worker release whose workers run scripts; worker 0 defaults to an
// honest RunWorker. Worker threads run as futures so the test can assert
// that every one of them returned.
class InFlightFailure {
 public:
  explicit InFlightFailure(int64_t deadline_ms) : data_(TestData()) {
    spec_ = BaseSpec(release::MechanismKind::kIndependent, RngKind::kMt19937);
    spec_.execution.kind = release::PolicyKind::kDistributed;
    spec_.execution.num_workers = 2;
    spec_.execution.worker_deadline_ms = deadline_ms;
    // Nothing downstream of the marginals: only the exchange can fail.
    spec_.adjustment.enabled = false;
    spec_.synthetic.enabled = false;
    net::CoordinatorOptions options;
    options.seed = spec_.execution.seed;
    options.rng = spec_.execution.rng;
    options.shard_size = spec_.execution.shard_size;
    options.deadline_ms = deadline_ms;
    coordinator_.emplace(options);
  }

  StatusOr<release::ReleaseArtifacts> Run(const Script& worker1,
                                          const Script& worker0 = nullptr) {
    static_assert((kRecords + kShard - 1) / kShard >= 8, "4 shards a worker");
    auto plan = release::ReleasePlanner::Plan(spec_, &data_);
    if (!plan.ok()) return plan.status();
    MDRR_RETURN_IF_ERROR(coordinator_->Listen(0));
    const uint16_t port = coordinator_->port();
    // Accept one at a time so the worker indices are fixed.
    for (const Script& script : {worker0, worker1}) {
      workers_.push_back(std::async(std::launch::async, [port, script] {
        if (!script) return net::RunWorker(kLoopback, port);
        ScriptedWorker(port, script);
        return Status::OK();
      }));
      MDRR_RETURN_IF_ERROR(coordinator_->AcceptWorkers(1));
    }
    return plan.value().RunDistributed(*coordinator_);
  }

  net::Coordinator& coordinator() { return *coordinator_; }

  // True once every worker thread has returned (waiting up to 5 s each).
  bool WorkersReturned() {
    for (std::future<Status>& worker : workers_) {
      if (worker.wait_for(std::chrono::seconds(5)) !=
          std::future_status::ready) {
        return false;
      }
    }
    return true;
  }

 private:
  Dataset data_;
  release::ReleaseSpec spec_;
  std::optional<net::Coordinator> coordinator_;
  std::vector<std::future<Status>> workers_;
};

TEST(DistributedInFlightTest, WorkerDyingAfterItsSecondReplyFailsUnavailable) {
  InFlightFailure release(/*deadline_ms=*/5000);
  auto artifacts = release.Run(
      [](size_t k, const net::AssignShardsMsg& assign,
         net::TcpConnection& conn) {
        // Replies to its first two shards, then drops the connection
        // with later assignments still unread.
        return k < 2 && SendReply(conn, HonestReply(assign));
      });
  ASSERT_FALSE(artifacts.ok());
  EXPECT_EQ(artifacts.status().code(), StatusCode::kUnavailable)
      << artifacts.status().ToString();
  EXPECT_FALSE(release.coordinator().Commit().ok());
  EXPECT_TRUE(release.WorkersReturned());
}

// The silent sibling's receiver fails only after the rogue reply is
// caught (with the shut-down socket's Unavailable); the release must
// report the rogue counts.
TEST(DistributedInFlightTest, RogueCountsOnALaterShardFailInvalidArgument) {
  InFlightFailure release(/*deadline_ms=*/5000);
  auto artifacts = release.Run(
      /*worker1=*/
      [](size_t k, const net::AssignShardsMsg& assign,
         net::TcpConnection& conn) {
        net::PartialResultMsg reply = HonestReply(assign);
        if (k == 2) {
          // Moves one report between categories: the codes stand, the
          // claimed counts no longer match them.
          const size_t from = reply.counts[0] > 0 ? 0 : 1;
          --reply.counts[from];
          ++reply.counts[1 - from];
        }
        // Keeps serving until the coordinator hangs up.
        return SendReply(conn, reply);
      },
      /*worker0=*/Silent);
  ASSERT_FALSE(artifacts.ok());
  EXPECT_EQ(artifacts.status().code(), StatusCode::kInvalidArgument)
      << artifacts.status().ToString();
  EXPECT_NE(artifacts.status().message().find("disagree"), std::string::npos)
      << artifacts.status().ToString();
  EXPECT_FALSE(release.coordinator().Commit().ok());
  EXPECT_TRUE(release.WorkersReturned());
}

TEST(DistributedInFlightTest, StalledWorkerFailsWithinItsDeadline) {
  constexpr int64_t kDeadlineMs = 500;
  InFlightFailure release(kDeadlineMs);
  const auto start = std::chrono::steady_clock::now();
  auto artifacts = release.Run(
      [](size_t k, const net::AssignShardsMsg& assign,
         net::TcpConnection& conn) {
        // Answers its first shard, then reads on without replying.
        return k > 0 || SendReply(conn, HonestReply(assign));
      });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(artifacts.ok());
  EXPECT_EQ(artifacts.status().code(), StatusCode::kDeadlineExceeded)
      << artifacts.status().ToString();
  EXPECT_LT(elapsed, std::chrono::milliseconds(kDeadlineMs + 1000));
  EXPECT_FALSE(release.coordinator().Commit().ok());
  EXPECT_TRUE(release.WorkersReturned());
}

// The first failure shuts the sibling's socket down: a dead worker fails
// the release at once, with its own Unavailable, while its sibling sits
// on a long deadline.
TEST(DistributedInFlightTest, DeadWorkerDoesNotWaitOutAStalledSibling) {
  constexpr int64_t kDeadlineMs = 10000;
  InFlightFailure release(kDeadlineMs);
  const auto start = std::chrono::steady_clock::now();
  auto artifacts = release.Run(
      /*worker1=*/
      [](size_t k, const net::AssignShardsMsg& assign,
         net::TcpConnection& conn) {
        return k < 1 && SendReply(conn, HonestReply(assign));
      },
      /*worker0=*/Silent);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(artifacts.ok());
  EXPECT_EQ(artifacts.status().code(), StatusCode::kUnavailable)
      << artifacts.status().ToString();
  EXPECT_LT(elapsed, std::chrono::milliseconds(kDeadlineMs / 2));
  EXPECT_FALSE(release.coordinator().Commit().ok());
  EXPECT_TRUE(release.WorkersReturned());
}

// ---------------------------------------------------------------------------
// Deadlock and dense-matrix guards.
// ---------------------------------------------------------------------------

// One attribute of `cardinality` ordinal categories over `n` records.
Dataset OneColumn(size_t n, size_t cardinality) {
  Attribute attribute{"a", AttributeType::kOrdinal, {}};
  for (size_t c = 0; c < cardinality; ++c) {
    attribute.categories.push_back(std::to_string(c));
  }
  std::vector<uint32_t> codes(n);
  Rng rng(23);
  for (uint32_t& code : codes) {
    code = static_cast<uint32_t>(rng.UniformInt(cardinality));
  }
  return Dataset({attribute}, {std::move(codes)});
}

// A single column moving 16 MiB each way through one worker -- more than
// the loopback socket buffers hold -- must stream through, not deadlock
// with both sides blocked on full buffers.
TEST(DistributedStreamTest, SixteenMebibyteColumnThroughOneWorker) {
  const Dataset data = OneColumn((16u << 20) / 4 + 1000, 5);
  release::ReleaseSpec spec =
      BaseSpec(release::MechanismKind::kIndependent, RngKind::kPhilox);
  spec.adjustment.enabled = false;
  spec.synthetic.enabled = false;
  spec.execution.shard_size = 1 << 16;
  spec.execution.kind = release::PolicyKind::kSharded;
  spec.execution.num_threads = 4;
  release::ReleaseArtifacts sharded = MustRun(spec, data);
  ExpectSameArtifacts(MustRunDistributed(spec, data, 1), sharded);
}

// A dense geometric-ordinal matrix of 120 categories encodes to 115 209
// bytes, so a frame of 256-record shards (1 KiB of codes each) carries
// 113 of them: several multi-shard frames per worker at 250 077 records.
TEST(DistributedStreamTest, DenseMatrixOutweighingAShardMatchesSharded) {
  const RrMatrix matrix = RrMatrix::GeometricOrdinal(120, 1.5);
  ASSERT_FALSE(matrix.is_structured());
  ASSERT_EQ(net::EncodedMatrixSize(matrix), 115209u);
  const Dataset data = OneColumn(250077, 120);
  release::ReleaseSpec spec =
      BaseSpec(release::MechanismKind::kGeometricOrdinal, RngKind::kMt19937);
  spec.mechanism.geometric_epsilon = 1.5;
  spec.adjustment.enabled = false;
  spec.synthetic.enabled = false;
  spec.execution.kind = release::PolicyKind::kSharded;
  spec.execution.num_threads = 4;
  release::ReleaseArtifacts sharded = MustRun(spec, data);
  for (size_t workers : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    ExpectSameArtifacts(MustRunDistributed(spec, data, workers), sharded);
  }
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
