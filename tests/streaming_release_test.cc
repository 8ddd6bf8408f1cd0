// Integration suite for the always-on streaming collector: windowed
// releases, ingest-thread determinism, budget fail-closed degradation,
// snapshot/resume equivalence, and the zero-LU structured fast path.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/estimator.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/linalg/lu.h"
#include "mdrr/protocol/stream_ingest.h"
#include "mdrr/release/planner.h"
#include "mdrr/release/serialization.h"
#include "mdrr/release/streaming.h"
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

namespace release = mdrr::release;
namespace protocol = mdrr::protocol;

// A small three-attribute survey population, deterministic in `seed`.
Dataset MakeSurvey(size_t rows, uint64_t seed) {
  std::vector<Attribute> schema(3);
  schema[0].name = "a";
  schema[0].categories = {"a0", "a1", "a2"};
  schema[1].name = "b";
  schema[1].categories = {"b0", "b1"};
  schema[2].name = "c";
  schema[2].categories = {"c0", "c1", "c2", "c3"};
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> columns(3);
  for (size_t row = 0; row < rows; ++row) {
    columns[0].push_back(static_cast<uint32_t>(rng.UniformInt(3)));
    columns[1].push_back(static_cast<uint32_t>(rng.Bernoulli(0.3) ? 1 : 0));
    columns[2].push_back(static_cast<uint32_t>(rng.UniformInt(4)));
  }
  return Dataset(std::move(schema), std::move(columns));
}

release::ReleaseSpec StreamingSpec(uint64_t window_size) {
  release::ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kIndependent;
  spec.budget.keep_probability = 0.6;
  spec.streaming.enabled = true;
  spec.streaming.window_size = window_size;
  spec.execution.seed = 21;
  return spec;
}

protocol::StreamingReplayResult MustReplay(
    const release::ReleaseSpec& spec, const Dataset& data,
    const protocol::StreamingReplayOptions& options) {
  auto result = protocol::RunStreamingReplay(spec, data, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Spec surface.
// ---------------------------------------------------------------------------

TEST(StreamingSpecTest, StreamingFieldsRoundTripThroughText) {
  release::ReleaseSpec spec = StreamingSpec(500);
  spec.streaming.window_kind = release::WindowKind::kSliding;
  spec.streaming.window_stride = 250;
  spec.streaming.window_epsilon = 4.5;
  spec.streaming.max_windows = 7;
  auto parsed = release::ParseReleaseSpec(release::PrintReleaseSpec(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
}

TEST(StreamingSpecTest, GeometricOrdinalRoundTripsAndValidates) {
  release::ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kGeometricOrdinal;
  spec.mechanism.geometric_epsilon = 2.5;
  auto parsed = release::ParseReleaseSpec(release::PrintReleaseSpec(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
  EXPECT_TRUE(release::ValidateReleaseSpec(spec, 3).ok());

  spec.mechanism.geometric_epsilon = 0.0;
  EXPECT_FALSE(release::ValidateReleaseSpec(spec, 3).ok());
}

TEST(StreamingSpecTest, ValidationRejectsContradictions) {
  // Enabled but no window size.
  release::ReleaseSpec spec = StreamingSpec(0);
  EXPECT_FALSE(release::ValidateReleaseSpec(spec, 3).ok());

  // Sliding stride must divide the size.
  spec = StreamingSpec(500);
  spec.streaming.window_kind = release::WindowKind::kSliding;
  spec.streaming.window_stride = 300;
  EXPECT_FALSE(release::ValidateReleaseSpec(spec, 3).ok());

  // Tumbling stride, when given, must equal the size.
  spec = StreamingSpec(500);
  spec.streaming.window_stride = 250;
  EXPECT_FALSE(release::ValidateReleaseSpec(spec, 3).ok());

  // Streaming re-estimates marginals only; batch-only stages refuse.
  spec = StreamingSpec(500);
  spec.adjustment.enabled = true;
  EXPECT_FALSE(release::ValidateReleaseSpec(spec, 3).ok());
  spec = StreamingSpec(500);
  spec.synthetic.enabled = true;
  EXPECT_FALSE(release::ValidateReleaseSpec(spec, 3).ok());
  spec = StreamingSpec(500);
  spec.mechanism.kind = release::MechanismKind::kClusters;
  EXPECT_FALSE(release::ValidateReleaseSpec(spec, 3).ok());

  // Streaming knobs without streaming.enabled are a typo, not a default.
  spec = release::ReleaseSpec{};
  spec.streaming.window_size = 500;
  EXPECT_FALSE(release::ValidateReleaseSpec(spec, 3).ok());
}

TEST(StreamingSpecTest, BatchPlannerRefusesStreamingSpecs) {
  release::ReleaseSpec spec = StreamingSpec(500);
  spec.dataset.source = release::DatasetSpec::Source::kSyntheticAdult;
  spec.dataset.synthetic_records = 100;
  auto plan = release::ReleasePlanner::Plan(spec);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingSpecTest, GeometricOrdinalRunsAsBatchMechanism) {
  Dataset data = MakeSurvey(400, 3);
  release::ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kGeometricOrdinal;
  spec.mechanism.geometric_epsilon = 1.5;
  spec.execution.seed = 5;
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto artifacts = plan.value().Run();
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  // Expression (4) epsilon of GeometricOrdinal is exactly the declared
  // epsilon, per attribute, composed over the three attributes.
  EXPECT_NEAR(artifacts.value().release_epsilon, 3 * 1.5, 1e-9);
  ASSERT_EQ(artifacts.value().marginal_estimates.size(), 3u);
}

// ---------------------------------------------------------------------------
// Windowed releases.
// ---------------------------------------------------------------------------

TEST(StreamingReleaseTest, TumblingWindowsMatchNaiveRecount) {
  Dataset data = MakeSurvey(700, 11);
  release::ReleaseSpec spec = StreamingSpec(500);
  protocol::StreamingReplayOptions options;
  options.total_reports = 2000;
  protocol::StreamingReplayResult result = MustReplay(spec, data, options);

  ASSERT_EQ(result.windows.size(), 4u);
  EXPECT_TRUE(result.finished);

  // Recount every window from scratch: regenerate the perturbed report
  // of each sequence (row s % rows, randomness keyed off s), tally, and
  // run the same Eq. (2) closed form. Bit-identical, not approximate.
  RrIndependentOptions design;
  design.keep_probability = spec.budget.keep_probability;
  std::vector<RrMatrix> matrices;
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    matrices.push_back(
        MakeIndependentMatrix(data.attribute(j).cardinality(), design));
  }
  RngStreamFamily family(spec.execution.seed);
  for (const release::StreamWindow& window : result.windows) {
    EXPECT_TRUE(window.released);
    EXPECT_EQ(window.end_sequence - window.begin_sequence, 500u);
    EXPECT_EQ(window.num_reports, 500u);
    std::vector<std::vector<uint64_t>> tallies;
    for (size_t j = 0; j < matrices.size(); ++j) {
      tallies.emplace_back(data.attribute(j).cardinality(), 0);
    }
    for (uint64_t s = window.begin_sequence; s < window.end_sequence; ++s) {
      Rng rng = family.Stream(s);
      const size_t row = static_cast<size_t>(s % data.num_rows());
      for (size_t j = 0; j < matrices.size(); ++j) {
        ++tallies[j][matrices[j].Randomize(data.at(row, j), rng)];
      }
    }
    for (size_t j = 0; j < matrices.size(); ++j) {
      std::vector<double> lambda(tallies[j].size());
      for (size_t v = 0; v < lambda.size(); ++v) {
        lambda[v] = static_cast<double>(tallies[j][v]) /
                    static_cast<double>(window.num_reports);
      }
      auto expected =
          EstimateProjectedDistribution(matrices[j], lambda);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(window.artifacts.marginal_estimates[j], expected.value());
    }
  }
}

TEST(StreamingReleaseTest, SlidingWindowsOverlapByStride) {
  Dataset data = MakeSurvey(300, 17);
  release::ReleaseSpec spec = StreamingSpec(400);
  spec.streaming.window_kind = release::WindowKind::kSliding;
  spec.streaming.window_stride = 200;
  protocol::StreamingReplayOptions options;
  options.total_reports = 1200;
  protocol::StreamingReplayResult result = MustReplay(spec, data, options);

  // (1200 - 400) / 200 + 1 = 5 windows, each shifted by one stride.
  ASSERT_EQ(result.windows.size(), 5u);
  EXPECT_TRUE(result.finished);
  for (size_t w = 0; w < result.windows.size(); ++w) {
    EXPECT_EQ(result.windows[w].begin_sequence, w * 200);
    EXPECT_EQ(result.windows[w].end_sequence, w * 200 + 400);
    EXPECT_EQ(result.windows[w].num_reports, 400u);
    EXPECT_TRUE(result.windows[w].released);
  }
}

TEST(StreamingReleaseTest, TrailingPartialWindowNeverReleases) {
  Dataset data = MakeSurvey(300, 19);
  release::ReleaseSpec spec = StreamingSpec(500);
  protocol::StreamingReplayOptions options;
  options.total_reports = 1700;  // 3 full windows + 200 leftover reports.
  protocol::StreamingReplayResult result = MustReplay(spec, data, options);
  ASSERT_EQ(result.windows.size(), 3u);
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.windows.back().end_sequence, 1500u);
}

TEST(StreamingReleaseTest, MaxWindowsCapsEmissionWhileCountingContinues) {
  Dataset data = MakeSurvey(300, 23);
  release::ReleaseSpec spec = StreamingSpec(400);
  spec.streaming.max_windows = 2;
  protocol::StreamingReplayOptions options;
  options.total_reports = 2000;
  protocol::StreamingReplayResult result = MustReplay(spec, data, options);
  ASSERT_EQ(result.windows.size(), 2u);
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.reports_ingested, 2000u);
}

// The acceptance gate: the per-window transcript is a pure function of
// the spec and the arrival schedule -- never of the ingest thread count
// or shard count.
TEST(StreamingReleaseTest, TranscriptBitIdenticalAcrossIngestThreads) {
  Dataset data = MakeSurvey(600, 29);
  release::ReleaseSpec spec = StreamingSpec(300);
  spec.streaming.window_kind = release::WindowKind::kSliding;
  spec.streaming.window_stride = 150;

  std::string reference;
  for (size_t threads : {1, 2, 4, 8}) {
    protocol::StreamingReplayOptions options;
    options.total_reports = 2400;
    options.num_ingest_threads = threads;
    options.collector.num_shards = threads >= 4 ? 4 : threads;
    options.collector.channel_capacity = 64;  // Force backpressure.
    protocol::StreamingReplayResult result = MustReplay(spec, data, options);
    std::string transcript = release::PrintStreamWindows(result.windows);
    EXPECT_FALSE(transcript.empty());
    if (reference.empty()) {
      reference = transcript;
    } else {
      EXPECT_EQ(transcript, reference) << "diverged at " << threads
                                       << " ingest threads";
    }
  }
}

// The range form seeds its mt19937 streams a lane block at a time; at
// any unaligned (first, count) it must equal a per-report reference:
// report s draws its attributes in order from stream s of the family
// (mt19937), or attribute j from element j of philox stream s.
// Twelve attributes of 2-7 categories each.
Dataset MakeWideSurvey(size_t rows, uint64_t seed) {
  constexpr size_t kAttributes = 12;
  std::vector<Attribute> schema(kAttributes);
  for (size_t j = 0; j < kAttributes; ++j) {
    schema[j].name = "q" + std::to_string(j);
    for (size_t c = 0; c < 2 + j % 6; ++c) {
      schema[j].categories.push_back(schema[j].name + "_" +
                                     std::to_string(c));
    }
  }
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> columns(kAttributes);
  for (size_t row = 0; row < rows; ++row) {
    for (size_t j = 0; j < kAttributes; ++j) {
      columns[j].push_back(
          static_cast<uint32_t>(rng.UniformInt(schema[j].categories.size())));
    }
  }
  return Dataset(std::move(schema), std::move(columns));
}

TEST(StreamingReleaseTest, RandomizeReportsMatchesPerReportLoop) {
  // The three-attribute survey draws at most 6 words per report, inside
  // its engine's first 16-word chunk. Twelve attributes at keep
  // probability 0.05 draw about 23, so most reports load the rest of
  // their seed words from the block lane inside the kernel.
  struct Case {
    Dataset data;
    double keep;
  };
  const Case cases[] = {{MakeSurvey(50, 37), 0.6},
                        {MakeWideSurvey(50, 41), 0.05}};
  for (const Case& c : cases) {
    const Dataset& data = c.data;
    std::vector<RrMatrix> matrices;
    for (size_t j = 0; j < data.num_attributes(); ++j) {
      matrices.push_back(
          RrMatrix::KeepUniform(data.attribute(j).cardinality(), c.keep));
    }
    const size_t m = matrices.size();
    const uint64_t seed = 23;
    for (RngKind rng : {RngKind::kMt19937, RngKind::kPhilox}) {
      release::ExecutionPolicy execution;
      execution.rng = rng;
      execution.seed = seed;
      // first = 13, count = 77: two full seed blocks of kSeedLanes = 32
      // and a partial one, none starting at a multiple of 32.
      for (uint64_t first : {0, 1, 13, 17, 40}) {
        for (uint64_t count : {0, 1, 17, 40, 77}) {
          std::vector<uint32_t> range(count * m);
          protocol::RandomizeReports(execution, matrices, data, first, count,
                                     range.data());
          std::vector<uint32_t> loop(count * m);
          for (uint64_t k = 0; k < count; ++k) {
            const uint64_t s = first + k;
            const size_t row = static_cast<size_t>(s % data.num_rows());
            Rng stream = RngStreamFamily(seed).Stream(s);
            for (size_t j = 0; j < m; ++j) {
              loop[k * m + j] =
                  rng == RngKind::kPhilox
                      ? matrices[j].RandomizeCounter(data.at(row, j), seed,
                                                     s, j)
                      : matrices[j].Randomize(data.at(row, j), stream);
            }
          }
          EXPECT_EQ(range, loop)
              << m << " attributes, rng " << static_cast<int>(rng)
              << " first " << first << " count " << count;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Budget.
// ---------------------------------------------------------------------------

TEST(StreamingReleaseTest, BudgetExhaustionSuppressesButKeepsCounting) {
  Dataset data = MakeSurvey(500, 31);
  release::ReleaseSpec spec = StreamingSpec(400);

  // Find the per-window charge, then afford exactly two windows.
  auto probe = release::StreamingCollector::Create(
      spec, {3, 2, 4}, release::StreamingCollectorOptions{});
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const double per_window = probe.value()->window_epsilon();
  ASSERT_GT(per_window, 0.0);
  spec.budget.max_total_epsilon = 2.5 * per_window;

  protocol::StreamingReplayOptions options;
  options.total_reports = 2000;  // 5 windows.
  protocol::StreamingReplayResult result = MustReplay(spec, data, options);

  ASSERT_EQ(result.windows.size(), 5u);
  for (size_t w = 0; w < result.windows.size(); ++w) {
    const release::StreamWindow& window = result.windows[w];
    EXPECT_EQ(window.released, w < 2) << "window " << w;
    // Suppressed windows still counted their reports; they publish
    // nothing.
    EXPECT_EQ(window.num_reports, 400u);
    if (!window.released) {
      EXPECT_EQ(window.epsilon, 0.0);
      EXPECT_TRUE(window.artifacts.marginal_estimates.empty());
    }
  }
  // The ledger never exceeds the cap.
  EXPECT_LE(result.epsilon_spent, spec.budget.max_total_epsilon);
  EXPECT_DOUBLE_EQ(result.epsilon_spent, 2 * per_window);
}

TEST(StreamingReleaseTest, DeclaredWindowEpsilonMustCoverTheDesign) {
  release::ReleaseSpec spec = StreamingSpec(400);
  auto probe = release::StreamingCollector::Create(
      spec, {3, 2, 4}, release::StreamingCollectorOptions{});
  ASSERT_TRUE(probe.ok());
  const double derived = probe.value()->window_epsilon();

  // Understating the design is a contract violation, fail-closed.
  spec.streaming.window_epsilon = derived * 0.5;
  auto under = release::StreamingCollector::Create(
      spec, {3, 2, 4}, release::StreamingCollectorOptions{});
  ASSERT_FALSE(under.ok());
  EXPECT_EQ(under.status().code(), StatusCode::kFailedPrecondition);

  // Overstating (a deliberate safety margin) is honored as the charge.
  spec.streaming.window_epsilon = derived * 2;
  auto over = release::StreamingCollector::Create(
      spec, {3, 2, 4}, release::StreamingCollectorOptions{});
  ASSERT_TRUE(over.ok());
  EXPECT_DOUBLE_EQ(over.value()->window_epsilon(), derived * 2);
}

// ---------------------------------------------------------------------------
// Zero-LU structured fast path.
// ---------------------------------------------------------------------------

TEST(StreamingReleaseTest, StructuredWindowsPerformZeroLuFactorizations) {
  Dataset data = MakeSurvey(500, 37);
  release::ReleaseSpec spec = StreamingSpec(250);
  protocol::StreamingReplayOptions options;
  options.total_reports = 1500;
  const uint64_t lu_before = linalg::LuFactorizationCount();
  protocol::StreamingReplayResult result = MustReplay(spec, data, options);
  EXPECT_EQ(linalg::LuFactorizationCount(), lu_before);
  EXPECT_EQ(result.windows.size(), 6u);
}

TEST(StreamingReleaseTest, GeometricOrdinalStreamsWithDeclaredEpsilon) {
  Dataset data = MakeSurvey(400, 41);
  release::ReleaseSpec spec = StreamingSpec(300);
  spec.mechanism.kind = release::MechanismKind::kGeometricOrdinal;
  spec.mechanism.geometric_epsilon = 1.25;
  protocol::StreamingReplayOptions options;
  options.total_reports = 900;
  protocol::StreamingReplayResult result = MustReplay(spec, data, options);
  ASSERT_EQ(result.windows.size(), 3u);
  for (const release::StreamWindow& window : result.windows) {
    EXPECT_TRUE(window.released);
    // Three attributes, Expression (4) epsilon == declared epsilon each.
    EXPECT_NEAR(window.epsilon, 3 * 1.25, 1e-9);
    for (const std::vector<double>& marginal :
         window.artifacts.marginal_estimates) {
      double sum = 0.0;
      for (double p : marginal) {
        EXPECT_GE(p, 0.0);
        sum += p;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot / resume.
// ---------------------------------------------------------------------------

TEST(StreamingSnapshotTest, TextRoundTripIsExact) {
  release::StreamingSnapshot snapshot;
  snapshot.next_sequence = 1234;
  snapshot.next_window = 3;
  snapshot.epsilon_spent = 5.318;
  snapshot.window_epsilons = {2.659, 0.0, 2.659};
  snapshot.cardinalities = {3, 2, 4};
  release::StreamingSnapshot::BucketCounts bucket;
  bucket.bucket = 3;
  bucket.num_reports = 400;
  bucket.counts = {120, 140, 140, 260, 140, 90, 110, 100, 100};
  snapshot.buckets.push_back(bucket);
  bucket.bucket = 4;
  bucket.num_reports = 34;
  bucket.counts = {10, 12, 12, 20, 14, 9, 11, 7, 7};
  snapshot.buckets.push_back(bucket);

  auto parsed = release::ParseStreamingSnapshot(
      release::PrintStreamingSnapshot(snapshot));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == snapshot);

  EXPECT_FALSE(release::ParseStreamingSnapshot("garbage").ok());
  EXPECT_FALSE(release::ParseStreamingSnapshot(
                   release::PrintStreamingSnapshot(snapshot) + "bogus 1\n")
                   .ok());
}

// Kill/resume equivalence, the snapshot acceptance gate: pausing at any
// point -- including mid-bucket -- and resuming from the snapshot yields
// exactly the windows of the uninterrupted run.
TEST(StreamingSnapshotTest, KillResumeMatchesUninterruptedRun) {
  Dataset data = MakeSurvey(500, 43);
  release::ReleaseSpec spec = StreamingSpec(400);
  spec.streaming.window_kind = release::WindowKind::kSliding;
  spec.streaming.window_stride = 200;

  protocol::StreamingReplayOptions baseline_options;
  baseline_options.total_reports = 2000;
  protocol::StreamingReplayResult baseline =
      MustReplay(spec, data, baseline_options);
  const std::string full_transcript =
      release::PrintStreamWindows(baseline.windows);

  // 1000 pauses on a bucket boundary; 1130 pauses mid-bucket. Both
  // pause mid-claim: producers claim blocks of kSeedLanes = 32
  // sequences, and neither is a multiple of 32, so the claim that
  // straddles the pause is clipped at it.
  for (size_t threads : {size_t{1}, size_t{3}}) {
    for (uint64_t pause_at : {uint64_t{1000}, uint64_t{1130}}) {
      SCOPED_TRACE(testing::Message() << threads << " producers");
      protocol::StreamingReplayOptions first_options;
      first_options.total_reports = 2000;
      first_options.pause_at = pause_at;
      first_options.num_ingest_threads = threads;
      protocol::StreamingReplayResult first =
          MustReplay(spec, data, first_options);
      ASSERT_TRUE(first.snapshot.has_value());
      EXPECT_FALSE(first.finished);
      EXPECT_EQ(first.snapshot->next_sequence, pause_at);

      // The snapshot survives its own serialization on the way.
      auto reloaded = release::ParseStreamingSnapshot(
          release::PrintStreamingSnapshot(*first.snapshot));
      ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

      protocol::StreamingReplayOptions second_options;
      second_options.total_reports = 2000;
      second_options.num_ingest_threads = 4;
      second_options.resume = &reloaded.value();
      protocol::StreamingReplayResult second =
          MustReplay(spec, data, second_options);
      EXPECT_TRUE(second.finished);
      EXPECT_EQ(second.first_sequence, pause_at);

      std::vector<release::StreamWindow> combined = first.windows;
      combined.insert(combined.end(), second.windows.begin(),
                      second.windows.end());
      EXPECT_EQ(release::PrintStreamWindows(combined), full_transcript)
          << "pause_at " << pause_at;
      EXPECT_DOUBLE_EQ(second.epsilon_spent, baseline.epsilon_spent);
    }
  }
}

TEST(StreamingSnapshotTest, ResumeRejectsSchemaMismatch) {
  Dataset data = MakeSurvey(200, 47);
  release::ReleaseSpec spec = StreamingSpec(400);
  protocol::StreamingReplayOptions pause_options;
  pause_options.total_reports = 800;
  pause_options.pause_at = 300;
  protocol::StreamingReplayResult paused =
      MustReplay(spec, data, pause_options);
  ASSERT_TRUE(paused.snapshot.has_value());

  auto resumed = release::StreamingCollector::Resume(
      spec, {3, 2, 5}, release::StreamingCollectorOptions{},
      *paused.snapshot);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingSnapshotTest, SnapshotRequiresQuiescence) {
  release::ReleaseSpec spec = StreamingSpec(400);
  auto collector = release::StreamingCollector::Create(
      spec, {3, 2, 4}, release::StreamingCollectorOptions{});
  ASSERT_TRUE(collector.ok());
  ASSERT_TRUE(collector.value()->TrySubmit(0, 0, {1, 0, 2}));
  auto snapshot = collector.value()->Snapshot(1);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(collector.value()->DrainShard(0), 1u);
  EXPECT_TRUE(collector.value()->Snapshot(1).ok());
}

// ---------------------------------------------------------------------------
// Size caps: every shard and ingest thread is an OS thread, so a size
// past its cap is refused by name before anything is allocated or
// started.
// ---------------------------------------------------------------------------

void ExpectRefusedNaming(const Status& status, const std::string& field) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(field), std::string::npos)
      << status.ToString();
}

TEST(StreamingLimitsTest, CollectorRefusesSizesPastTheirCaps) {
  const release::ReleaseSpec spec = StreamingSpec(400);
  release::StreamingCollectorOptions shards;
  shards.num_shards = release::kMaxStreamingShards + 1;
  ExpectRefusedNaming(
      release::StreamingCollector::Create(spec, {3, 2, 4}, shards).status(),
      "num_shards");
  release::StreamingCollectorOptions ring;
  ring.ring_buckets = release::kMaxRingBuckets + 1;
  ExpectRefusedNaming(
      release::StreamingCollector::Create(spec, {3, 2, 4}, ring).status(),
      "ring_buckets");
  ring.ring_buckets = release::kMaxRingBuckets;
  EXPECT_TRUE(release::StreamingCollector::Create(spec, {3, 2, 4}, ring).ok());
}

TEST(StreamingLimitsTest, ReplayRefusesSizesPastTheirCaps) {
  const Dataset data = MakeSurvey(50, 3);
  const release::ReleaseSpec spec = StreamingSpec(10);
  protocol::StreamingReplayOptions threads;
  threads.num_ingest_threads = release::kMaxIngestThreads + 1;
  ExpectRefusedNaming(
      protocol::RunStreamingReplay(spec, data, threads).status(),
      "num_ingest_threads");
  protocol::StreamingReplayOptions shards;
  shards.collector.num_shards = release::kMaxStreamingShards + 1;
  ExpectRefusedNaming(
      protocol::RunStreamingReplay(spec, data, shards).status(),
      "num_shards");
}

TEST(StreamingLimitsTest, ReplayRefusesAPauseAtOrPastTheEnd) {
  // A pause that never happens would leave no snapshot to resume from.
  const Dataset data = MakeSurvey(50, 3);
  const release::ReleaseSpec spec = StreamingSpec(10);
  protocol::StreamingReplayOptions options;
  options.total_reports = 80;
  for (uint64_t pause_at : {uint64_t{80}, uint64_t{200}}) {
    options.pause_at = pause_at;
    ExpectRefusedNaming(
        protocol::RunStreamingReplay(spec, data, options).status(),
        "pause_at");
  }
  options.pause_at = 79;
  EXPECT_TRUE(MustReplay(spec, data, options).snapshot.has_value());
}

}  // namespace
}  // namespace mdrr
