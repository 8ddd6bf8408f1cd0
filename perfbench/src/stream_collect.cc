// stream-collect: the always-on collector (the RAPPOR / Wang et al.
// USENIX Sec '17 setting) replaying synthetic-adult rows as reports
// through protocol::RunStreamingReplay -- the `mdrr_collectd --input`
// path -- with 2 ingest producers, 1 shard drain and the polling thread,
// over a tumbling-window RR-Independent spec. The per-report path does
// the work: one mt19937 stream seeded per report, the MPSC channel, the
// count ring and the O(r) window closed forms. No adjustment, clustering
// or wire is on it. One producer is the single-thread baseline.
//
// The traced run drives a StreamingCollector inline on one thread --
// perturb, TrySubmit, DrainShard, PollWindows -- with the replay's
// per-report randomness, so its window transcript must equal the
// replay's byte for byte.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "mdrr/dataset/adult.h"
#include "mdrr/linalg/lu.h"
#include "mdrr/protocol/stream_ingest.h"
#include "mdrr/release/serialization.h"
#include "mdrr/release/streaming.h"
#include "mdrr/rng/rng.h"
#include "workloads.h"

namespace mdrr::perfbench {

namespace {

constexpr uint64_t kReports = 240000;
constexpr uint64_t kWindowSize = 2000;  // kReports / kWindowSize windows.
constexpr size_t kProducers = 2;
// Reports perturbed per inline step before they are submitted, drained
// and polled; below the channel's in-flight capacity, so the inline drive
// never has to wait on itself.
constexpr uint64_t kInlineBatch = 256;

struct StreamState {
  Dataset data;
  std::vector<size_t> cardinalities;
  // True per-attribute marginals of each window's rows.
  std::vector<std::vector<std::vector<double>>> window_truth;
};

release::ReleaseSpec MakeSpec(const RunConfig& config, uint64_t window) {
  release::ReleaseSpec spec;
  spec.mechanism.kind = release::MechanismKind::kIndependent;
  spec.streaming.enabled = true;
  spec.streaming.window_kind = release::WindowKind::kTumbling;
  spec.streaming.window_size = window;
  spec.execution.seed = config.engine_seeds[0];
  return spec;
}

// Checks an emitted window sequence and returns its transcript, or an
// error message in `error`. `tv` receives the mean marginal TV distance
// over released windows.
std::string CheckWindows(const StreamState& state,
                         const std::vector<release::StreamWindow>& windows,
                         double* tv, std::string* error) {
  if (windows.size() != state.window_truth.size()) {
    *error = "emitted " + std::to_string(windows.size()) + " windows, want " +
             std::to_string(state.window_truth.size());
    return "";
  }
  double sum = 0.0;
  for (size_t w = 0; w < windows.size(); ++w) {
    if (!windows[w].released) {
      *error = "window " + std::to_string(w) + " was suppressed";
      return "";
    }
    const double distance = MeanTotalVariation(
        windows[w].artifacts.marginal_estimates, state.window_truth[w]);
    if (distance < 0.0) {
      *error = "window " + std::to_string(w) + " estimates are malformed";
      return "";
    }
    sum += distance;
  }
  *tv = sum / static_cast<double>(windows.size());
  return release::PrintStreamWindows(windows);
}

// One untraced replay: its wall seconds, or an error.
std::string RunReplay(const StreamState& state,
                      const release::ReleaseSpec& spec, size_t producers,
                      double* seconds, std::string* transcript, double* tv) {
  protocol::StreamingReplayOptions options;
  options.num_ingest_threads = producers;
  options.collector.num_shards = 1;
  options.total_reports = state.data.num_rows();
  Stopwatch watch;
  StatusOr<protocol::StreamingReplayResult> replay =
      protocol::RunStreamingReplay(spec, state.data, options);
  *seconds = watch.Seconds();
  if (!replay.ok()) return replay.status().ToString();
  if (!replay->finished || replay->reports_ingested != options.total_reports) {
    return "replay did not ingest every report";
  }
  std::string error;
  *transcript = CheckWindows(state, replay->windows, tv, &error);
  return error;
}

struct StreamLayers {
  double seed = 0.0;
  double randomize = 0.0;
  double submit = 0.0;
  double drain = 0.0;
  double poll = 0.0;
  double wall = 0.0;
  std::vector<double> emitting_poll_ms;
  uint64_t submit_attempts = 0;
  uint64_t submit_refused = 0;
  uint64_t released = 0;
  uint64_t suppressed = 0;
  uint64_t lu_factorizations = 0;

  double Sum() const { return seed + randomize + submit + drain + poll; }
};

// The replay's work, inline on this thread with a stopwatch around each
// call: report s draws RngStreamFamily(seed).Stream(s), exactly as the
// replay's producers do, so the windows must match the replay's.
StatusOr<std::vector<release::StreamWindow>> InlineDrive(
    const StreamState& state, const release::ReleaseSpec& spec,
    StreamLayers* layers) {
  using Clock = std::chrono::steady_clock;
  auto seconds = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  const Clock::time_point start = Clock::now();
  const uint64_t lu_before = linalg::LuFactorizationCount();
  release::StreamingCollectorOptions options;
  options.num_shards = 1;
  StatusOr<std::unique_ptr<release::StreamingCollector>> created =
      release::StreamingCollector::Create(spec, state.cardinalities, options);
  if (!created.ok()) return created.status();
  release::StreamingCollector& collector = **created;

  const Dataset& data = state.data;
  const uint64_t total = data.num_rows();
  const size_t m = data.num_attributes();
  const RngStreamFamily family(spec.execution.seed);
  const std::vector<RrMatrix>& matrices = collector.matrices();
  std::vector<std::vector<uint32_t>> batch(kInlineBatch,
                                           std::vector<uint32_t>(m));
  std::vector<release::StreamWindow> windows;

  auto poll = [&]() -> Status {
    const Clock::time_point begin = Clock::now();
    StatusOr<size_t> emitted = collector.PollWindows(windows);
    const double elapsed = seconds(Clock::now() - begin);
    layers->poll += elapsed;
    if (!emitted.ok()) return emitted.status();
    if (*emitted > 0) layers->emitting_poll_ms.push_back(elapsed * 1e3);
    return Status::OK();
  };

  for (uint64_t first = 0; first < total; first += kInlineBatch) {
    const uint64_t count = std::min(kInlineBatch, total - first);
    Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t s = first + i;
      Rng rng = family.Stream(s);
      const Clock::time_point t1 = Clock::now();
      for (size_t j = 0; j < m; ++j) {
        batch[i][j] = matrices[j].Randomize(data.at(s, j), rng);
      }
      const Clock::time_point t2 = Clock::now();
      layers->seed += seconds(t1 - t0);
      layers->randomize += seconds(t2 - t1);
      t0 = t2;
    }
    const Clock::time_point submit = Clock::now();
    for (uint64_t i = 0; i < count; ++i) {
      ++layers->submit_attempts;
      while (!collector.TrySubmit(0, first + i, batch[i])) {
        // Backpressure: make room the way the replay's drain and release
        // threads would (timed as submit work), then retry.
        ++layers->submit_refused;
        ++layers->submit_attempts;
        if (collector.DrainShard(0) == 0) {
          Status polled = poll();
          if (!polled.ok()) return polled;
        }
      }
    }
    layers->submit += seconds(Clock::now() - submit);
    const Clock::time_point drain = Clock::now();
    collector.DrainShard(0);
    layers->drain += seconds(Clock::now() - drain);
    Status polled = poll();
    if (!polled.ok()) return polled;
  }
  collector.Seal(total);
  Status polled = poll();
  if (!polled.ok()) return polled;
  if (!collector.Finished()) {
    return Status::Internal("inline drive did not finish the stream");
  }
  for (const release::StreamWindow& window : windows) {
    ++(window.released ? layers->released : layers->suppressed);
  }
  layers->lu_factorizations = linalg::LuFactorizationCount() - lu_before;
  layers->wall = seconds(Clock::now() - start);
  return windows;
}

}  // namespace

WorkloadResult RunStreamCollect(const RunConfig& config) {
  WorkloadResult result;
  const uint64_t window = std::max<uint64_t>(10, kWindowSize / config.shrink);
  const uint64_t reports = kReports / kWindowSize * window;
  const release::ReleaseSpec spec = MakeSpec(config, window);

  // Set-up: synthesize the report rows, validate the spec and create a
  // collector, then one warm-up replay.
  std::unique_ptr<StreamState> state;
  std::vector<double> setup_s, synthesize_s, plan_s;
  std::string reference;
  double tv = 0.0;
  for (int k = 0; k < config.setups; ++k) {
    state.reset();
    Stopwatch setup;
    state = std::make_unique<StreamState>();
    double synthesize = 0.0, plan = 0.0;
    state->data = Timed(&synthesize, [&] {
      return SynthesizeAdult(reports, config.data_seed);
    });
    for (uint64_t begin = 0; begin < reports; begin += window) {
      state->window_truth.push_back(
          TrueMarginals(state->data, begin, begin + window));
    }
    for (size_t j = 0; j < state->data.num_attributes(); ++j) {
      state->cardinalities.push_back(state->data.attribute(j).cardinality());
    }
    Status planned = Timed(&plan, [&]() -> Status {
      MDRR_RETURN_IF_ERROR(
          release::ValidateReleaseSpec(spec, state->data.num_attributes()));
      return release::StreamingCollector::Create(spec, state->cardinalities,
                                                 {})
          .status();
    });
    double warmup_s = 0.0;
    std::string transcript;
    std::string error = planned.ok() ? RunReplay(*state, spec, kProducers,
                                                 &warmup_s, &transcript, &tv)
                                     : planned.ToString();
    if (error.empty() && k > 0 && transcript != reference) {
      error = "set-up replays disagree";
    }
    result.Record(error);
    if (!error.empty()) return result;
    reference = std::move(transcript);
    setup_s.push_back(setup.Seconds());
    synthesize_s.push_back(synthesize);
    plan_s.push_back(plan);
  }

  auto checked_replay = [&](size_t producers) {
    double seconds = 0.0, op_tv = 0.0;
    std::string transcript;
    std::string error =
        RunReplay(*state, spec, producers, &seconds, &transcript, &op_tv);
    if (error.empty() && transcript != reference) {
      error = "replay transcript differs from the set-up replay";
    }
    result.Record(error);
    return seconds;
  };
  auto checked_inline = [&](StreamLayers* layers) {
    StatusOr<std::vector<release::StreamWindow>> windows =
        InlineDrive(*state, spec, layers);
    result.Record(!windows.ok() ? windows.status().ToString()
                  : release::PrintStreamWindows(*windows) != reference
                      ? "inline drive transcript differs from the replay"
                      : "");
  };

  if (!config.trace) {
    std::vector<std::vector<double>> samples =
        ClosedLoop(config.seconds, 0.5, 3, 3, [&](bool single) {
          return checked_replay(single ? 1 : kProducers);
        });
    StreamLayers layers;
    checked_inline(&layers);
    result.Set("setup_s", Median(setup_s));
    result.Set("records_per_s",
               static_cast<double>(reports) / Median(samples[0]));
    result.Set("records_per_s_1t",
               static_cast<double>(reports) / Median(samples[1]));
    result.Set("marginal_tv", tv);
    return result;
  }

  // Traced: repeated inline drives (the replay keeps running alongside
  // so both paths are exercised by the same run).
  std::vector<StreamLayers> traced;
  ClosedLoop(config.seconds, 0.5, 3, 3, [&](bool trace) {
    if (!trace) return checked_replay(kProducers);
    StreamLayers layers;
    checked_inline(&layers);
    traced.push_back(layers);
    return layers.wall;
  });
  auto per_report_ns = [&](double StreamLayers::*field) {
    std::vector<double> values;
    for (const StreamLayers& layers : traced) {
      values.push_back(layers.*field / static_cast<double>(reports) * 1e9);
    }
    return Median(values);
  };
  std::vector<double> walls, sums, refused, poll_ms;
  for (const StreamLayers& layers : traced) {
    walls.push_back(layers.wall);
    sums.push_back(layers.Sum());
    refused.push_back(static_cast<double>(layers.submit_refused) /
                      static_cast<double>(layers.submit_attempts));
    poll_ms.insert(poll_ms.end(), layers.emitting_poll_ms.begin(),
                   layers.emitting_poll_ms.end());
  }
  const double wall = Median(walls);
  const Attribution attribution = Explain(Median(sums), wall);
  const StreamLayers& last = traced.back();
  result.Set("dataset.synthesize_s", Median(synthesize_s));
  result.Set("release.plan_s", Median(plan_s));
  result.Set("release.wall_s", wall);
  result.Set("release.coverage", attribution.coverage);
  result.Set("release.unaccounted_s", attribution.unaccounted_seconds);
  result.Set("rng.stream_seed_ns", per_report_ns(&StreamLayers::seed));
  result.Set("core.randomize_ns", per_report_ns(&StreamLayers::randomize));
  result.Set("release.submit_ns", per_report_ns(&StreamLayers::submit));
  result.Set("release.drain_ns", per_report_ns(&StreamLayers::drain));
  result.Set("release.backpressure_ratio", Median(refused));
  result.Set("release.window_poll_ms_p50", Percentile(poll_ms, 0.5));
  result.Set("release.window_poll_ms_p90", Percentile(poll_ms, 0.9));
  result.Set("release.windows_released", static_cast<double>(last.released));
  result.Set("release.windows_suppressed",
             static_cast<double>(last.suppressed));
  result.Set("linalg.lu_factorizations",
             static_cast<double>(last.lu_factorizations));
  return result;
}

}  // namespace mdrr::perfbench
