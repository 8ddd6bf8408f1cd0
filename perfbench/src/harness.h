// Measurement plumbing shared by the three perfbench workloads: wall
// timers, sample statistics, the FNV-1a output digest, the metric table
// printed as the run's result line, and the host probes (STREAM-style
// copy bandwidth, empty ParallelChunks cost, peak RSS).
//
// Nothing here reaches into the library's internals: every layer time a
// workload reports is a stopwatch around a call into a public entry
// point, taken from the benchmark's own files.

#ifndef MDRR_PERFBENCH_HARNESS_H_
#define MDRR_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "mdrr/dataset/dataset.h"

namespace mdrr::perfbench {

// Seconds since construction (or the last Restart) on the steady clock.
class Stopwatch {
 public:
  Stopwatch() : begin_(std::chrono::steady_clock::now()) {}
  void Restart() { begin_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         begin_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point begin_;
};

// Runs `fn` and adds its wall time in seconds to `*total`; returns what
// `fn` returns. The one stopwatch pattern every traced composition uses.
template <typename Fn>
auto Timed(double* total, Fn&& fn) {
  Stopwatch watch;
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    *total += watch.Seconds();
  } else {
    auto result = fn();
    *total += watch.Seconds();
    return result;
  }
}

// Median (mean of the middle pair for even sizes); 0 for no samples.
double Median(std::vector<double> samples);
// Nearest-rank percentile, q in [0, 1]; 0 for no samples.
double Percentile(std::vector<double> samples, double q);

// 64-bit FNV-1a over the little-endian bytes of every value added, in
// order. Datasets hash column by column, doubles by their bit patterns,
// so two digests agree iff the outputs are bit-identical (up to hash
// collisions).
class Fnv1a {
 public:
  void AddU32s(const std::vector<uint32_t>& values);
  void AddDoubles(const std::vector<double>& values);
  void AddDataset(const Dataset& data);
  uint64_t value() const { return state_; }

 private:
  void AddU64(uint64_t value);
  void AddByte(uint8_t byte) {
    state_ ^= byte;
    state_ *= 0x100000001b3ull;
  }
  uint64_t state_ = 0xcbf29ce484222325ull;
};

// Per-attribute true marginal distributions of rows [begin, end) of
// `data` (indices wrap modulo num_rows, as the streaming replay does).
std::vector<std::vector<double>> TrueMarginals(const Dataset& data,
                                               uint64_t begin, uint64_t end);

// Mean over attributes of the total-variation distance
// 0.5 * sum_v |estimate[j][v] - truth[j][v]|. Returns -1 on a shape
// mismatch (an output-check failure, never a valid distance).
double MeanTotalVariation(const std::vector<std::vector<double>>& estimates,
                          const std::vector<std::vector<double>>& truth);

// What one workload run hands back: operation accounting, the failures'
// reasons, and the measured metric values keyed by name.
struct WorkloadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> values;

  // Counts one operation; an empty `error` means it passed.
  void Record(const std::string& error);
  void Set(const std::string& name, double value) { values[name] = value; }
};

// A metric the result line reports.
struct MetricSpec {
  const char* name;
  const char* unit;
};

// The result line: {"correct": ..., "attempted": ..., "failed": ...,
// "metrics": {name: {"value": v, "unit": u}}} over `specs` in order.
// Values print with 17 significant digits (exactly as measured). A
// metric the workload did not measure prints 0 (its layer is not on that
// workload's path). A non-finite value prints as 0 and makes the run
// incorrect, as does any failed operation.
std::string ResultJson(const WorkloadResult& result,
                       const std::vector<MetricSpec>& specs);

// Alternates op(false) and op(true) in a closed loop until `seconds` of
// wall time have passed and side false / true has run at least
// `min_false` / `min_true` times. op(x) returns the wall seconds of its
// timed region; calls are scheduled so that side `true` receives about
// `true_share` of the timed total. Returns the per-side samples: [0] for
// false, [1] for true.
std::vector<std::vector<double>> ClosedLoop(
    double seconds, double true_share, size_t min_false, size_t min_true,
    const std::function<double(bool)>& op);

// Output references of a workload that rotates its releases over several
// engine seeds: the first release at seed index k fixes that seed's
// digest and marginal TV distance, and every later release at k -- at any
// thread or worker count -- must reproduce the digest. Averaging the TV
// over the seeds keeps marginal_tv steady across benchmark seeds.
class SeedReferences {
 public:
  explicit SeedReferences(size_t seeds)
      : digests_(seeds, 0), tv_(seeds, -1.0) {}

  // Returns "" when the release matches (or sets) seed k's reference.
  std::string Check(size_t k, uint64_t digest, double tv);
  uint64_t digest(size_t k) const { return digests_[k]; }
  // Mean TV over the seeds; -1 unless every seed has a reference.
  double MeanTv() const;

 private:
  std::vector<uint64_t> digests_;
  std::vector<double> tv_;  // < 0 until seed k has a reference.
};

// Share of a release's wall time that the traced layers explain, and the
// remainder. `layer_seconds` is the sum of the traced spans (disjoint by
// construction); `wall_seconds` is the release they are held against.
struct Attribution {
  double coverage = 0.0;
  double unaccounted_seconds = 0.0;
};
Attribution Explain(double layer_seconds, double wall_seconds);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// Host probes (traced runs only: the copy arrays would dominate peak
// RSS). StreamCopyGbps runs a STREAM-style a[i] = b[i] copy over two arrays
// of `array_bytes` each on `threads` threads and returns the median
// bandwidth of `reps` passes in GB/s, counting read + write bytes.
double StreamCopyGbps(size_t array_bytes, size_t threads, int reps);
// Last-level cache size in bytes as the OS reports it (0 if unknown).
size_t LastLevelCacheBytes();
// Median wall time, in microseconds, of one ParallelChunks call over
// `threads` chunks of one element each with an empty body.
double ParallelCallMicros(size_t threads, int calls);

}  // namespace mdrr::perfbench

#endif  // MDRR_PERFBENCH_HARNESS_H_
