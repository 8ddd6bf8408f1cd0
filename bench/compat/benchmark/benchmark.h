// Minimal drop-in stand-in for <benchmark/benchmark.h>, used when
// libbenchmark-dev is absent so the microbenches (micro_primitives,
// ablation_matrix_inverse) always build and run instead of being skipped.
//
// Implements exactly the subset of the google-benchmark API this repo
// uses: State iteration, range(), iterations(), SetItemsProcessed,
// SetComplexityN, SkipWithError, DoNotOptimize, ClobberMemory,
// BENCHMARK with ->Arg / ->Args / ->Range /
// ->RangeMultiplier / ->Complexity, BENCHMARK_MAIN, and a
// --benchmark_filter= of '|'-separated substrings (a benchmark runs if its
// name contains any of them; a filter that matches nothing exits 1, so a
// renamed benchmark cannot silently drop out of a run). Timing is
// adaptive (each case is rerun with a growing iteration count until it
// accumulates enough wall time for a stable per-iteration figure).
// Numbers from this harness are comparable run-to-run on one machine, not
// to numbers from the real library.

#ifndef MDRR_BENCH_COMPAT_BENCHMARK_BENCHMARK_H_
#define MDRR_BENCH_COMPAT_BENCHMARK_BENCHMARK_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace benchmark {

// Accepted and recorded for API compatibility; the fallback harness does
// not fit complexity curves.
enum BigO { oNone, o1, oN, oNSquared, oNCubed, oLogN, oNLogN, oAuto };

class State {
 public:
  State(int64_t iterations, std::vector<int64_t> args)
      : remaining_(iterations), iterations_(iterations),
        args_(std::move(args)) {}

  int64_t range(size_t index = 0) const {
    return index < args_.size() ? args_[index] : 0;
  }
  int64_t iterations() const { return iterations_; }
  void SetItemsProcessed(int64_t items) { items_processed_ = items; }
  void SetComplexityN(int64_t n) { complexity_n_ = n; }
  // Marks the case failed; the caller leaves its loop right after.
  void SkipWithError(const char* message) { error_ = message; }
  const std::string& error() const { return error_; }

  // Range-for protocol: `for (auto _ : state)` runs iterations() times
  // with the timer spanning first increment to exhaustion.
  struct Iterator {
    State* state;
    bool operator!=(const Iterator&) const { return state->KeepRunning(); }
    Iterator& operator++() { return *this; }
    int operator*() const { return 0; }
  };
  Iterator begin() { return Iterator{this}; }
  Iterator end() { return Iterator{this}; }

  bool KeepRunning() {
    if (!started_) {
      started_ = true;
      start_ = std::chrono::steady_clock::now();
      return remaining_ > 0;
    }
    if (--remaining_ > 0) return true;
    elapsed_seconds_ = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
    return false;
  }

  double elapsed_seconds() const { return elapsed_seconds_; }
  int64_t items_processed() const { return items_processed_; }
  int64_t complexity_n() const { return complexity_n_; }

 private:
  int64_t remaining_;
  int64_t iterations_;
  std::vector<int64_t> args_;
  int64_t items_processed_ = 0;
  int64_t complexity_n_ = 0;
  bool started_ = false;
  double elapsed_seconds_ = 0.0;
  std::string error_;
  std::chrono::steady_clock::time_point start_;
};

#if defined(__GNUC__) || defined(__clang__)
template <class T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}
template <class T>
inline void DoNotOptimize(T& value) {
  asm volatile("" : "+r,m"(value) : : "memory");
}
inline void ClobberMemory() { asm volatile("" : : : "memory"); }
#else
template <class T>
inline void DoNotOptimize(T const& value) {
  volatile const T* sink = &value;
  (void)sink;
}
inline void ClobberMemory() {}
#endif

namespace internal {

using Function = void (*)(State&);

class Benchmark {
 public:
  Benchmark(std::string name, Function fn)
      : name_(std::move(name)), fn_(fn) {}

  Benchmark* Arg(int64_t value) {
    arg_sets_.push_back({value});
    return this;
  }
  Benchmark* Args(std::vector<int64_t> values) {
    arg_sets_.push_back(std::move(values));
    return this;
  }
  Benchmark* RangeMultiplier(int multiplier) {
    range_multiplier_ = multiplier;
    return this;
  }
  Benchmark* Range(int64_t lo, int64_t hi) {
    for (int64_t v = lo; v < hi; v *= range_multiplier_) {
      arg_sets_.push_back({v});
    }
    arg_sets_.push_back({hi});
    return this;
  }
  Benchmark* Complexity(BigO big_o = oAuto) {
    complexity_ = big_o;
    return this;
  }

  const std::string& name() const { return name_; }
  Function fn() const { return fn_; }
  // One run per registered arg set; a bare BENCHMARK gets one argless run.
  std::vector<std::vector<int64_t>> RunSets() const {
    return arg_sets_.empty()
               ? std::vector<std::vector<int64_t>>{{}}
               : arg_sets_;
  }

 private:
  std::string name_;
  Function fn_;
  std::vector<std::vector<int64_t>> arg_sets_;
  int range_multiplier_ = 8;
  BigO complexity_ = oNone;
};

inline std::vector<Benchmark*>& Registry() {
  static std::vector<Benchmark*> registry;
  return registry;
}

inline Benchmark* RegisterBenchmarkInternal(const char* name, Function fn) {
  Registry().push_back(new Benchmark(name, fn));
  return Registry().back();
}

// Reruns one case with a growing iteration count until it accumulates
// `min_time` seconds, then reports the final (longest) run.
inline void RunOne(const Benchmark& bench,
                   const std::vector<int64_t>& args) {
  std::string label = bench.name();
  for (int64_t a : args) label += "/" + std::to_string(a);

  constexpr double kMinTime = 0.2;
  constexpr int64_t kMaxIterations = int64_t{1} << 30;
  int64_t iterations = 1;
  for (;;) {
    State state(iterations, args);
    bench.fn()(state);
    if (!state.error().empty()) {
      std::printf("%-48s ERROR: %s\n", label.c_str(), state.error().c_str());
      return;
    }
    double elapsed = state.elapsed_seconds();
    if (elapsed >= kMinTime || iterations >= kMaxIterations) {
      double per_iter_ns =
          elapsed / static_cast<double>(iterations) * 1e9;
      std::printf("%-48s %13.1f ns %12lld iters", label.c_str(),
                  per_iter_ns, static_cast<long long>(iterations));
      if (state.items_processed() > 0 && elapsed > 0.0) {
        std::printf(" %10.2f M items/s",
                    static_cast<double>(state.items_processed()) / elapsed /
                        1e6);
      }
      std::printf("\n");
      return;
    }
    // Grow towards kMinTime with headroom, at least doubling.
    double scale = elapsed > 0.0 ? kMinTime / elapsed * 1.4 : 10.0;
    if (scale < 2.0) scale = 2.0;
    if (scale > 10.0) scale = 10.0;
    iterations = static_cast<int64_t>(static_cast<double>(iterations) *
                                      scale) +
                 1;
  }
}

// Whether `name` contains any '|'-separated alternative of `filter`
// (an empty filter matches everything).
inline bool MatchesFilter(const std::string& name, const std::string& filter) {
  if (filter.empty()) return true;
  size_t begin = 0;
  while (true) {
    const size_t end = filter.find('|', begin);
    const std::string part = filter.substr(begin, end - begin);
    if (!part.empty() && name.find(part) != std::string::npos) return true;
    if (end == std::string::npos) return false;
    begin = end + 1;
  }
}

inline int RunAllBenchmarks(int argc, char** argv) {
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    const char* prefix = "--benchmark_filter=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      filter = argv[i] + std::strlen(prefix);
    }
  }
  std::printf("# fallback timer harness (libbenchmark not found at "
              "configure time)\n");
  std::printf("%-48s %16s %18s\n", "benchmark", "time/iter", "iterations");
  size_t matched = 0;
  for (Benchmark* bench : Registry()) {
    if (!MatchesFilter(bench->name(), filter)) continue;
    ++matched;
    for (const std::vector<int64_t>& args : bench->RunSets()) {
      RunOne(*bench, args);
    }
  }
  if (matched == 0) {
    std::fprintf(stderr, "no benchmark matches --benchmark_filter=%s\n",
                 filter.c_str());
    return 1;
  }
  return 0;
}

}  // namespace internal

}  // namespace benchmark

#define MDRR_BENCH_CONCAT_IMPL(a, b) a##b
#define MDRR_BENCH_CONCAT(a, b) MDRR_BENCH_CONCAT_IMPL(a, b)

#define BENCHMARK(fn)                                             \
  static ::benchmark::internal::Benchmark* MDRR_BENCH_CONCAT(     \
      mdrr_benchmark_registration_, __LINE__) =                   \
      ::benchmark::internal::RegisterBenchmarkInternal(#fn, fn)

#define BENCHMARK_MAIN()                                          \
  int main(int argc, char** argv) {                               \
    return ::benchmark::internal::RunAllBenchmarks(argc, argv);   \
  }

#endif  // MDRR_BENCH_COMPAT_BENCHMARK_BENCHMARK_H_
