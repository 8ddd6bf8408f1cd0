// Shared helpers for the experiment benches: flag checking, dataset
// acquisition (real adult.data if --adult_csv points at one, the
// calibrated synthesizer otherwise) and uniform table formatting.

#ifndef MDRR_BENCH_BENCH_UTIL_H_
#define MDRR_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mdrr/common/flags.h"
#include "mdrr/common/string_util.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/dataset.h"

namespace mdrr::bench {

// What a bench flag's value must parse as.
enum class FlagValue { kText, kPositiveInt, kNonNegativeInt, kReal };

struct BenchFlag {
  const char* key;
  FlagValue value;
};

// Parses argv for a bench that reads exactly the flags in `own`. Exits
// 1, naming the flag, on any other flag and on a value that does not
// parse as its kind: FlagSet's getters would run a typo'd flag or a
// malformed number at its default, and a negative --seed would wrap.
inline FlagSet ParseBenchFlags(int argc, char** argv,
                               const std::vector<BenchFlag>& own) {
  FlagSet flags;
  flags.Parse(argc, argv);
  for (const std::string& key : flags.Keys()) {
    const BenchFlag* flag = nullptr;
    for (const BenchFlag& candidate : own) {
      if (key == candidate.key) flag = &candidate;
    }
    std::string error;
    const std::string value = flags.GetString(key, "");
    if (flag == nullptr) {
      error = "--" + key + " is not a flag of this bench";
    } else if (flag->value == FlagValue::kReal) {
      StatusOr<double> parsed = ParseDouble(value);
      if (!parsed.ok()) error = "--" + key + ": " + parsed.status().message();
    } else if (flag->value != FlagValue::kText) {
      StatusOr<int64_t> parsed = ParseInt64(value);
      const int64_t least = flag->value == FlagValue::kPositiveInt ? 1 : 0;
      if (!parsed.ok()) {
        error = "--" + key + ": " + parsed.status().message();
      } else if (parsed.value() < least) {
        error = "--" + key + " must be at least " + std::to_string(least);
      }
    }
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      std::exit(1);
    }
  }
  return flags;
}

// ParseBenchFlags for a bench that reads the Adult data through
// LoadAdult (--adult_csv/--n/--data_seed) plus the flags in `own`.
inline FlagSet ParseAdultBenchFlags(int argc, char** argv,
                                    const std::vector<BenchFlag>& own) {
  std::vector<BenchFlag> flags = {
      {"adult_csv", FlagValue::kText},
      {"n", FlagValue::kPositiveInt},
      {"data_seed", FlagValue::kNonNegativeInt},
  };
  flags.insert(flags.end(), own.begin(), own.end());
  return ParseBenchFlags(argc, argv, flags);
}

// Resolves the evaluation dataset. Flags:
//   --adult_csv=PATH  load a real UCI adult.data file;
//   --n=N             synthetic record count (default 32561);
//   --data_seed=S     synthesizer seed (default 2020).
inline Dataset LoadAdult(const FlagSet& flags) {
  std::string path = flags.GetString("adult_csv", "");
  if (!path.empty()) {
    auto loaded = LoadAdultCsv(path);
    if (loaded.ok()) {
      std::fprintf(stderr, "# loaded %zu records from %s\n",
                   loaded.value().num_rows(), path.c_str());
      return std::move(loaded).value();
    }
    std::fprintf(stderr, "# failed to load %s (%s); falling back to synth\n",
                 path.c_str(), loaded.status().ToString().c_str());
  }
  size_t n = static_cast<size_t>(
      flags.GetInt("n", static_cast<int64_t>(kAdultNumRecords)));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("data_seed", 2020));
  return SynthesizeAdult(n, seed);
}

// --runs (kPositiveInt). Paper default is 1000 runs; benches default
// lower for CI speed.
inline int RunsFlag(const FlagSet& flags, int default_runs = 25) {
  return static_cast<int>(flags.GetInt("runs", default_runs));
}

inline void PrintHeader(const char* title) {
  std::printf("=== %s ===\n", title);
}

// Wall-clock stopwatch for coarse pipeline timings (the google-benchmark
// microbenches handle the fine-grained ones).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mdrr::bench

#endif  // MDRR_BENCH_BENCH_UTIL_H_
