// Shared helpers for the experiment benches: the Adult flags, dataset
// acquisition (real adult.data if --adult_csv points at one, the
// calibrated synthesizer otherwise) and uniform table formatting.

#ifndef MDRR_BENCH_BENCH_UTIL_H_
#define MDRR_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "mdrr/common/flags.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/dataset.h"

namespace mdrr::bench {

// The flag table of a bench that reads the Adult data through LoadAdult:
// the flags in `own` plus --adult_csv, --n and --data_seed.
inline std::vector<FlagDef> AdultFlags(std::vector<FlagDef> own) {
  own.insert(own.end(), {TextFlag("adult_csv"), UintFlag("n", 1),
                         UintFlag("data_seed")});
  return own;
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
  return SynthesizeAdult(flags.GetUint64("n", kAdultNumRecords),
                         flags.GetUint64("data_seed", 2020));
}

// --runs, declared as kRunsFlag. Paper default is 1000 runs; benches
// default lower for CI speed.
inline constexpr FlagDef kRunsFlag = UintFlag("runs", 1, INT_MAX);
inline int RunsFlag(const FlagSet& flags, int default_runs = 25) {
  return static_cast<int>(flags.GetUint64("runs", default_runs));
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
