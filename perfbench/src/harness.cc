#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "mdrr/common/parallel.h"

namespace mdrr::perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

void Fnv1a::AddU64(uint64_t value) {
  for (int i = 0; i < 8; ++i) AddByte(static_cast<uint8_t>(value >> (8 * i)));
}

void Fnv1a::AddU32s(const std::vector<uint32_t>& values) {
  AddU64(values.size());
  for (uint32_t v : values) {
    AddByte(static_cast<uint8_t>(v));
    AddByte(static_cast<uint8_t>(v >> 8));
    AddByte(static_cast<uint8_t>(v >> 16));
    AddByte(static_cast<uint8_t>(v >> 24));
  }
}

void Fnv1a::AddDoubles(const std::vector<double>& values) {
  AddU64(values.size());
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    AddU64(bits);
  }
}

void Fnv1a::AddDataset(const Dataset& data) {
  AddU64(data.num_attributes());
  for (size_t j = 0; j < data.num_attributes(); ++j) AddU32s(data.column(j));
}

std::vector<std::vector<double>> TrueMarginals(const Dataset& data,
                                               uint64_t begin, uint64_t end) {
  const size_t rows = data.num_rows();
  std::vector<std::vector<double>> marginals(data.num_attributes());
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    std::vector<int64_t> counts(data.attribute(j).cardinality(), 0);
    const std::vector<uint32_t>& column = data.column(j);
    for (uint64_t s = begin; s < end; ++s) {
      ++counts[column[static_cast<size_t>(s % rows)]];
    }
    marginals[j].resize(counts.size());
    for (size_t v = 0; v < counts.size(); ++v) {
      marginals[j][v] = static_cast<double>(counts[v]) /
                        static_cast<double>(end - begin);
    }
  }
  return marginals;
}

double MeanTotalVariation(const std::vector<std::vector<double>>& estimates,
                          const std::vector<std::vector<double>>& truth) {
  if (estimates.size() != truth.size() || truth.empty()) return -1.0;
  double sum = 0.0;
  for (size_t j = 0; j < truth.size(); ++j) {
    if (estimates[j].size() != truth[j].size()) return -1.0;
    double tv = 0.0;
    for (size_t v = 0; v < truth[j].size(); ++v) {
      tv += std::fabs(estimates[j][v] - truth[j][v]);
    }
    sum += 0.5 * tv;
  }
  return sum / static_cast<double>(truth.size());
}

void WorkloadResult::Record(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  failures.push_back(error);
}

std::string ResultJson(const WorkloadResult& result,
                       const std::vector<MetricSpec>& specs) {
  bool finite = true;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = result.values.find(spec.name);
    double value = it == result.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      finite = false;
      value = 0.0;
    }
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " + buffer +
               ", \"unit\": \"" + spec.unit + "\"}";
  }
  const bool correct = finite && result.failed == 0 && result.attempted > 0;
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

std::vector<std::vector<double>> ClosedLoop(
    double seconds, double true_share, size_t min_false, size_t min_true,
    const std::function<double(bool)>& op) {
  std::vector<std::vector<double>> samples(2);
  double spent[2] = {0.0, 0.0};
  const double share[2] = {1.0 - true_share, true_share};
  Stopwatch loop;
  while (loop.Seconds() < seconds || samples[0].size() < min_false ||
         samples[1].size() < min_true) {
    // The side furthest behind its share of the timed total goes next;
    // past the deadline, only a side still short of its minimum runs.
    int side = spent[1] * share[0] < spent[0] * share[1] ? 1 : 0;
    if (loop.Seconds() >= seconds) side = samples[0].size() < min_false ? 0 : 1;
    const double elapsed = op(side == 1);
    samples[static_cast<size_t>(side)].push_back(elapsed);
    spent[side] += elapsed;
  }
  for (size_t side = 0; side < 2; ++side) {
    const std::vector<double>& s = samples[side];
    if (s.empty()) continue;
    std::fprintf(stderr,
                 "# loop side %zu: n=%zu median=%.4fs min=%.4fs max=%.4fs\n",
                 side, s.size(), Median(s),
                 *std::min_element(s.begin(), s.end()),
                 *std::max_element(s.begin(), s.end()));
  }
  return samples;
}

std::string SeedReferences::Check(size_t k, uint64_t digest, double tv) {
  if (tv_[k] < 0.0) {
    digests_[k] = digest;
    tv_[k] = tv;
    return "";
  }
  if (digest == digests_[k]) return "";
  return "release at engine seed #" + std::to_string(k) +
         " differs from the first release at that seed";
}

double SeedReferences::MeanTv() const {
  double sum = 0.0;
  for (double tv : tv_) {
    if (tv < 0.0) return -1.0;
    sum += tv;
  }
  return sum / static_cast<double>(tv_.size());
}

Attribution Explain(double layer_seconds, double wall_seconds) {
  Attribution attribution;
  attribution.unaccounted_seconds = wall_seconds - layer_seconds;
  attribution.coverage =
      wall_seconds > 0.0 ? layer_seconds / wall_seconds : 0.0;
  return attribution;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double StreamCopyGbps(size_t array_bytes, size_t threads, int reps) {
  const size_t n = array_bytes / sizeof(double);
  std::vector<double> a(n, 1.0);
  std::vector<double> b(n, 2.0);
  threads = std::max<size_t>(1, threads);
  auto copy_pass = [&]() {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t]() {
        const size_t begin = n * t / threads;
        const size_t end = n * (t + 1) / threads;
        std::memcpy(a.data() + begin, b.data() + begin,
                    (end - begin) * sizeof(double));
      });
    }
    for (std::thread& worker : workers) worker.join();
  };
  copy_pass();  // Fault every page in before timing.
  std::vector<double> rates;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    copy_pass();
    rates.push_back(2.0 * static_cast<double>(n * sizeof(double)) /
                    watch.Seconds() / 1e9);
  }
  if (a[n / 2] != b[n / 2]) return 0.0;  // Keeps the copies observable.
  return Median(rates);
}

size_t LastLevelCacheBytes() {
  for (int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                   _SC_LEVEL2_CACHE_SIZE}) {
    const long size = sysconf(name);
    if (size > 0) return static_cast<size_t>(size);
  }
  return 0;
}

double ParallelCallMicros(size_t threads, int calls) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(calls));
  for (int call = 0; call < calls; ++call) {
    Stopwatch watch;
    ParallelChunks(threads, 1, threads,
                   [](size_t, size_t, size_t, size_t) {});
    samples.push_back(watch.Seconds() * 1e6);
  }
  return Median(samples);
}

}  // namespace mdrr::perfbench
