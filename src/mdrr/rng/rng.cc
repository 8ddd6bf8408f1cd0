#include "mdrr/rng/rng.h"

#include <array>

#include "mdrr/common/check.h"
#include "mdrr/rng/fast_seed.h"

namespace mdrr {

uint64_t SplitMix64Next(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// Expands the seed through SplitMix64 into a full seed sequence so that
// seeds 1, 2, 3, ... give unrelated streams. FourWordSeedSeq is the
// historical std::seed_seq expansion, bit for bit, minus its allocations
// and generic-index arithmetic (fast_seed.h).
std::array<uint32_t, kEngineSeedWords> ExpandSeed(uint64_t seed) {
  std::array<uint32_t, kEngineSeedWords> words;
  FourWordSeedSeq(seed).GenerateEngineWords(words.data());
  return words;
}

}  // namespace

Rng::Rng(uint64_t seed) : engine_(SeedWords{ExpandSeed(seed).data()}) {}

size_t Rng::Discrete(const std::vector<double>& weights) {
  MDRR_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    MDRR_CHECK_GE(w, 0.0);
    total += w;
  }
  MDRR_CHECK_GT(total, 0.0);
  double target = UniformDouble() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return i;
  }
  return weights.size() - 1;  // Guards against floating-point round-off.
}

void Rng::ShuffleU32(uint32_t* data, size_t count) {
  for (size_t k = count; k > 1; --k) {
    size_t j = static_cast<size_t>(UniformInt(k));
    uint32_t tmp = data[k - 1];
    data[k - 1] = data[j];
    data[j] = tmp;
  }
}

RngStreamFamily::RngStreamFamily(uint64_t base_seed)
    : base_seed_(base_seed) {}

uint64_t RngStreamFamily::StreamSeed(uint64_t index) const {
  // Whiten the index before mixing it with the base seed so streams
  // 0, 1, 2, ... are as unrelated as random seeds, then whiten the
  // mixture once more (the Rng constructor expands it further).
  uint64_t index_state = index;
  uint64_t mixed = base_seed_ ^ SplitMix64Next(index_state);
  return SplitMix64Next(mixed);
}

}  // namespace mdrr
