#include "mdrr/rng/mersenne_twister.h"

#include <algorithm>
#include <cstring>

#include "mdrr/rng/simd_body.h"

namespace mdrr {

namespace {

// mt19937_64 parameters ([rand.predef]).
constexpr size_t kN = MersenneTwister64::kStateWords;
constexpr size_t kM = 156;
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

// Everything the two loops below call is always_inline, so that each
// target body (portable, AVX2) compiles the whole loop for its own ISA.
#define MDRR_MT_INLINE __attribute__((always_inline)) inline

// Branch-free: a conditional `(y & 1) ? kMatrixA : 0` compiles to a
// jump on a random bit that mispredicts on about half the words.
MDRR_MT_INLINE uint64_t TwistWord(uint64_t upper, uint64_t lower,
                                  uint64_t far) {
  const uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return far ^ (y >> 1) ^ (kMatrixA & (uint64_t{0} - (y & 1)));
}

// Twists words [begin, end) of the cycle in place. Word k reads the old
// words k and k+1 and word (k+m) mod n, which for k >= n-m is already
// twisted -- the standard loop's order, so any split of [0, n) into
// ascending ranges gives the standard state.
MDRR_MT_INLINE void TwistRangeBody(uint64_t* x, size_t begin, size_t end) {
  size_t k = begin;
  for (const size_t stop = std::min(end, kN - kM); k < stop; ++k) {
    x[k] = TwistWord(x[k], x[k + 1], x[k + kM]);
  }
  for (const size_t stop = std::min(end, kN - 1); k < stop; ++k) {
    x[k] = TwistWord(x[k], x[k + 1], x[k + kM - kN]);
  }
  if (k < end) x[kN - 1] = TwistWord(x[kN - 1], x[0], x[kM - 1]);
}

MDRR_MT_INLINE void TemperRunBody(const uint64_t* x, size_t n,
                                  uint64_t* out) {
  for (size_t k = 0; k < n; ++k) out[k] = MersenneTwister64::Temper(x[k]);
}

#undef MDRR_MT_INLINE

// Both loops are word-independent integer arithmetic, which AVX2 runs
// four words wide: sustained Generate goes from about 2.5 to 1.2 ns per
// word (4-core Xeon VM, GCC 12, Release). Either body computes the same
// words; the AVX2 one runs where the CPU has it.
#ifdef MDRR_RNG_X86
__attribute__((target("avx2"))) void TwistRangeAvx2(uint64_t* x,
                                                    size_t begin,
                                                    size_t end) {
  TwistRangeBody(x, begin, end);
}

__attribute__((target("avx2"))) void TemperRunAvx2(const uint64_t* x,
                                                   size_t n, uint64_t* out) {
  TemperRunBody(x, n, out);
}
#endif

void TwistRange(uint64_t* x, size_t begin, size_t end) {
#ifdef MDRR_RNG_X86
  if (HaveAvx2()) {
    TwistRangeAvx2(x, begin, end);
    return;
  }
#endif
  TwistRangeBody(x, begin, end);
}

void TemperRun(const uint64_t* x, size_t n, uint64_t* out) {
#ifdef MDRR_RNG_X86
  if (HaveAvx2()) {
    TemperRunAvx2(x, n, out);
    return;
  }
#endif
  TemperRunBody(x, n, out);
}

}  // namespace

void MersenneTwister64::seed(result_type value) {
  state_[0] = value;
  for (size_t i = 1; i < kN; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  next_ = 0;
  ready_ = 0;
  rest_ = SeedWords{nullptr, 0};
}

void MersenneTwister64::LoadStateWords(SeedWords seed_words, size_t begin,
                                       size_t end) {
  // State word i is seed words 2i (low half) and 2i+1 (high half): on a
  // little-endian host, a contiguous view's own bytes.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  if (seed_words.stride == 1) {
    std::memcpy(state_ + begin, seed_words.words + 2 * begin,
                (end - begin) * sizeof(uint64_t));
    return;
  }
#endif
  for (size_t i = begin; i < end; ++i) {
    state_[i] = seed_words[2 * i] | (uint64_t{seed_words[2 * i + 1]} << 32);
  }
}

void MersenneTwister64::seed(SeedWords seed_words) {
  LoadStateWords(seed_words, 0, kN);
  uint64_t rest = 0;
  for (size_t i = 1; i < kN; ++i) rest |= state_[i];
  // An all-zero state would never leave zero; the standard replaces it.
  if ((state_[0] & kUpperMask) == 0 && rest == 0) {
    state_[0] = uint64_t{1} << 63;
  }
  next_ = 0;
  ready_ = 0;
  rest_ = SeedWords{nullptr, 0};
}

void MersenneTwister64::SeedDeferred(SeedWords seed_words) {
  // The first chunk's twist of word k reads words k, k+1 and k+m.
  static_assert(kFirstChunk + 1 <= kM, "the two ranges are disjoint");
  LoadStateWords(seed_words, 0, kFirstChunk + 1);
  LoadStateWords(seed_words, kM, kM + kFirstChunk);
  uint64_t read = state_[0] & kUpperMask;
  for (size_t i = 1; i <= kFirstChunk; ++i) read |= state_[i];
  for (size_t i = kM; i < kM + kFirstChunk; ++i) read |= state_[i];
  if (read == 0) {
    // Possibly the all-zero state, which only every word can rule out.
    seed(seed_words);
    return;
  }
  next_ = 0;
  ready_ = 0;
  rest_ = seed_words;
}

void MersenneTwister64::discard(unsigned long long count) {
  while (count > 0) {
    if (next_ >= ready_) Twist();
    const unsigned long long step =
        std::min<unsigned long long>(count, ready_ - next_);
    next_ += static_cast<uint32_t>(step);
    count -= step;
  }
}

void MersenneTwister64::Generate(uint64_t* out, size_t n) {
  while (n > 0) {
    if (next_ >= ready_) Twist();
    const size_t step = std::min<size_t>(n, ready_ - next_);
    TemperRun(state_ + next_, step, out);
    next_ += static_cast<uint32_t>(step);
    out += step;
    n -= step;
  }
}

void MersenneTwister64::Twist() {
  if (ready_ == 0) {
    TwistRange(state_, 0, kFirstChunk);
    ready_ = kFirstChunk;
  } else if (ready_ < kN) {
    if (rest_.words != nullptr) {
      LoadStateWords(rest_, kFirstChunk + 1, kM);
      LoadStateWords(rest_, kM + kFirstChunk, kN);
      rest_ = SeedWords{nullptr, 0};
    }
    TwistRange(state_, ready_, kN);
    ready_ = kN;
  } else {
    TwistRange(state_, 0, kN);
    next_ = 0;
  }
}

}  // namespace mdrr
