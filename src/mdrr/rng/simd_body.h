// The instruction-set bodies of the rng layer's vector kernels, and the
// one run-time probe that picks between them.
//
// Each kernel with a vector body (the seed-block expansion, the mt19937
// twist and temper, the Philox element fill, the alias lookup and the
// keep-or-uniform select) compiles that body under
// __attribute__((target("avx2"))) inside an MDRR_RNG_X86 block, keeps
// its portable body for every other host, and asks HaveAvx2() once per
// call which one to run. Every body computes
// the same words, so the choice never shows in an output.

#ifndef MDRR_RNG_SIMD_BODY_H_
#define MDRR_RNG_SIMD_BODY_H_

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// This compiler can build target("avx2") bodies next to portable code.
#define MDRR_RNG_X86 1
#endif

namespace mdrr {

// The bodies a vector kernel can run on. Every body writes the same
// words; the *On entry points take one so that tests check each body and
// benchmarks time each one.
enum class SimdBody { kPortable, kAvx2 };

// True when this build has the AVX2 bodies and the CPU runs them. The
// CPU is probed once per process.
inline bool HaveAvx2() {
#ifdef MDRR_RNG_X86
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
#else
  return false;
#endif
}

// The fastest body this host runs.
inline SimdBody BestSimdBody() {
  return HaveAvx2() ? SimdBody::kAvx2 : SimdBody::kPortable;
}

}  // namespace mdrr

#endif  // MDRR_RNG_SIMD_BODY_H_
