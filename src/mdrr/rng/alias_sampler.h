// Walker/Vose alias method: O(n) construction, O(1) sampling from a fixed
// discrete distribution. Used for repeated draws from rows of large
// randomization matrices (RR-Joint on clusters with hundreds of categories).

#ifndef MDRR_RNG_ALIAS_SAMPLER_H_
#define MDRR_RNG_ALIAS_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"
#include "mdrr/rng/simd_body.h"

namespace mdrr {

class AliasSampler {
 public:
  // Builds the alias table for the given non-negative weights (need not be
  // normalized; must have positive total mass, and at most UINT32_MAX
  // entries -- alias indices are stored as uint32_t).
  explicit AliasSampler(const std::vector<double>& weights);

  // Draws an index in [0, size()) with probability proportional to its
  // weight. O(1): one uniform integer plus one Bernoulli. Emptiness is
  // guaranteed at construction, so the per-draw size check is debug-only.
  size_t Sample(Rng& rng) const {
    MDRR_DCHECK(!probability_.empty());
    size_t bucket = rng.UniformInt(probability_.size());
    if (rng.UniformDouble() < probability_[bucket]) return bucket;
    return alias_[bucket];
  }

  // Counter-policy draw from one pre-drawn uniform pair (the element
  // block of counter_rng.h). Draw plan, part of the philox transcript
  // contract: bucket = PhiloxBoundedFromRaw(raw, size()); accept iff
  // unit < probability_[bucket], else the bucket's alias. Note the pair
  // is consumed in the opposite order to Sample (bucket from the raw
  // word, acceptance from the unit double) so one element block serves
  // both the structured and the alias kernels of RrMatrix.
  uint32_t SampleFrom(double unit, uint64_t raw) const {
    MDRR_DCHECK(!probability_.empty());
    const uint32_t bucket = static_cast<uint32_t>(
        PhiloxBoundedFromRaw(raw, probability_.size()));
    return unit < probability_[bucket] ? bucket : alias_[bucket];
  }

  // Appends this table's acceptance thresholds and alias indices to flat
  // SoA arrays -- the gather-friendly row-major layout AliasLookupBlock
  // consumes when many tables (e.g. one per RrMatrix row) are fused into
  // one strided lookup.
  void AppendTables(std::vector<double>& thresholds,
                    std::vector<uint32_t>& aliases) const;

  size_t size() const { return probability_.size(); }

 private:
  std::vector<double> probability_;  // Acceptance threshold per bucket.
  std::vector<uint32_t> alias_;      // Fallback index per bucket.
};

// Flat-table alias lookup over pre-drawn uniform pairs: the kernel
// RrMatrix's dense tiles run, with one AppendTables table per input code.
// Each lookup equals AliasSampler::SampleFrom on the selected table.
// `thresholds`/`aliases` are SoA and row-major with stride `bound` (the
// per-row bucket count) over `table_entries` total entries; `rows`
// selects the table per element (nullptr = row 0 for every element).
// For each k in [0, count):
//   bucket = PhiloxBoundedFromRaw(raws[k], bound)
//   idx    = (rows ? rows[k] : 0) * bound + bucket
//   out[k] = units[k] < thresholds[idx] ? bucket : aliases[idx]
// On x86-64 hosts with AVX2 the bucket multiply, the threshold/alias
// gathers and the branch-free select run four lanes at a time
// (runtime-dispatched); the portable body is the same arithmetic, so
// output is bitwise identical regardless of ISA -- the philox transcript
// contract never depends on the host.
void AliasLookupBlock(const double* thresholds, const uint32_t* aliases,
                      uint64_t bound, size_t table_entries,
                      const uint32_t* rows, const double* units,
                      const uint64_t* raws, size_t count, uint32_t* out);

// The same on one named body, so tests check and benchmarks time each
// one. Returns false without writing when the CPU or the compiler lacks
// the body's instructions.
bool AliasLookupBlockOn(SimdBody body, const double* thresholds,
                        const uint32_t* aliases, uint64_t bound,
                        size_t table_entries, const uint32_t* rows,
                        const double* units, const uint64_t* raws,
                        size_t count, uint32_t* out);

// Keep-or-uniform lookup over pre-drawn uniform pairs: the kernel
// RrMatrix's structured (uniform-mixture) tiles run. For each k in
// [0, count):
//   out[k] = units[k] < alpha ? PhiloxBoundedFromRaw(raws[k], bound)
//                             : codes[k]
// Neither body branches on the draw. The AVX2 body runs four lanes a
// step (the bounded draw as two 32 x 32 -> 64 multiplies, exact for
// bound < 2^32; a larger bound runs the portable body), the portable body
// selects through a mask. Both write the same words. Precondition:
// bound > 0.
void KeepUniformBlock(const uint32_t* codes, const double* units,
                      const uint64_t* raws, double alpha, uint64_t bound,
                      size_t count, uint32_t* out);

// KeepUniformBlock on one named body; returns false without writing when
// the CPU or the compiler lacks the body's instructions.
bool KeepUniformBlockOn(SimdBody body, const uint32_t* codes,
                        const double* units, const uint64_t* raws,
                        double alpha, uint64_t bound, size_t count,
                        uint32_t* out);

}  // namespace mdrr

#endif  // MDRR_RNG_ALIAS_SAMPLER_H_
