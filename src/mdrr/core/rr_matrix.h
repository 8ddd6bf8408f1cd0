// Randomization matrices for randomized response (Section 2.1).
//
// An RrMatrix is an r x r row-stochastic matrix P with
// p_uv = Pr(Y = v | X = u). Every matrix used in the paper has the
// "uniform mixture" shape p_u I + p_d (J - I) (Section 2.3), for which
// randomization, inversion and eigenvalues all have O(1)/O(r) closed
// forms; a dense fallback supports arbitrary designs.

#ifndef MDRR_CORE_RR_MATRIX_H_
#define MDRR_CORE_RR_MATRIX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "mdrr/common/check.h"
#include "mdrr/common/status_or.h"
#include "mdrr/linalg/lu.h"
#include "mdrr/linalg/matrix.h"
#include "mdrr/linalg/structured.h"
#include "mdrr/rng/alias_sampler.h"
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

class RrMatrix {
 public:
  // --- Structured constructors (uniform-mixture shape) ---

  // "Keep with probability p, otherwise report a uniform draw from the
  // whole domain": diagonal p + (1-p)/r, off-diagonal (1-p)/r. This is the
  // randomization of Proposition 1 / Corollary 1 and the per-attribute
  // design of Section 6.3.1.
  static RrMatrix KeepUniform(size_t r, double keep_probability);

  // The differential-privacy-optimal design at level `epsilon` (Sections
  // 2.2/6.3.2; k-ary randomized response): diagonal
  // p = 1 / (1 + (r - 1) e^{-eps}), off-diagonal p e^{-eps}.
  static RrMatrix OptimalForEpsilon(size_t r, double epsilon);

  // Distance-sensitive design for ordinal attributes (the paper's
  // Section 8 future-work direction): a geometric/staircase mechanism
  // with p_uv proportional to exp(-epsilon |u - v| / (r - 1)), rows
  // normalized. Its Expression (4) epsilon is exactly `epsilon`, but the
  // protection is *graded by distance* (metric-privacy style): adjacent
  // categories are indistinguishable up to e^{epsilon/(r-1)} while only
  // the extreme pair reaches e^{epsilon}. At equal adjacent-category
  // protection this design reports values much closer to the truth than
  // KeepUniform; at equal worst-case epsilon, KeepUniform keeps the exact
  // value more often. Pick by the privacy contract you need.
  static RrMatrix GeometricOrdinal(size_t r, double epsilon);

  // --- Dense constructor ---

  // Arbitrary design. Fails unless `p` is square, row-stochastic and
  // nonnegative (tolerance 1e-9).
  static StatusOr<RrMatrix> FromDense(linalg::Matrix p);

  // Rebuilds a structured matrix from its three parameters verbatim --
  // the wire codec (net/wire.h) ships {size, diagonal, off_diagonal}
  // instead of a densified copy so a decoded matrix draws bit-identically
  // to the original (ToDense + FromDense would re-detect, but this skips
  // the float round trip entirely). Fails unless the mixture is a valid
  // row-stochastic design: size >= 1, entries finite, in [0, 1], and
  // diagonal + (size - 1) * off_diagonal within 1e-9 of 1.
  static StatusOr<RrMatrix> FromStructured(linalg::UniformMixture mixture);

  size_t size() const { return size_; }
  bool is_structured() const { return structured_.has_value(); }

  // The structured parameters when is_structured(), nullopt otherwise.
  // Paired with FromStructured for exact matrix transport.
  const std::optional<linalg::UniformMixture>& structured() const {
    return structured_;
  }

  // p_uv = Pr(Y = v | X = u).
  double Prob(size_t u, size_t v) const;

  // Dense materialization (tests, generic code paths).
  linalg::Matrix ToDense() const;

  // Draws Y given X = u. O(1) for structured matrices (one Bernoulli plus
  // at most one uniform draw, against the mixing weight precomputed at
  // construction), O(1) via alias tables for dense ones. Inline: this is
  // the innermost operation of every publication sweep. Precondition
  // u < size() is checked in debug builds only -- callers own the code
  // range (protocol code ranges come from Domain/Dataset invariants).
  uint32_t Randomize(uint32_t u, Rng& rng) const {
    MDRR_DCHECK_LT(u, size_);
    if (structured_) {
      // Row = (1 - alpha) delta_u + alpha Uniform(r).
      if (rng.Bernoulli(structured_alpha_)) {
        return static_cast<uint32_t>(rng.UniformInt(size_));
      }
      return u;
    }
    return static_cast<uint32_t>(row_samplers_[u].Sample(rng));
  }

  // Vectorized Randomize over a whole column of codes.
  std::vector<uint32_t> RandomizeColumn(const std::vector<uint32_t>& codes,
                                        Rng& rng) const;

  // RandomizeColumn into a caller-owned buffer (resized to codes.size()),
  // so repeated per-round publications reuse one allocation instead of
  // minting a fresh column each pass. Draw-for-draw identical to
  // RandomizeColumn.
  void RandomizeColumnInto(const std::vector<uint32_t>& codes, Rng& rng,
                           std::vector<uint32_t>& out) const;

  // Randomizes the slice codes[0, count) into out[0, count) and, if
  // `counts` is non-null, accumulates the frequency of each output
  // category into counts[0, size()). The slice form lets a shard worker
  // hand in its part of a shared column or a standalone buffer alike
  // (PerturbShard in core/frequency_oracle.h).
  //
  // The structured design splits into three loops keyed off the mixing
  // weight alpha = r * off_diagonal: alpha <= 0 copies (an identity design
  // draws nothing), alpha >= 1 replaces every code with a uniform draw,
  // and the mixed case runs the buffered kernel RandomizeMixedRangeInto
  // out of line. The draw sequence is exactly the per-element Randomize
  // loop's, and so is the engine state left behind. The per-element
  // precondition codes[i] < size() is debug-only, like Randomize's.
  void RandomizeRangeInto(const uint32_t* codes, size_t count, Rng& rng,
                          uint32_t* out, int64_t* counts) const {
    if (!structured_) {
      for (size_t i = 0; i < count; ++i) {
        uint32_t y =
            static_cast<uint32_t>(row_samplers_[codes[i]].Sample(rng));
        out[i] = y;
        if (counts != nullptr) ++counts[y];
      }
      return;
    }
    const double alpha = structured_alpha_;
    if (alpha <= 0.0) {  // Identity design: Bernoulli(0) consumes no draw.
      for (size_t i = 0; i < count; ++i) {
        uint32_t y = codes[i];
        MDRR_DCHECK_LT(y, size_);
        out[i] = y;
        if (counts != nullptr) ++counts[y];
      }
      return;
    }
    if (alpha >= 1.0) {  // Uniform replacement: Bernoulli(1), no draw.
      for (size_t i = 0; i < count; ++i) {
        uint32_t y = static_cast<uint32_t>(rng.UniformInt(size_));
        out[i] = y;
        if (counts != nullptr) ++counts[y];
      }
      return;
    }
    RandomizeMixedRangeInto(codes, count, rng, out, counts);
  }

  // The mixed-alpha structured kernel (0 < alpha < 1) over any source of
  // 64-bit words: RandomizeRangeInto runs it on the Rng's engine, tests
  // on scripted words. Its transcript is libstdc++'s over mt19937_64,
  // word for word: per element, Bernoulli(alpha) is generate_canonical's
  // double(w) / 2^64 < alpha, which for the element's first word w is the
  // integer compare w < structured_take_below_; a taken element then
  // draws Lemire's uniform int on [0, r) -- hi64(w' * r) of the next word
  // w', rejected while lo64(w' * r) < 2^64 mod r -- and a kept one draws
  // nothing more. The kernel buffers up to 1024 words at a time and picks
  // each element's output without a branch, but never draws more words
  // than elements remain, since every element takes at least one: the
  // engine is left exactly where the per-element loop leaves it.
  // Precondition: is_structured() with alpha in (0, 1).
  void RandomizeMixedRangeInto(const uint32_t* codes, size_t count,
                               WordSource& words, uint32_t* out,
                               int64_t* counts) const;

  // Counter-policy (philox) analogue of RandomizeRangeInto: randomizes
  // the slice codes[0, count) into out[0, count), where slice element k
  // is column element first_element + k and draws its randomness from
  // ITS OWN 128-bit block of stream (seed, stream) -- the element layout
  // of counter_rng.h. Because the draw plan is addressed by element
  // index, never by consumption order, the output is a pure function of
  // (matrix, codes, seed, stream): any tiling of a column -- any shard
  // grain, thread count, or internal chunking -- produces bit-identical
  // columns. Draw plan per element (fixed budget, one block each,
  // branches never shift later elements):
  //   structured, alpha > 0:   y = unit < alpha ? bounded(r) : code
  //   structured, alpha <= 0:  y = code   (block never generated)
  //   dense:                   y = row_samplers_[code].SampleFrom
  // (at alpha >= 1 every unit in [0, 1) is below alpha, so the first line
  // replaces every code). This is a DIFFERENT documented transcript from
  // the mt19937 kernels above; the two policies never share streams.
  void RandomizeRangeCounterInto(const uint32_t* codes, size_t count,
                                 uint64_t seed, uint64_t stream,
                                 uint64_t first_element, uint32_t* out,
                                 int64_t* counts) const;

  // The largest domain whose RandomizeRangeCounterInto counts go through
  // four interleaved sub-histograms (so repeats of one category do not
  // queue on one counter's store); larger domains count directly. The
  // counts are the same either way.
  static constexpr size_t kSplitCountDomain = 256;

  // Single-element counter draw: exactly what RandomizeRangeCounterInto
  // computes for `element`, exposed for per-report paths (streaming
  // ingest randomizes one record's attributes without buffering a
  // column). Precondition u < size() is debug-only, like Randomize's.
  uint32_t RandomizeCounter(uint32_t u, uint64_t seed, uint64_t stream,
                            uint64_t element) const {
    MDRR_DCHECK_LT(u, size_);
    // Identity design: the block is never generated.
    if (structured_ && structured_alpha_ <= 0.0) return u;
    const PhiloxBlock block = PhiloxElementBlock(seed, stream, element);
    return RandomizeFrom(
        u,
        PhiloxUnitFromU64((static_cast<uint64_t>(block.w[1]) << 32) |
                          block.w[0]),
        (static_cast<uint64_t>(block.w[3]) << 32) | block.w[2]);
  }

  // The counter draw of input u from an element's pre-drawn unit double
  // and raw word (PhiloxFillElementDraws' pair): the draw plan of
  // RandomizeRangeCounterInto, for callers that draw a tile of elements at
  // once. Precondition u < size() is debug-only, like Randomize's.
  uint32_t RandomizeFrom(uint32_t u, double unit, uint64_t raw) const {
    MDRR_DCHECK_LT(u, size_);
    if (structured_) {
      return unit < structured_alpha_
                 ? static_cast<uint32_t>(PhiloxBoundedFromRaw(raw, size_))
                 : u;
    }
    return row_samplers_[u].SampleFrom(unit, raw);
  }

  // The differential privacy level of Expression (4):
  // eps = ln max_v (max_u p_uv / min_u p_uv). +inf if any column contains
  // a zero below a positive entry.
  double Epsilon() const;

  // Pmax / Pmin: the eigenvalue-ratio error-propagation bound of
  // Section 2.3. Closed form for structured matrices; dense matrices
  // fall back to the ratio of extreme singular-value estimates obtained
  // by power iteration with a relative-change early exit (capped at 200
  // iterations).
  double ConditionNumber() const;

  // Solves Pᵀ x = b -- the core of the Eq. (2) estimator. O(r) for
  // structured matrices (no factorization, ever); for dense ones the Pᵀ
  // LU factorization is computed lazily on the first solve (blocked,
  // `factor_threads` workers, O(r³); randomize-only matrices never pay
  // it) and every solve afterwards is an O(r²) substitution against the
  // cached factors. The blocked factorization is bit-identical for any
  // thread count, so the shared cache never depends on which caller won
  // the race. Thread-safe; copies share the cache. Fails on singular P.
  StatusOr<std::vector<double>> SolveTranspose(const std::vector<double>& b,
                                               size_t factor_threads = 1) const;

  // Batched Pᵀ x_i = b_i: factors once (dense) or checks singularity once
  // (structured), then runs the independent per-RHS solves in parallel.
  // Bit-identical to looping SolveTranspose, for any `num_threads`
  // (0 = one worker per core). Fails on any size mismatch or singular P.
  StatusOr<std::vector<std::vector<double>>> SolveTransposeMany(
      const std::vector<std::vector<double>>& bs, size_t num_threads) const;

 private:
  RrMatrix(size_t size, linalg::UniformMixture structured);
  RrMatrix(size_t size, linalg::Matrix dense);

  // RandomizeMixedRangeInto over the Rng's engine.
  void RandomizeMixedRangeInto(const uint32_t* codes, size_t count, Rng& rng,
                               uint32_t* out, int64_t* counts) const;

  size_t size_;
  // Exactly one of the two representations is active.
  std::optional<linalg::UniformMixture> structured_;
  // Structured representation only: the uniform-mixture weight
  // alpha = size * off_diagonal, hoisted out of the per-element Randomize
  // so hot loops never recompute it.
  double structured_alpha_ = 0.0;
  // For alpha in (0, 1): the smallest engine word whose canonical double
  // is not below alpha, so UniformDouble() < alpha on word w is exactly
  // w < structured_take_below_ (found by bisection at construction).
  uint64_t structured_take_below_ = 0;
  std::optional<linalg::Matrix> dense_;
  // Alias samplers per row (dense representation only).
  std::vector<AliasSampler> row_samplers_;
  // The same per-row alias tables flattened into one r x r row-major SoA
  // pair (row = input code, stride = size_), built once at construction
  // so the counter-policy dense tiles can gather per-element rows through
  // AliasLookupBlock instead of chasing row_samplers_[code] indirections.
  // Values are byte-for-byte the per-row tables', so routing through the
  // flat lookup is bitwise identical to per-row SampleFrom.
  std::vector<double> dense_thresholds_;
  std::vector<uint32_t> dense_aliases_;
  // Lazily cached LU factors of Pᵀ (dense representation only), built
  // under the cell's once-flag on the first SolveTranspose. The cell is
  // held through a shared_ptr so RrMatrix stays copyable and every copy
  // shares one flag AND one cache; the dense matrix is immutable, so
  // sharing is safe.
  struct TransposeLuCell {
    std::once_flag once;
    StatusOr<linalg::LuDecomposition> factors =
        Status::FailedPrecondition("unfactored");
  };
  // Builds (or reuses) the cached Pᵀ factors. Dense representation only.
  const StatusOr<linalg::LuDecomposition>& TransposeFactors(
      size_t factor_threads) const;

  std::shared_ptr<TransposeLuCell> transpose_lu_;
};

}  // namespace mdrr

#endif  // MDRR_CORE_RR_MATRIX_H_
