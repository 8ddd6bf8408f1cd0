// Local-differential-privacy frequency oracles: the protocol family of
// Wang et al. (USENIX Security 2017), cited by the paper as [29], plus
// the RAPPOR-style unary encodings of its related work (Section 7).
//
// FrequencyOracle is the pluggable per-attribute backend seam: one
// interface covering encode/randomize-range-into-counts/estimate, with a
// batched counter-RNG entry point mirroring
// RrMatrix::RandomizeRangeCounterInto so every backend works under both
// RNG policies and all execution policies. The k-ary randomized-response
// path (DirectEncodingOracle) is the reference instance: its batched
// entry points delegate 1:1 to the RrMatrix kernels, so routing the
// existing release paths through the oracle leaves every committed
// transcript bit-identical.
//
//   * DirectEncodingOracle  -- k-ary randomized response (the paper's
//     optimal matrix); the only backend whose reports are themselves
//     microdata codes. Estimation variance grows with the domain size r.
//   * UnaryEncodingOracle   -- one-hot encoding with per-bit flips.
//     Symmetric parameters (SUE, basic RAPPOR) or the optimized ones
//     (OUE), whose variance is independent of r.
//   * LocalHashingOracle    -- OLH: each respondent hashes into
//     g = floor(e^eps) + 1 buckets with a private per-report hash seed,
//     then runs GRR over the buckets. OUE-grade variance at O(1) report
//     size instead of O(r) bits.
//
// All frequency-only backends (everything but direct encoding) release
// no microdata: they make the comparison the paper's related work
// discusses concrete -- at equal epsilon, how much frequency accuracy
// does the microdata-capable mechanism give up?

#ifndef MDRR_CORE_FREQUENCY_ORACLE_H_
#define MDRR_CORE_FREQUENCY_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

// The selectable per-attribute backend. Tokens (spec files, CLI --oracle)
// follow the Wang et al. abbreviations: de | sue | oue | olh.
enum class OracleBackend : uint8_t {
  kDirect,          // k-ary randomized response (the default RR path).
  kSymmetricUnary,  // SUE / basic RAPPOR.
  kOptimizedUnary,  // OUE.
  kLocalHashing,    // OLH.
};

const char* ToString(OracleBackend backend);
StatusOr<OracleBackend> OracleBackendFromString(std::string_view token);

// One per-attribute frequency-oracle backend over a domain of r
// categories at privacy level epsilon.
//
// The batched entry points fuse randomize+count over a slice of records,
// in the two draw disciplines the engine layers use:
//
//   * AccumulateRange draws sequentially from one Rng in record order
//     (the mt19937 policy; shard workers each own a stream);
//   * AccumulateRangeCounter draws element-addressed philox blocks of
//     stream (seed, stream), so output is a pure function of the
//     randomness address -- any shard grain or thread count produces
//     identical counts (the contract of RandomizeRangeCounterInto).
//
// Both take the slice as codes[0, count); `out` receives the randomized
// microdata codes at out[0, count). Only produces_microdata() backends
// write it, and for them it is required; frequency-only backends
// contribute counts alone and callers pass nullptr. Shards of a column
// reach these through PerturbShard below, which owns the shard -> stream
// mapping.
//
// Implementations are immutable after construction and safe to share
// across threads (each call site owns its Rng or randomness address).
class FrequencyOracle {
 public:
  virtual ~FrequencyOracle() = default;

  virtual OracleBackend backend() const = 0;
  size_t domain_size() const { return r_; }
  double epsilon() const { return epsilon_; }
  // The two response probabilities of the unified Wang et al. analysis:
  // p = Pr[report supports the true value], q = Pr[report supports a
  // given false value].
  double p() const { return p_; }
  double q() const { return q_; }

  // Whether randomized reports are themselves codes in [0, r) -- true
  // only for direct encoding, the microdata-capable backend.
  virtual bool produces_microdata() const { return false; }

  // Fused randomize+count over codes[0, count), drawing sequentially
  // from `rng`. `counts` (size r, may be null) accumulates per-category
  // support counts; `out` is written only when produces_microdata().
  virtual void AccumulateRange(const uint32_t* codes, size_t count, Rng& rng,
                               uint32_t* out, int64_t* counts) const = 0;

  // Counter-policy analogue: slice record k is column record
  // first_record + k and draws from that record's own element block(s)
  // of philox stream (seed, stream), mirroring
  // RrMatrix::RandomizeRangeCounterInto. Each backend documents its
  // per-record element budget; budgets are fixed (branch-independent) so
  // the draw plan never depends on data, shard grain, or thread count.
  virtual void AccumulateRangeCounter(const uint32_t* codes, size_t count,
                                      uint64_t seed, uint64_t stream,
                                      uint64_t first_record, uint32_t* out,
                                      int64_t* counts) const = 0;

  // Unbiased closed-form inversion of the observed support distribution
  // lambda (size r): pi_v = (lambda_v - q) / (p - q). Entries may leave
  // [0, 1]; callers wanting a proper distribution apply ProjectToSimplex.
  // DirectEncodingOracle overrides this to route through the structured
  // Eq. (2) estimator (core/estimator), the single implementation of the
  // inversion for RR matrices.
  virtual StatusOr<std::vector<double>> EstimateFromLambda(
      const std::vector<double>& lambda) const;

  // Convenience: support counts over n reports -> lambda -> estimate.
  // The per-entry division is the streaming window arithmetic.
  StatusOr<std::vector<double>> EstimateFrequencies(
      const std::vector<int64_t>& counts, int64_t n) const;

  // Estimator variance for a category with true frequency pi_v at sample
  // size n (Wang et al.'s unified form across all their oracles):
  //   Var = q(1-q)/(n (p-q)^2) + pi_v (1 - p - q)/(n (p - q)).
  double TheoreticalVariance(double pi_v, int64_t n) const;

 protected:
  FrequencyOracle(size_t r, double epsilon) : r_(r), epsilon_(epsilon) {}

  size_t r_;
  double epsilon_;
  double p_ = 0.0;  // Set by each backend's constructor.
  double q_ = 0.0;
};

// k-ary randomized response as a frequency oracle: the reference
// instance. Both batched entry points delegate to the RrMatrix kernels,
// draw for draw, so a release routed through this oracle is bit-identical
// to one calling the matrix directly.
class DirectEncodingOracle : public FrequencyOracle {
 public:
  // The differential-privacy-optimal design at `epsilon`.
  // Preconditions: r >= 2, epsilon > 0.
  DirectEncodingOracle(size_t r, double epsilon);

  // Wraps an arbitrary randomization design (KeepUniform, geometric
  // ordinal, ...) as an oracle; epsilon is the matrix's Expression (4)
  // level. This is how the existing release paths route their designed
  // matrices through the seam.
  explicit DirectEncodingOracle(RrMatrix matrix);

  OracleBackend backend() const override { return OracleBackend::kDirect; }
  bool produces_microdata() const override { return true; }
  const RrMatrix& matrix() const { return matrix_; }

  // One respondent's randomized report.
  uint32_t Randomize(uint32_t value, Rng& rng) const;

  using FrequencyOracle::EstimateFrequencies;
  // Unbiased frequency estimates from the reported codes. Routed through
  // the structured Eq. (2) estimator -- the closed form it evaluates for
  // uniform-mixture matrices is the (lambda - q)/(p - q) inversion.
  StatusOr<std::vector<double>> EstimateFrequencies(
      const std::vector<uint32_t>& reports) const;

  void AccumulateRange(const uint32_t* codes, size_t count, Rng& rng,
                       uint32_t* out, int64_t* counts) const override;
  void AccumulateRangeCounter(const uint32_t* codes, size_t count,
                              uint64_t seed, uint64_t stream,
                              uint64_t first_record, uint32_t* out,
                              int64_t* counts) const override;
  StatusOr<std::vector<double>> EstimateFromLambda(
      const std::vector<double>& lambda) const override;

 private:
  RrMatrix matrix_;
};

// One-hot (unary) encoding with independent per-bit randomization.
// Draw discipline: record i flips bit v with the v-th draw of its
// per-record sweep (sequential Rng) / element i * r + v (counter policy;
// r elements per record).
class UnaryEncodingOracle : public FrequencyOracle {
 public:
  enum class Variant {
    kSymmetric,  // SUE / basic RAPPOR: p = e^{eps/2}/(e^{eps/2}+1), q = 1-p.
    kOptimized,  // OUE: p = 1/2, q = 1/(e^{eps}+1).
  };

  // Preconditions: r >= 2, epsilon > 0.
  UnaryEncodingOracle(size_t r, double epsilon, Variant variant);

  OracleBackend backend() const override {
    return variant_ == Variant::kSymmetric ? OracleBackend::kSymmetricUnary
                                           : OracleBackend::kOptimizedUnary;
  }
  Variant variant() const { return variant_; }

  // One respondent's randomized bit vector (length r): bit v keeps its
  // one-hot value with probability p (if 1) / flips to 1 with
  // probability q (if 0).
  std::vector<uint8_t> Randomize(uint32_t value, Rng& rng) const;

  void AccumulateRange(const uint32_t* codes, size_t count, Rng& rng,
                       uint32_t* out, int64_t* counts) const override;
  void AccumulateRangeCounter(const uint32_t* codes, size_t count,
                              uint64_t seed, uint64_t stream,
                              uint64_t first_record, uint32_t* out,
                              int64_t* counts) const override;

 private:
  Variant variant_;
};

// Optimized local hashing (OLH, Wang et al. Section 5): each respondent
// draws a private hash seed, hashes the true value into
// g = floor(e^eps) + 1 buckets, and reports GRR over the buckets. The
// aggregator counts, for each candidate value v, the reports whose hash
// of v equals the reported bucket (support counts); the inversion uses
// p* = the bucket-GRR diagonal and q* = 1/g.
//
// Draw discipline: record i consumes one full-entropy u64 for its hash
// seed, then one GRR draw over the buckets -- sequentially two mt19937
// positions, or counter elements 2i (raw channel = seed) and 2i + 1 (the
// bucket GRR's own element block). Two elements per record, fixed budget.
class LocalHashingOracle : public FrequencyOracle {
 public:
  // Preconditions: r >= 2, epsilon > 0.
  LocalHashingOracle(size_t r, double epsilon);

  OracleBackend backend() const override {
    return OracleBackend::kLocalHashing;
  }
  size_t num_buckets() const { return g_; }

  // The per-report hash family: a SplitMix64-finalizer mix of
  // (hash_seed, value), reduced to [0, num_buckets) with the same
  // fixed-budget multiplicative reduction the counter kernels use.
  // Deterministic and platform-independent -- part of the transcript
  // contract.
  static uint32_t HashBucket(uint64_t hash_seed, uint32_t value,
                             size_t num_buckets);

  void AccumulateRange(const uint32_t* codes, size_t count, Rng& rng,
                       uint32_t* out, int64_t* counts) const override;
  void AccumulateRangeCounter(const uint32_t* codes, size_t count,
                              uint64_t seed, uint64_t stream,
                              uint64_t first_record, uint32_t* out,
                              int64_t* counts) const override;

 private:
  size_t g_;       // Hash range: max(2, floor(e^eps) + 1), capped.
  RrMatrix grr_;   // GRR over the g buckets at the same epsilon.
};

// Constructs the backend at (r, epsilon). Fails on r < 2 or a
// non-finite / non-positive epsilon.
StatusOr<std::unique_ptr<FrequencyOracle>> MakeFrequencyOracle(
    OracleBackend backend, size_t r, double epsilon);

// Where one column's randomness lives (the layout across columns is
// stated once, in core/batch_engine.h). Under kMt19937 shard s of the
// column draws RngStreamFamily(seed).Stream(stream_base + s) in record
// order, so the shard grain is part of the address; under kPhilox
// record i draws element i of philox stream (seed, counter_stream) and
// the grain drops out.
struct ColumnAddress {
  RngKind rng = RngKind::kMt19937;
  uint64_t seed = 0;
  uint64_t stream_base = 0;
  uint64_t counter_stream = 0;
};

// The one shard kernel: perturbs shard `shard_index` of a column, whose
// records first_record .. first_record + count - 1 arrive as the slice
// codes[0, count), at `address`. `out` (microdata backends only, else
// null) receives the slice's randomized codes; `counts` (size r, may be
// null) accumulates support counts. Every sharded column perturbation --
// the engine's fan-out, a distributed worker's slices, the dependence
// rounds -- goes through here, so a shard draws the same
// randomness wherever it runs.
void PerturbShard(const FrequencyOracle& oracle, const ColumnAddress& address,
                  uint64_t shard_index, uint64_t first_record,
                  const uint32_t* codes, size_t count, uint32_t* out,
                  int64_t* counts);

// One column's worth of oracle reports: support counts (exact integer
// sums over all shards), their proportions, and -- for microdata-capable
// backends only -- the randomized codes.
struct OracleColumnResult {
  std::vector<uint32_t> codes;  // Empty unless produces_microdata().
  std::vector<int64_t> counts;
  std::vector<double> lambda;  // counts / n (per-entry division).
};

// Fans PerturbShard over `codes` in shards of `shard_size` records
// (shard s = records [s * shard_size, min(n, (s + 1) * shard_size))) on
// up to `num_threads` workers (0 = one per core). Counts accumulate per
// worker and merge after the join; integer sums commute, so the result
// is bit-identical for any thread count. Precondition: shard_size > 0.
OracleColumnResult PerturbColumnSharded(const FrequencyOracle& oracle,
                                        const std::vector<uint32_t>& codes,
                                        const ColumnAddress& address,
                                        size_t shard_size,
                                        size_t num_threads);

}  // namespace mdrr

#endif  // MDRR_CORE_FREQUENCY_ORACLE_H_
