#include "mdrr/core/rr_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"
#include "mdrr/linalg/lu.h"

namespace mdrr {

namespace {

// The double UniformDouble() makes of the engine word w: the same
// std::uniform_real_distribution, over a generator with the engine's
// range that yields w.
double CanonicalOf(uint64_t w) {
  struct OneWord {
    using result_type = MersenneTwister64::result_type;
    static constexpr result_type min() { return MersenneTwister64::min(); }
    static constexpr result_type max() { return MersenneTwister64::max(); }
    result_type operator()() { return word; }
    result_type word;
  };
  OneWord source{w};
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(source);
}

// The smallest word w with !(CanonicalOf(w) < alpha), by bisection.
// CanonicalOf is nondecreasing in w, so the words below alpha are the
// prefix [0, result). 0 unless alpha is in (0, 1): only those designs
// run the mixed kernel.
uint64_t TakeBelow(double alpha) {
  if (!(alpha > 0.0 && alpha < 1.0)) return 0;
  // CanonicalOf(0) = 0 < alpha, and CanonicalOf(max) is the largest
  // double below 1, which is >= alpha.
  uint64_t below = 0;
  uint64_t at_or_above = std::numeric_limits<uint64_t>::max();
  while (at_or_above - below > 1) {
    const uint64_t mid = below + (at_or_above - below) / 2;
    (CanonicalOf(mid) < alpha ? below : at_or_above) = mid;
  }
  return at_or_above;
}

}  // namespace

RrMatrix::RrMatrix(size_t size, linalg::UniformMixture structured)
    : size_(size),
      structured_(structured),
      // The same product the per-draw path historically evaluated, so the
      // Bernoulli threshold is bit-identical to recomputing it per call.
      structured_alpha_(static_cast<double>(size) *
                        structured.off_diagonal),
      structured_take_below_(TakeBelow(structured_alpha_)) {}

RrMatrix::RrMatrix(size_t size, linalg::Matrix dense)
    : size_(size), dense_(std::move(dense)),
      transpose_lu_(std::make_shared<TransposeLuCell>()) {
  row_samplers_.reserve(size_);
  dense_thresholds_.reserve(size_ * size_);
  dense_aliases_.reserve(size_ * size_);
  for (size_t u = 0; u < size_; ++u) {
    row_samplers_.emplace_back(dense_->Row(u));
    row_samplers_.back().AppendTables(dense_thresholds_, dense_aliases_);
  }
}

RrMatrix RrMatrix::KeepUniform(size_t r, double keep_probability) {
  MDRR_CHECK_GE(r, 1u);
  MDRR_CHECK_GE(keep_probability, 0.0);
  MDRR_CHECK_LE(keep_probability, 1.0);
  double rd = static_cast<double>(r);
  double off = (1.0 - keep_probability) / rd;
  return RrMatrix(
      r, linalg::UniformMixture{r, keep_probability + off, off});
}

RrMatrix RrMatrix::OptimalForEpsilon(size_t r, double epsilon) {
  MDRR_CHECK_GE(r, 1u);
  MDRR_CHECK_GE(epsilon, 0.0);
  double rd = static_cast<double>(r);
  double decay = std::exp(-epsilon);
  double diagonal = 1.0 / (1.0 + (rd - 1.0) * decay);
  return RrMatrix(r, linalg::UniformMixture{r, diagonal, diagonal * decay});
}

RrMatrix RrMatrix::GeometricOrdinal(size_t r, double epsilon) {
  MDRR_CHECK_GE(r, 2u);
  MDRR_CHECK_GT(epsilon, 0.0);
  // Unnormalized weights decay geometrically in the ordinal distance,
  // scaled so the full-range ratio is exactly e^{epsilon}; row
  // normalization preserves every within-column ratio bound because all
  // rows share the same decay profile up to shift.
  double decay = std::exp(-epsilon / static_cast<double>(r - 1));
  linalg::Matrix dense(r, r, 0.0);
  for (size_t u = 0; u < r; ++u) {
    double row_sum = 0.0;
    for (size_t v = 0; v < r; ++v) {
      size_t distance = u > v ? u - v : v - u;
      dense(u, v) = std::pow(decay, static_cast<double>(distance));
      row_sum += dense(u, v);
    }
    for (size_t v = 0; v < r; ++v) dense(u, v) /= row_sum;
  }
  auto result = FromDense(std::move(dense));
  MDRR_CHECK(result.ok());
  return std::move(result).value();
}

StatusOr<RrMatrix> RrMatrix::FromDense(linalg::Matrix p) {
  if (p.rows() != p.cols() || p.rows() == 0) {
    return Status::InvalidArgument("RR matrix must be square and nonempty");
  }
  if (!p.IsRowStochastic(1e-9)) {
    return Status::InvalidArgument(
        "RR matrix rows must be nonnegative and sum to 1");
  }
  // Prefer the structured representation when the shape allows it.
  auto structured = linalg::DetectUniformMixture(p, 1e-12);
  if (structured.ok()) {
    return RrMatrix(p.rows(), structured.value());
  }
  size_t n = p.rows();
  return RrMatrix(n, std::move(p));
}

StatusOr<RrMatrix> RrMatrix::FromStructured(linalg::UniformMixture mixture) {
  if (mixture.size == 0) {
    return Status::InvalidArgument("structured RR matrix must be nonempty");
  }
  if (!std::isfinite(mixture.diagonal) || !std::isfinite(mixture.off_diagonal) ||
      mixture.diagonal < 0.0 || mixture.diagonal > 1.0 ||
      mixture.off_diagonal < 0.0 || mixture.off_diagonal > 1.0) {
    return Status::InvalidArgument(
        "structured RR matrix entries must be probabilities");
  }
  double row_sum = mixture.diagonal +
                   static_cast<double>(mixture.size - 1) * mixture.off_diagonal;
  if (std::abs(row_sum - 1.0) > 1e-9) {
    return Status::InvalidArgument(
        "structured RR matrix rows must sum to 1");
  }
  return RrMatrix(mixture.size, mixture);
}

double RrMatrix::Prob(size_t u, size_t v) const {
  MDRR_CHECK_LT(u, size_);
  MDRR_CHECK_LT(v, size_);
  if (structured_) {
    return u == v ? structured_->diagonal : structured_->off_diagonal;
  }
  return (*dense_)(u, v);
}

linalg::Matrix RrMatrix::ToDense() const {
  if (structured_) return structured_->ToDense();
  return *dense_;
}

std::vector<uint32_t> RrMatrix::RandomizeColumn(
    const std::vector<uint32_t>& codes, Rng& rng) const {
  std::vector<uint32_t> result;
  RandomizeColumnInto(codes, rng, result);
  return result;
}

void RrMatrix::RandomizeColumnInto(const std::vector<uint32_t>& codes,
                                   Rng& rng,
                                   std::vector<uint32_t>& out) const {
  out.resize(codes.size());
  RandomizeRangeInto(codes.data(), codes.size(), rng, out.data(),
                     /*counts=*/nullptr);
}

namespace {

using U128 = unsigned __int128;

// Words the mixed kernel buffers per refill.
constexpr size_t kWordBlock = 1024;

// Finishes Lemire's draw on [0, r) whose first product (word * r) is
// `product`, as libstdc++'s uniform_int_distribution<uint64_t> does: a
// low half below r triggers the exact check against 2^64 mod r, and each
// rejection redraws from the next word -- buffered words[*next, n)
// first, then `source`.
uint64_t FinishBounded(U128 product, uint64_t r, const uint64_t* words,
                       size_t n, size_t* next, WordSource& source) {
  if (static_cast<uint64_t>(product) < r) {
    const uint64_t threshold = (0 - r) % r;
    while (static_cast<uint64_t>(product) < threshold) {
      uint64_t word;
      if (*next < n) {
        word = words[(*next)++];
      } else {
        source.Fill(&word, 1);
      }
      product = static_cast<U128>(word) * r;
    }
  }
  return static_cast<uint64_t>(product >> 64);
}

template <bool kCount>
void MixedRange(uint64_t take_below, uint64_t r, const uint32_t* codes,
                size_t count, WordSource& source, uint32_t* out,
                int64_t* counts) {
  uint64_t words[kWordBlock];
  size_t i = 0;
  while (i < count) {
    // Each element takes at least one word, so n <= count - i words are
    // all consumed by the elements left.
    const size_t n = std::min(kWordBlock, count - i);
    source.Fill(words, n);
    size_t p = 0;  // words[p] is element i's first word.
    while (p + 1 < n) {
      MDRR_DCHECK_LT(codes[i], r);
      const uint64_t take = words[p] < take_below;
      const U128 product = static_cast<U128>(words[p + 1]) * r;
      uint64_t y;
      if (__builtin_expect(static_cast<uint64_t>(product) < r, 0) && take) {
        size_t next = p + 2;
        y = FinishBounded(product, r, words, n, &next, source);
        p = next;
      } else {
        // A mask, not `take ? hi : code`: GCC 12 compiles the conditional
        // to a jump on the random take bit.
        const uint64_t mask = 0 - take;
        y = (static_cast<uint64_t>(product >> 64) & mask) |
            (codes[i] & ~mask);
        p += 1 + take;
      }
      out[i] = static_cast<uint32_t>(y);
      if constexpr (kCount) ++counts[y];
      ++i;
    }
    if (p < n) {  // The last buffered word starts an element.
      MDRR_DCHECK_LT(codes[i], r);
      uint64_t y = codes[i];
      if (words[p] < take_below) {
        uint64_t word;
        source.Fill(&word, 1);
        size_t next = n;
        y = FinishBounded(static_cast<U128>(word) * r, r, words, n, &next,
                          source);
      }
      out[i] = static_cast<uint32_t>(y);
      if constexpr (kCount) ++counts[y];
      ++i;
    }
  }
}

// An engine's words, a block at a time.
class EngineWords final : public WordSource {
 public:
  explicit EngineWords(MersenneTwister64& engine) : engine_(engine) {}
  void Fill(uint64_t* words, size_t n) override {
    engine_.Generate(words, n);
  }

 private:
  MersenneTwister64& engine_;
};

}  // namespace

void RrMatrix::RandomizeMixedRangeInto(const uint32_t* codes, size_t count,
                                       WordSource& words, uint32_t* out,
                                       int64_t* counts) const {
  // Dense matrices keep structured_alpha_ at 0, so this also checks
  // is_structured().
  MDRR_DCHECK(structured_alpha_ > 0.0 && structured_alpha_ < 1.0);
  if (counts == nullptr) {
    MixedRange<false>(structured_take_below_, size_, codes, count, words, out,
                      nullptr);
  } else {
    MixedRange<true>(structured_take_below_, size_, codes, count, words, out,
                     counts);
  }
}

void RrMatrix::RandomizeMixedRangeInto(const uint32_t* codes, size_t count,
                                       Rng& rng, uint32_t* out,
                                       int64_t* counts) const {
  EngineWords words(rng.engine());
  RandomizeMixedRangeInto(codes, count, words, out, counts);
}

namespace {

// The histogram of a call's outputs, added into counts[0, r) (nullptr:
// nothing is counted). Consecutive increments of one category would form
// a store-to-load chain through one counter, so up to
// RrMatrix::kSplitCountDomain categories element k goes to sub-histogram
// k mod 4, interleaved as split_[4 * y + k mod 4], and Finish adds the
// four into counts; a larger domain, or a call too short to pay for
// clearing and summing 4r counters, counts directly. Integer sums
// commute, so the counts are the same either way.
class OutputCounts {
 public:
  OutputCounts(size_t r, size_t count, int64_t* counts)
      : r_(r),
        counts_(counts),
        split_active_(counts != nullptr &&
                      r <= RrMatrix::kSplitCountDomain && count >= 4 * r) {
    if (split_active_) std::fill_n(split_, 4 * r_, int64_t{0});
  }

  void Add(const uint32_t* ys, size_t n) {
    if (counts_ == nullptr) return;
    if (!split_active_) {
      for (size_t k = 0; k < n; ++k) ++counts_[ys[k]];
      return;
    }
    size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      ++split_[4 * static_cast<size_t>(ys[k])];
      ++split_[4 * static_cast<size_t>(ys[k + 1]) + 1];
      ++split_[4 * static_cast<size_t>(ys[k + 2]) + 2];
      ++split_[4 * static_cast<size_t>(ys[k + 3]) + 3];
    }
    for (; k < n; ++k) ++split_[4 * static_cast<size_t>(ys[k])];
  }

  void Finish() {
    if (!split_active_) return;
    for (size_t y = 0; y < r_; ++y) {
      counts_[y] += (split_[4 * y] + split_[4 * y + 1]) +
                    (split_[4 * y + 2] + split_[4 * y + 3]);
    }
  }

 private:
  const size_t r_;
  int64_t* const counts_;
  const bool split_active_;
  int64_t split_[4 * RrMatrix::kSplitCountDomain];
};

}  // namespace

void RrMatrix::RandomizeRangeCounterInto(const uint32_t* codes, size_t count,
                                         uint64_t seed, uint64_t stream,
                                         uint64_t first_element, uint32_t* out,
                                         int64_t* counts) const {
  // Fixed-size SoA staging: a tile's draws are filled in one pass
  // (PhiloxFillElementDraws, sixteen elements a step on AVX2), then one
  // branch-free block kernel picks the outputs -- KeepUniformBlock for a
  // structured design (four lanes a step on AVX2), AliasLookupBlock's
  // gathers over the flattened per-row tables for a dense one -- and the
  // tile's outputs are counted. The tile size is invisible in the
  // output: draws are addressed by element index. An identity design
  // (alpha <= 0) copies its codes and generates no blocks.
  constexpr size_t kTile = 512;
  double units[kTile];
  uint64_t raws[kTile];
  const bool identity = structured_ && structured_alpha_ <= 0.0;
  OutputCounts tally(size_, count, counts);
  for (size_t tile = 0; tile < count; tile += kTile) {
    const size_t len = count - tile < kTile ? count - tile : kTile;
#ifndef NDEBUG
    for (size_t k = 0; k < len; ++k) MDRR_DCHECK_LT(codes[tile + k], size_);
#endif
    if (identity) {
      std::copy_n(codes + tile, len, out + tile);
    } else {
      PhiloxFillElementDraws(seed, stream, first_element + tile, len, units,
                             raws);
      if (structured_) {
        KeepUniformBlock(codes + tile, units, raws, structured_alpha_, size_,
                         len, out + tile);
      } else {
        AliasLookupBlock(dense_thresholds_.data(), dense_aliases_.data(),
                         size_, dense_thresholds_.size(), codes + tile, units,
                         raws, len, out + tile);
      }
    }
    tally.Add(out + tile, len);
  }
  tally.Finish();
}

double RrMatrix::Epsilon() const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (structured_) {
    if (size_ == 1) return 0.0;
    double hi = std::max(structured_->diagonal, structured_->off_diagonal);
    double lo = std::min(structured_->diagonal, structured_->off_diagonal);
    if (hi == lo) return 0.0;
    if (lo <= 0.0) return kInf;
    return std::log(hi / lo);
  }
  double worst_ratio = 1.0;
  for (size_t v = 0; v < size_; ++v) {
    double hi = 0.0;
    double lo = kInf;
    for (size_t u = 0; u < size_; ++u) {
      double p = (*dense_)(u, v);
      hi = std::max(hi, p);
      lo = std::min(lo, p);
    }
    if (hi == 0.0) continue;  // All-zero column constrains nothing.
    if (lo <= 0.0) return kInf;
    worst_ratio = std::max(worst_ratio, hi / lo);
  }
  return std::log(worst_ratio);
}

double RrMatrix::ConditionNumber() const {
  if (structured_) {
    double min_eig = structured_->MinEigenvalue();
    if (min_eig <= 0.0) return std::numeric_limits<double>::infinity();
    return structured_->MaxEigenvalue() / min_eig;
  }
  // Power iteration on PᵀP for the largest singular value; inverse power
  // iteration (via LU solves on PᵀP) for the smallest. Both loops stop
  // early once the norm estimate stops moving in relative terms -- the
  // common case converges in a handful of iterations, and 200 is only
  // the pathological-spectrum cap.
  constexpr int kMaxIterations = 200;
  constexpr double kRelativeTolerance = 1e-13;
  const linalg::Matrix& p = *dense_;
  linalg::Matrix pt = p.Transpose();
  linalg::Matrix gram = pt.MatMul(p);
  std::vector<double> v(size_, 1.0 / std::sqrt(static_cast<double>(size_)));
  double sigma_max_sq = 0.0;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    std::vector<double> w = gram.MatVec(v);
    double norm = 0.0;
    for (double x : w) norm += x * x;
    norm = std::sqrt(norm);
    if (norm == 0.0) break;
    for (size_t i = 0; i < size_; ++i) v[i] = w[i] / norm;
    double previous = sigma_max_sq;
    sigma_max_sq = norm;
    if (iter > 0 && std::fabs(norm - previous) <= kRelativeTolerance * norm) {
      break;
    }
  }
  auto lu = linalg::LuDecomposition::Factor(gram);
  if (!lu.ok()) return std::numeric_limits<double>::infinity();
  std::vector<double> u(size_, 1.0 / std::sqrt(static_cast<double>(size_)));
  double inv_sigma_min_sq = 0.0;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    std::vector<double> w = lu.value().Solve(u);
    double norm = 0.0;
    for (double x : w) norm += x * x;
    norm = std::sqrt(norm);
    if (norm == 0.0) break;
    for (size_t i = 0; i < size_; ++i) u[i] = w[i] / norm;
    double previous = inv_sigma_min_sq;
    inv_sigma_min_sq = norm;
    if (iter > 0 && std::fabs(norm - previous) <= kRelativeTolerance * norm) {
      break;
    }
  }
  if (inv_sigma_min_sq == 0.0) return std::numeric_limits<double>::infinity();
  return std::sqrt(sigma_max_sq * inv_sigma_min_sq);
}

const StatusOr<linalg::LuDecomposition>& RrMatrix::TransposeFactors(
    size_t factor_threads) const {
  // Factor Pᵀ once, on first use; afterwards every solve is an O(r²)
  // substitution and never re-materializes the transpose. The blocked
  // factorization is bit-identical for any thread count, so whichever
  // caller runs the once-block produces the same cached factors.
  TransposeLuCell& cell = *transpose_lu_;
  std::call_once(cell.once, [this, &cell, factor_threads] {
    linalg::LuOptions options;
    options.num_threads = factor_threads;
    cell.factors =
        linalg::LuDecomposition::Factor(dense_->Transpose(), options);
  });
  return cell.factors;
}

StatusOr<std::vector<double>> RrMatrix::SolveTranspose(
    const std::vector<double>& b, size_t factor_threads) const {
  if (b.size() != size_) {
    return Status::InvalidArgument("vector size does not match matrix size");
  }
  if (structured_) {
    // Structured matrices are symmetric, so Pᵀ = P.
    return structured_->ApplyInverse(b);
  }
  const StatusOr<linalg::LuDecomposition>& factors =
      TransposeFactors(factor_threads);
  if (!factors.ok()) return factors.status();
  return factors.value().Solve(b);
}

StatusOr<std::vector<std::vector<double>>> RrMatrix::SolveTransposeMany(
    const std::vector<std::vector<double>>& bs, size_t num_threads) const {
  for (const std::vector<double>& b : bs) {
    if (b.size() != size_) {
      return Status::InvalidArgument("vector size does not match matrix size");
    }
  }
  if (bs.empty()) return std::vector<std::vector<double>>{};
  if (structured_) {
    // Surface singularity (and the denormal floor) once, up front; the
    // per-RHS ApplyInverse calls below then cannot fail.
    if (auto inverse = structured_->ClosedFormInverse(); !inverse.ok()) {
      return inverse.status();
    }
    std::vector<std::vector<double>> solutions(bs.size());
    ParallelChunks(bs.size(), /*chunk_size=*/1, num_threads,
                   [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                       size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       // Cannot fail: sizes and singularity were checked.
                       auto solved = structured_->ApplyInverse(bs[i]);
                       MDRR_CHECK(solved.ok());
                       solutions[i] = std::move(solved).value();
                     }
                   });
    return solutions;
  }
  const StatusOr<linalg::LuDecomposition>& factors =
      TransposeFactors(num_threads);
  if (!factors.ok()) return factors.status();
  return factors.value().SolveMany(bs, num_threads);
}

}  // namespace mdrr
