// Mixed-radix indexing of the Cartesian product of a set of attributes.
// RR-Joint and RR-Clusters treat a tuple of attribute values as a single
// composite category; Domain maps tuples <-> composite codes in O(k).

#ifndef MDRR_DATASET_DOMAIN_H_
#define MDRR_DATASET_DOMAIN_H_

#include <cstdint>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/dataset/dataset.h"

namespace mdrr {

class Domain {
 public:
  // Builds a domain over the given per-position cardinalities.
  // Precondition: every cardinality >= 1 and the product fits in uint64_t
  // (CHECK-fails on overflow; callers bound cluster size with Tv anyway).
  explicit Domain(std::vector<size_t> cardinalities);

  // Domain of the selected attributes of `dataset`, in the given order.
  static Domain ForAttributes(const Dataset& dataset,
                              const std::vector<size_t>& attribute_indices);

  // Product of the selected attributes' cardinalities, computed in
  // unsigned 64-bit with per-multiply overflow detection. Returns
  // InvalidArgument when the product exceeds 2^64 - 1 (or an attribute
  // has no categories) instead of wrapping or CHECK-aborting, so protocol
  // size guards can reject oversized requests gracefully *before*
  // constructing a Domain. Note the accumulation order matches the
  // constructor's (last position first).
  static StatusOr<uint64_t> CheckedSizeForAttributes(
      const Dataset& dataset, const std::vector<size_t>& attribute_indices);

  size_t num_positions() const { return cardinalities_.size(); }
  const std::vector<size_t>& cardinalities() const { return cardinalities_; }

  // Mixed-radix weights: Encode sums strides()[i] * tuple[i], DecodeAt
  // divides by strides()[position]. Exposed so batched kernels can fuse
  // encode/decode into their sweeps with identical arithmetic.
  const std::vector<uint64_t>& strides() const { return strides_; }

  // Total number of composite categories (the product).
  uint64_t size() const { return size_; }

  // tuple -> composite code. Precondition: tuple[i] < cardinalities[i].
  uint64_t Encode(const std::vector<uint32_t>& tuple) const;

  // composite code -> tuple. Precondition: code < size().
  std::vector<uint32_t> Decode(uint64_t code) const;

  // Value at `position` of the tuple encoded by `code`, without
  // materializing the whole tuple.
  uint32_t DecodeAt(uint64_t code, size_t position) const;

  // Composite codes of the selected attributes for every record of
  // `dataset` (attribute order must match this domain's construction).
  std::vector<uint32_t> ComposeColumns(
      const Dataset& dataset,
      const std::vector<size_t>& attribute_indices) const;

  // Marginalizes a distribution over this domain onto one position:
  // out[v] = sum of dist[code] over codes whose position value is v.
  std::vector<double> MarginalizeTo(const std::vector<double>& distribution,
                                    size_t position) const;

  // Marginalizes onto an ordered subset of positions, producing a
  // distribution over the sub-domain formed by those positions.
  std::vector<double> MarginalizeToSubset(
      const std::vector<double>& distribution,
      const std::vector<size_t>& positions) const;

 private:
  std::vector<size_t> cardinalities_;
  std::vector<uint64_t> strides_;  // strides_[i]: weight of position i.
  uint64_t size_;
};

// Decodes one position of a column of composite codes into an attribute
// column, sharded over `num_threads` workers (0 = one per core) in
// chunks of `chunk_size` rows. Each code's quotient by the position's
// stride and remainder by its cardinality come from an exact 32-bit
// multiply-shift (equal to DecodeAt), and a one-position domain copies
// its codes. The decode draws no randomness and each row writes its own
// slot, so the output is bit-identical at any thread count; the chunk
// size is a pure load-balancing grain. The one decode loop shared by the
// clusters frame, the joint mechanism, synthesis and the session
// controller. CHECK-fails unless every code < domain.size() and the
// position's stride and cardinality fit in 32 bits.
std::vector<uint32_t> DecodeColumnSharded(const Domain& domain,
                                          const std::vector<uint32_t>& codes,
                                          size_t position, size_t chunk_size,
                                          size_t num_threads);

}  // namespace mdrr

#endif  // MDRR_DATASET_DOMAIN_H_
