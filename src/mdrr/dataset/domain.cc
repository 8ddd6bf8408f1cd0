#include "mdrr/dataset/domain.h"

#include <algorithm>
#include <limits>
#include <string>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"

namespace mdrr {

Domain::Domain(std::vector<size_t> cardinalities)
    : cardinalities_(std::move(cardinalities)) {
  MDRR_CHECK(!cardinalities_.empty());
  strides_.resize(cardinalities_.size());
  uint64_t product = 1;
  // Last position varies fastest (row-major tuple order).
  for (size_t i = cardinalities_.size(); i-- > 0;) {
    MDRR_CHECK_GE(cardinalities_[i], 1u);
    strides_[i] = product;
    uint64_t card = cardinalities_[i];
    MDRR_CHECK_LE(product, std::numeric_limits<uint64_t>::max() / card);
    product *= card;
  }
  size_ = product;
}

Domain Domain::ForAttributes(const Dataset& dataset,
                             const std::vector<size_t>& attribute_indices) {
  std::vector<size_t> cardinalities;
  cardinalities.reserve(attribute_indices.size());
  for (size_t j : attribute_indices) {
    cardinalities.push_back(dataset.attribute(j).cardinality());
  }
  return Domain(std::move(cardinalities));
}

StatusOr<uint64_t> Domain::CheckedSizeForAttributes(
    const Dataset& dataset, const std::vector<size_t>& attribute_indices) {
  uint64_t product = 1;
  for (size_t i = attribute_indices.size(); i-- > 0;) {
    uint64_t card = dataset.attribute(attribute_indices[i]).cardinality();
    if (card == 0) {
      return Status::InvalidArgument(
          "attribute " + std::to_string(attribute_indices[i]) +
          " has no categories");
    }
    if (product > std::numeric_limits<uint64_t>::max() / card) {
      return Status::InvalidArgument(
          "product domain over " + std::to_string(attribute_indices.size()) +
          " attributes overflows 64 bits");
    }
    product *= card;
  }
  return product;
}

uint64_t Domain::Encode(const std::vector<uint32_t>& tuple) const {
  MDRR_CHECK_EQ(tuple.size(), cardinalities_.size());
  uint64_t code = 0;
  for (size_t i = 0; i < tuple.size(); ++i) {
    MDRR_CHECK_LT(tuple[i], cardinalities_[i]);
    code += strides_[i] * tuple[i];
  }
  return code;
}

std::vector<uint32_t> Domain::Decode(uint64_t code) const {
  MDRR_CHECK_LT(code, size_);
  std::vector<uint32_t> tuple(cardinalities_.size());
  for (size_t i = 0; i < cardinalities_.size(); ++i) {
    tuple[i] = static_cast<uint32_t>((code / strides_[i]) % cardinalities_[i]);
  }
  return tuple;
}

uint32_t Domain::DecodeAt(uint64_t code, size_t position) const {
  MDRR_CHECK_LT(code, size_);
  MDRR_CHECK_LT(position, cardinalities_.size());
  return static_cast<uint32_t>((code / strides_[position]) %
                               cardinalities_[position]);
}

std::vector<uint32_t> Domain::ComposeColumns(
    const Dataset& dataset,
    const std::vector<size_t>& attribute_indices) const {
  MDRR_CHECK_EQ(attribute_indices.size(), cardinalities_.size());
  // Composite codes are stored as uint32_t records: clusters are bounded by
  // Tv in practice, far below 2^32.
  MDRR_CHECK_LE(size_, static_cast<uint64_t>(
                           std::numeric_limits<uint32_t>::max()));
  std::vector<uint32_t> composite(dataset.num_rows(), 0);
  for (size_t i = 0; i < attribute_indices.size(); ++i) {
    const std::vector<uint32_t>& col = dataset.column(attribute_indices[i]);
    uint64_t stride = strides_[i];
    for (size_t row = 0; row < col.size(); ++row) {
      composite[row] += static_cast<uint32_t>(stride * col[row]);
    }
  }
  return composite;
}

std::vector<uint32_t> DecodeColumnSharded(const Domain& domain,
                                          const std::vector<uint32_t>& codes,
                                          size_t position, size_t chunk_size,
                                          size_t num_threads) {
  MDRR_CHECK_LT(position, domain.num_positions());
  constexpr uint64_t kMax32 = std::numeric_limits<uint32_t>::max();
  const uint64_t size = domain.size();
  const uint64_t stride = domain.strides()[position];
  const uint64_t cardinality = domain.cardinalities()[position];
  MDRR_CHECK_LE(stride, kMax32);
  MDRR_CHECK_LE(cardinality, kMax32);
  // Exact 32-bit quotients and remainders by multiply-shift (Lemire,
  // Kaser & Kurz, "Faster Remainder by Direct Computation", 2019): with
  // m = ceil(2^64 / d) for d >= 2, floor(x / d) is the high word of m * x
  // and x % d the high word of (m * x mod 2^64) * d, for every x < 2^32.
  // A stride of 1 divides nothing.
  const uint64_t div_magic = stride == 1 ? 0 : ~uint64_t{0} / stride + 1;
  const uint64_t mod_magic = ~uint64_t{0} / cardinality + 1;
  using u128 = unsigned __int128;
  std::vector<uint32_t> column(codes.size());
  ParallelChunks(
      codes.size(), chunk_size, num_threads,
      [&](size_t /*worker*/, size_t /*chunk*/, size_t begin, size_t end) {
        uint32_t max_code = 0;
        if (domain.num_positions() == 1) {
          for (size_t row = begin; row < end; ++row) {
            max_code = std::max(max_code, codes[row]);
            column[row] = codes[row];
          }
        } else {
          for (size_t row = begin; row < end; ++row) {
            const uint32_t code = codes[row];
            max_code = std::max(max_code, code);
            const uint64_t quotient =
                stride == 1 ? code
                            : static_cast<uint64_t>(
                                  (static_cast<u128>(div_magic) * code) >> 64);
            const uint64_t low = mod_magic * quotient;
            column[row] = static_cast<uint32_t>(
                (static_cast<u128>(low) * cardinality) >> 64);
          }
        }
        MDRR_CHECK_LT(max_code, size);
      });
  return column;
}

std::vector<double> Domain::MarginalizeTo(
    const std::vector<double>& distribution, size_t position) const {
  MDRR_CHECK_EQ(distribution.size(), size_);
  MDRR_CHECK_LT(position, cardinalities_.size());
  std::vector<double> marginal(cardinalities_[position], 0.0);
  for (uint64_t code = 0; code < size_; ++code) {
    marginal[DecodeAt(code, position)] += distribution[code];
  }
  return marginal;
}

std::vector<double> Domain::MarginalizeToSubset(
    const std::vector<double>& distribution,
    const std::vector<size_t>& positions) const {
  MDRR_CHECK_EQ(distribution.size(), size_);
  std::vector<size_t> sub_cards;
  sub_cards.reserve(positions.size());
  for (size_t p : positions) {
    MDRR_CHECK_LT(p, cardinalities_.size());
    sub_cards.push_back(cardinalities_[p]);
  }
  Domain sub_domain(sub_cards);
  std::vector<double> result(sub_domain.size(), 0.0);
  std::vector<uint32_t> sub_tuple(positions.size());
  for (uint64_t code = 0; code < size_; ++code) {
    for (size_t i = 0; i < positions.size(); ++i) {
      sub_tuple[i] = DecodeAt(code, positions[i]);
    }
    result[sub_domain.Encode(sub_tuple)] += distribution[code];
  }
  return result;
}

}  // namespace mdrr
