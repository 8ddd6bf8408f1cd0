// Column-major categorical microdata. Every protocol in the paper touches
// whole attribute columns (randomize attribute j for all parties, count
// frequencies of attribute j, ...), so columns are stored contiguously.

#ifndef MDRR_DATASET_DATASET_H_
#define MDRR_DATASET_DATASET_H_

#include <cstdint>
#include <vector>

#include "mdrr/dataset/attribute.h"

namespace mdrr {

class Dataset {
 public:
  Dataset() = default;

  // Takes ownership of pre-built columns. Preconditions: one column per
  // schema attribute, equal column lengths, codes within cardinality
  // (validated; CHECK-fails on violation).
  Dataset(std::vector<Attribute> schema,
          std::vector<std::vector<uint32_t>> columns);

  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return schema_.size(); }

  const std::vector<Attribute>& schema() const { return schema_; }
  const Attribute& attribute(size_t j) const;

  const std::vector<uint32_t>& column(size_t j) const;
  uint32_t at(size_t row, size_t j) const;

  // Replaces column j (same length as num_rows, codes within cardinality).
  void SetColumn(size_t j, std::vector<uint32_t> codes);

  // In-place write access to column j for zero-allocation rewrite passes
  // (per-round randomized publications, sharded decode). The caller takes
  // over SetColumn's invariant: every code written must stay below the
  // attribute's cardinality, and the column length must not change.
  // Randomization kernels satisfy this by construction (outputs are drawn
  // from [0, cardinality)).
  std::vector<uint32_t>& MutableColumn(size_t j);

  // A dataset consisting of this dataset repeated `times` times -- the
  // paper's Adult6 construction (Section 6.5).
  Dataset Tiled(size_t times) const;

  // A dataset with only the selected attributes (columns are copied).
  Dataset Project(const std::vector<size_t>& attribute_indices) const;

  // Cardinalities of all attributes, in schema order.
  std::vector<int64_t> Cardinalities() const;

 private:
  std::vector<Attribute> schema_;
  std::vector<std::vector<uint32_t>> columns_;
  size_t num_rows_ = 0;
};

}  // namespace mdrr

#endif  // MDRR_DATASET_DATASET_H_
