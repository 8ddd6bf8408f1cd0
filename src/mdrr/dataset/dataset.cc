#include "mdrr/dataset/dataset.h"

#include <utility>

#include "mdrr/common/check.h"

namespace mdrr {

Dataset::Dataset(std::vector<Attribute> schema,
                 std::vector<std::vector<uint32_t>> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  MDRR_CHECK_EQ(schema_.size(), columns_.size());
  num_rows_ = columns_.empty() ? 0 : columns_[0].size();
  for (size_t j = 0; j < columns_.size(); ++j) {
    MDRR_CHECK_EQ(columns_[j].size(), num_rows_);
    for (uint32_t code : columns_[j]) {
      MDRR_CHECK_LT(code, schema_[j].cardinality());
    }
  }
}

const Attribute& Dataset::attribute(size_t j) const {
  MDRR_CHECK_LT(j, schema_.size());
  return schema_[j];
}

const std::vector<uint32_t>& Dataset::column(size_t j) const {
  MDRR_CHECK_LT(j, columns_.size());
  return columns_[j];
}

uint32_t Dataset::at(size_t row, size_t j) const {
  MDRR_CHECK_LT(row, num_rows_);
  MDRR_CHECK_LT(j, columns_.size());
  return columns_[j][row];
}

void Dataset::SetColumn(size_t j, std::vector<uint32_t> codes) {
  MDRR_CHECK_LT(j, columns_.size());
  MDRR_CHECK_EQ(codes.size(), num_rows_);
  for (uint32_t code : codes) {
    MDRR_CHECK_LT(code, schema_[j].cardinality());
  }
  columns_[j] = std::move(codes);
}

std::vector<uint32_t>& Dataset::MutableColumn(size_t j) {
  MDRR_CHECK_LT(j, columns_.size());
  return columns_[j];
}

Dataset Dataset::Tiled(size_t times) const {
  MDRR_CHECK_GE(times, 1u);
  std::vector<std::vector<uint32_t>> columns(schema_.size());
  for (size_t j = 0; j < schema_.size(); ++j) {
    columns[j].reserve(num_rows_ * times);
    for (size_t t = 0; t < times; ++t) {
      columns[j].insert(columns[j].end(), columns_[j].begin(),
                        columns_[j].end());
    }
  }
  return Dataset(schema_, std::move(columns));
}

Dataset Dataset::Project(const std::vector<size_t>& attribute_indices) const {
  std::vector<Attribute> schema;
  std::vector<std::vector<uint32_t>> columns;
  schema.reserve(attribute_indices.size());
  columns.reserve(attribute_indices.size());
  for (size_t j : attribute_indices) {
    MDRR_CHECK_LT(j, schema_.size());
    schema.push_back(schema_[j]);
    columns.push_back(columns_[j]);
  }
  return Dataset(std::move(schema), std::move(columns));
}

std::vector<int64_t> Dataset::Cardinalities() const {
  std::vector<int64_t> result(schema_.size());
  for (size_t j = 0; j < schema_.size(); ++j) {
    result[j] = static_cast<int64_t>(schema_[j].cardinality());
  }
  return result;
}

}  // namespace mdrr
