// Dense row-major matrix of doubles, sized for randomization matrices
// (tens to a few thousand rows). Not a general BLAS; just what Eq. (2)
// and the RR matrix algebra need.

#ifndef MDRR_LINALG_MATRIX_H_
#define MDRR_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "mdrr/common/check.h"

namespace mdrr::linalg {

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t i, size_t j) {
    MDRR_CHECK_LT(i, rows_);
    MDRR_CHECK_LT(j, cols_);
    return data_[i * cols_ + j];
  }
  double operator()(size_t i, size_t j) const {
    MDRR_CHECK_LT(i, rows_);
    MDRR_CHECK_LT(j, cols_);
    return data_[i * cols_ + j];
  }

  // Contiguous view of row i (length cols()).
  const double* RowData(size_t i) const {
    MDRR_CHECK_LT(i, rows_);
    return data_.data() + i * cols_;
  }
  std::vector<double> Row(size_t i) const;

  Matrix Transpose() const;

  // this * other. Preconditions: cols() == other.rows().
  Matrix MatMul(const Matrix& other) const;

  // this * v. Precondition: v.size() == cols().
  std::vector<double> MatVec(const std::vector<double>& v) const;

  // True if every row sums to 1 within `tolerance` and entries are >= 0.
  bool IsRowStochastic(double tolerance = 1e-9) const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace mdrr::linalg

#endif  // MDRR_LINALG_MATRIX_H_
