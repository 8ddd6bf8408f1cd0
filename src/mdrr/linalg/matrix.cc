#include "mdrr/linalg/matrix.h"

#include <cmath>

namespace mdrr::linalg {

std::vector<double> Matrix::Row(size_t i) const {
  MDRR_CHECK_LT(i, rows_);
  return std::vector<double>(data_.begin() + i * cols_,
                             data_.begin() + (i + 1) * cols_);
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  MDRR_CHECK_EQ(cols_, other.rows_);
  Matrix result(rows_, other.cols_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (size_t j = 0; j < other.cols_; ++j) {
        result(i, j) += a * other(k, j);
      }
    }
  }
  return result;
}

std::vector<double> Matrix::MatVec(const std::vector<double>& v) const {
  MDRR_CHECK_EQ(v.size(), cols_);
  std::vector<double> result(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    const double* row = data_.data() + i * cols_;
    for (size_t j = 0; j < cols_; ++j) sum += row[j] * v[j];
    result[i] = sum;
  }
  return result;
}

bool Matrix::IsRowStochastic(double tolerance) const {
  for (size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < cols_; ++j) {
      double v = (*this)(i, j);
      if (v < -tolerance) return false;
      sum += v;
    }
    if (std::fabs(sum - 1.0) > tolerance) return false;
  }
  return true;
}

}  // namespace mdrr::linalg
