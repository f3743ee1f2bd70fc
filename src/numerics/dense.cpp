#include "numerics/dense.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ptherm::numerics {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

std::vector<double> Matrix::multiply(std::span<const double> x) const {
  std::vector<double> y(rows_, 0.0);
  multiply(x, y);
  return y;
}

void Matrix::multiply(std::span<const double> x, std::span<double> y) const {
  PTHERM_REQUIRE(x.size() == cols_ && y.size() == rows_, "matrix-vector size mismatch");
  // Four rows at a time: x[c] is loaded once for four independent dot
  // chains, which also hides the add latency a lone serial dot is bound by.
  // Each row still sums in ascending column order from 0.0, so every y[r]
  // is bitwise what the one-row loop below gives.
  const double* xs = x.data();
  std::size_t r = 0;
  for (; r + 4 <= rows_; r += 4) {
    const double* a0 = &data_[r * cols_];
    const double* a1 = a0 + cols_;
    const double* a2 = a1 + cols_;
    const double* a3 = a2 + cols_;
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      const double xc = xs[c];
      s0 += a0[c] * xc;
      s1 += a1[c] * xc;
      s2 += a2[c] * xc;
      s3 += a3[c] * xc;
    }
    y[r] = s0;
    y[r + 1] = s1;
    y[r + 2] = s2;
    y[r + 3] = s3;
  }
  for (; r < rows_; ++r) {
    double sum = 0.0;
    const double* row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) sum += row[c] * xs[c];
    y[r] = sum;
  }
}

void Matrix::multiply_batch(std::span<const double> xs, std::span<double> ys,
                            std::size_t count) const {
  PTHERM_REQUIRE(xs.size() == count * cols_ && ys.size() == count * rows_,
                 "matrix-batch size mismatch");
  // Row outer, vectors inner: each row of A is read once for the whole
  // batch. Within one (row, vector) pair the dot runs in ascending column
  // order, exactly as multiply() — the per-vector results match bitwise.
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    for (std::size_t k = 0; k < count; ++k) {
      const double* x = &xs[k * cols_];
      double sum = 0.0;
      for (std::size_t c = 0; c < cols_; ++c) sum += row[c] * x[c];
      ys[k * rows_ + r] = sum;
    }
  }
}

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  PTHERM_REQUIRE(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  pivots_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    std::size_t p = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > best) {
        best = v;
        p = r;
      }
    }
    if (best == 0.0 || !std::isfinite(best)) {
      throw Error("LU factorization: matrix is singular or non-finite");
    }
    pivots_[k] = p;
    if (p != k) {
      pivot_sign_ = -pivot_sign_;
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(p, c));
    }
    const double diag = lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) / diag;
      lu_(r, k) = factor;
      if (factor != 0.0) {
        for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= factor * lu_(k, c);
      }
    }
  }
}

std::vector<double> LuFactorization::solve(std::span<const double> b) const {
  const std::size_t n = lu_.rows();
  PTHERM_REQUIRE(b.size() == n, "rhs size mismatch");
  std::vector<double> x(b.begin(), b.end());
  for (std::size_t k = 0; k < n; ++k) {
    if (pivots_[k] != k) std::swap(x[k], x[pivots_[k]]);
    for (std::size_t r = k + 1; r < n; ++r) x[r] -= lu_(r, k) * x[k];
  }
  for (std::size_t k = n; k-- > 0;) {
    for (std::size_t c = k + 1; c < n; ++c) x[k] -= lu_(k, c) * x[c];
    x[k] /= lu_(k, k);
  }
  return x;
}

double LuFactorization::determinant() const {
  double det = pivot_sign_;
  for (std::size_t k = 0; k < lu_.rows(); ++k) det *= lu_(k, k);
  return det;
}

std::vector<double> solve_dense(Matrix a, std::span<const double> b) {
  return LuFactorization(std::move(a)).solve(b);
}

}  // namespace ptherm::numerics
