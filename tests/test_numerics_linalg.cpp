// Unit tests for dense LU and sparse CSR/CG.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "numerics/dense.hpp"
#include "numerics/sparse.hpp"

namespace ptherm::numerics {
namespace {

TEST(Dense, MultiplyMatchesHandComputation) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const std::vector<double> x = {1.0, 0.0, -1.0};
  const auto y = a.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(Dense, BlockedMultiplyMatchesNaiveRowDotsBitwise) {
  // multiply() works four rows at a time; every row count from 1 to 9 hits
  // the blocked body, the remainder rows, or both, and an odd column count
  // rules out any pairing of columns. Each row must be the plain ascending
  // dot, bit for bit.
  Rng rng(4242);
  constexpr std::size_t kCols = 37;
  for (std::size_t rows = 1; rows <= 9; ++rows) {
    Matrix a(rows, kCols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < kCols; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    }
    std::vector<double> x(kCols);
    for (double& v : x) v = rng.uniform(-1e3, 1e3);
    std::vector<double> y(rows);
    a.multiply(x, y);
    for (std::size_t r = 0; r < rows; ++r) {
      double want = 0.0;
      for (std::size_t c = 0; c < kCols; ++c) want += a(r, c) * x[c];
      EXPECT_EQ(y[r], want) << "rows " << rows << " row " << r;
    }
  }
}

TEST(Dense, LuSolves2x2) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 3;
  const std::vector<double> b = {5.0, 10.0};
  const auto x = solve_dense(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Dense, LuRequiresPivoting) {
  // Zero on the initial diagonal: fails without partial pivoting.
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  const std::vector<double> b = {2.0, 3.0};
  const auto x = solve_dense(a, b);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Dense, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(LuFactorization{a}, Error);
}

TEST(Dense, DeterminantTracksPermutationSign) {
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  EXPECT_NEAR(LuFactorization(a).determinant(), -1.0, 1e-12);
}

TEST(Dense, RandomSystemResidualIsTiny) {
  Rng rng(5);
  const std::size_t n = 40;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += 5.0;  // diagonally dominant, comfortably nonsingular
  }
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const auto x = solve_dense(a, b);
  const auto ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
}

TEST(Sparse, BuilderSumsDuplicates) {
  SparseBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.0);
  b.add(1, 1, 1.0);
  CsrMatrix m(b);
  EXPECT_EQ(m.nonzeros(), 2u);
  const std::vector<double> x = {1.0, 1.0};
  const auto y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
}

TEST(Sparse, BuilderRejectsOutOfRange) {
  SparseBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), PreconditionError);
}

TEST(Sparse, DiagonalExtraction) {
  SparseBuilder b(3, 3);
  b.add(0, 0, 4.0);
  b.add(1, 2, 7.0);  // off-diagonal only in row 1
  b.add(2, 2, 9.0);
  CsrMatrix m(b);
  const auto d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 4.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 9.0);
}

/// 1-D Poisson matrix (tridiagonal SPD) of size n.
CsrMatrix poisson1d(std::size_t n) {
  SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return CsrMatrix(b);
}

TEST(Cg, SolvesPoisson) {
  const std::size_t n = 50;
  const auto a = poisson1d(n);
  std::vector<double> b(n, 1.0);
  const auto r = conjugate_gradient(a, b);
  EXPECT_TRUE(r.converged);
  const auto ax = a.multiply(r.x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-7);
}

TEST(Cg, ZeroRhsGivesZeroSolution) {
  const auto a = poisson1d(10);
  std::vector<double> b(10, 0.0);
  const auto r = conjugate_gradient(a, b);
  EXPECT_TRUE(r.converged);
  for (double v : r.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Cg, WarmStartReducesIterations) {
  const std::size_t n = 200;
  const auto a = poisson1d(n);
  std::vector<double> b(n, 1.0);
  const auto cold = conjugate_gradient(a, b);
  ASSERT_TRUE(cold.converged);
  EXPECT_GT(cold.iterations, 5);
  // Warm-starting at the solution must be recognised immediately.
  const auto warm = conjugate_gradient(a, b, {}, cold.x);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 1);
}

TEST(Cg, BreakdownIsSignalledWithHonestResidual) {
  // Indefinite matrix with a positive diagonal: [[1, 2], [2, 1]] has
  // eigenvalues 3 and -1, and b = (1, -1) is an eigenvector of the negative
  // eigenvalue, so the very first search direction hits p^T A p < 0.
  SparseBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 2.0);
  builder.add(1, 0, 2.0);
  builder.add(1, 1, 1.0);
  const CsrMatrix a(builder);
  const std::vector<double> b = {1.0, -1.0};
  const auto r = conjugate_gradient(a, b);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_EQ(r.iterations, 0);
  // x is still the initial iterate (zero), and the reported residual must
  // describe that returned x — not a stale recurrence value.
  for (double v : r.x) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_NEAR(r.residual, 1.0, 1e-12);
}

TEST(Cg, SpdSolveReportsNoBreakdown) {
  const auto a = poisson1d(30);
  const std::vector<double> b(30, 1.0);
  const auto r = conjugate_gradient(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.breakdown);
}

TEST(Cg, IncompleteCholeskyCutsIterationsAndAgreesWithJacobi) {
  // On a tridiagonal matrix IC(0) carries the full lower-triangle pattern,
  // so it is the exact Cholesky factor: PCG must converge almost at once.
  const std::size_t n = 200;
  const auto a = poisson1d(n);
  const std::vector<double> b(n, 1.0);
  const auto jacobi = conjugate_gradient(a, b);
  CgOptions opts;
  opts.preconditioner = CgPreconditioner::IncompleteCholesky;
  const auto ic = conjugate_gradient(a, b, opts);
  ASSERT_TRUE(jacobi.converged);
  ASSERT_TRUE(ic.converged);
  EXPECT_LE(ic.iterations, 3);
  EXPECT_LT(ic.iterations, jacobi.iterations);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ic.x[i], jacobi.x[i], 1e-7);
}

TEST(Cg, PrebuiltIncompleteCholeskyFactorIsReused) {
  const std::size_t n = 100;
  const auto a = poisson1d(n);
  const std::vector<double> b(n, 1.0);
  const IncompleteCholesky factor(a);
  EXPECT_EQ(factor.dimension(), n);
  // Jacobi-default options, explicit prebuilt factor: the factor wins.
  const auto r = conjugate_gradient(a, b, {}, {}, &factor);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 3);
}

TEST(IncompleteCholesky, RejectsMatricesWithoutPositivePivots) {
  // [[1, 2], [2, 1]]: the (1,1) pivot becomes 1 - 2^2 < 0.
  SparseBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 2.0);
  builder.add(1, 0, 2.0);
  builder.add(1, 1, 1.0);
  EXPECT_THROW(IncompleteCholesky{CsrMatrix(builder)}, PreconditionError);
  // A row with no diagonal entry at all is rejected up front.
  SparseBuilder no_diag(2, 2);
  no_diag.add(0, 0, 1.0);
  no_diag.add(1, 0, 1.0);
  EXPECT_THROW(IncompleteCholesky{CsrMatrix(no_diag)}, PreconditionError);
}

TEST(Cg, RejectsNonPositiveDiagonal) {
  SparseBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, -1.0);
  CsrMatrix m(b);
  const std::vector<double> rhs = {1.0, 1.0};
  EXPECT_THROW(conjugate_gradient(m, rhs), PreconditionError);
}

// Property: CG on random SPD systems (A = L*L^T + diag) matches dense LU.
class CgVsDense : public ::testing::TestWithParam<int> {};

TEST_P(CgVsDense, Agree) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  Matrix dense(n, n, 0.0);
  SparseBuilder sparse(n, n);
  // Symmetric diagonally dominant random matrix.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      const double v = (j == i) ? rng.uniform(5.0, 6.0) : rng.uniform(-0.3, 0.3);
      dense(i, j) = v;
      dense(j, i) = v;
      sparse.add(i, j, v);
      if (i != j) sparse.add(j, i, v);
    }
  }
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const auto x_lu = solve_dense(dense, b);
  const auto x_cg = conjugate_gradient(CsrMatrix(sparse), b);
  ASSERT_TRUE(x_cg.converged);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x_cg.x[i], x_lu[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgVsDense, ::testing::Values(2, 5, 13, 31, 64));

}  // namespace
}  // namespace ptherm::numerics
