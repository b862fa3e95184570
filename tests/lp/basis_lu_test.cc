#include "lp/basis_lu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "lp/sparse.h"

namespace apple::lp {
namespace {

// Random sparse m x cols matrix in CSC form. Every column j < m carries a
// dominant diagonal entry at row j (so the basis [0..m) is well
// conditioned); extra columns j >= m carry their dominant entry at row
// j - m. Off-dominant entries appear with probability `density`.
SparseMatrix random_matrix(std::size_t m, std::size_t cols, double density,
                           std::mt19937& rng) {
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_real_distribution<double> diag(2.0, 4.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<std::int32_t> col_start{0};
  std::vector<SparseMatrix::Entry> entries;
  for (std::size_t j = 0; j < cols; ++j) {
    const std::size_t dom = j % m;
    for (std::size_t r = 0; r < m; ++r) {
      if (r == dom) {
        entries.push_back({static_cast<std::int32_t>(r), diag(rng)});
      } else if (coin(rng) < density) {
        entries.push_back({static_cast<std::int32_t>(r), value(rng)});
      }
    }
    col_start.push_back(static_cast<std::int32_t>(entries.size()));
  }
  return SparseMatrix(m, cols, std::move(col_start), std::move(entries));
}

std::vector<std::vector<double>> dense_basis(const SparseMatrix& matrix,
                                             const std::vector<std::int32_t>&
                                                 basic) {
  const std::size_t m = matrix.rows();
  std::vector<std::vector<double>> b(m, std::vector<double>(m, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    for (const auto& e : matrix.column(static_cast<std::size_t>(basic[i]))) {
      b[static_cast<std::size_t>(e.row)][i] = e.value;
    }
  }
  return b;
}

// Reference solve via dense Gaussian elimination with partial pivoting.
// `transpose` solves B' x = rhs instead of B x = rhs.
std::vector<double> dense_solve(std::vector<std::vector<double>> a,
                                std::vector<double> rhs, bool transpose) {
  const std::size_t m = rhs.size();
  if (transpose) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = i + 1; j < m; ++j) std::swap(a[i][j], a[j][i]);
    }
  }
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t pivot = k;
    for (std::size_t r = k + 1; r < m; ++r) {
      if (std::abs(a[r][k]) > std::abs(a[pivot][k])) pivot = r;
    }
    std::swap(a[k], a[pivot]);
    std::swap(rhs[k], rhs[pivot]);
    for (std::size_t r = k + 1; r < m; ++r) {
      const double f = a[r][k] / a[k][k];
      if (f == 0.0) continue;
      for (std::size_t c = k; c < m; ++c) a[r][c] -= f * a[k][c];
      rhs[r] -= f * rhs[k];
    }
  }
  std::vector<double> x(m, 0.0);
  for (std::size_t k = m; k-- > 0;) {
    double acc = rhs[k];
    for (std::size_t c = k + 1; c < m; ++c) acc -= a[k][c] * x[c];
    x[k] = acc / a[k][k];
  }
  return x;
}

TEST(BasisLu, FtranBtranMatchDenseReference) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  for (const std::size_t m : {1u, 3u, 10u, 40u}) {
    for (const double density : {0.05, 0.3, 0.8}) {
      const SparseMatrix matrix = random_matrix(m, m, density, rng);
      std::vector<std::int32_t> basic(m);
      for (std::size_t i = 0; i < m; ++i) {
        basic[i] = static_cast<std::int32_t>(i);
      }
      BasisLu lu;
      ASSERT_TRUE(lu.factorize(matrix, basic));
      const auto dense = dense_basis(matrix, basic);

      std::vector<double> rhs(m);
      for (double& v : rhs) v = value(rng);
      std::vector<double> w = rhs;
      lu.ftran(w);
      const std::vector<double> w_ref = dense_solve(dense, rhs, false);
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_NEAR(w[i], w_ref[i], 1e-9) << "m=" << m << " d=" << density;
      }

      std::vector<double> c(m);
      for (double& v : c) v = value(rng);
      std::vector<double> y = c;
      lu.btran(y);
      const std::vector<double> y_ref = dense_solve(dense, c, true);
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_NEAR(y[i], y_ref[i], 1e-9) << "m=" << m << " d=" << density;
      }
      EXPECT_GT(lu.fill_nnz(), 0u);
      EXPECT_EQ(lu.eta_count(), 0u);
    }
  }
}

TEST(BasisLu, EtaUpdatesMatchFreshFactorization) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  const std::size_t m = 25;
  // 2m columns: [0, m) is the starting basis, [m, 2m) the replacements
  // (column m + p is dominant in row p, keeping every swap nonsingular).
  const SparseMatrix matrix = random_matrix(m, 2 * m, 0.2, rng);
  std::vector<std::int32_t> basic(m);
  for (std::size_t i = 0; i < m; ++i) basic[i] = static_cast<std::int32_t>(i);

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(matrix, basic));
  // Pivot k columns in through the eta file, one basis position at a time.
  const std::size_t k = 8;
  for (std::size_t p = 0; p < k; ++p) {
    const auto enter = static_cast<std::int32_t>(m + p);
    std::vector<double> w(m, 0.0);
    for (const auto& e : matrix.column(static_cast<std::size_t>(enter))) {
      w[static_cast<std::size_t>(e.row)] = e.value;
    }
    lu.ftran(w);
    ASSERT_TRUE(lu.update(w, p));
    basic[p] = enter;
  }
  EXPECT_EQ(lu.eta_count(), k);

  BasisLu fresh;
  ASSERT_TRUE(fresh.factorize(matrix, basic));

  // The eta-extended factorization and the fresh one represent the same
  // basis: FTRAN and BTRAN must agree on random vectors.
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> rhs(m);
    for (double& v : rhs) v = value(rng);
    std::vector<double> a = rhs;
    std::vector<double> b = rhs;
    lu.ftran(a);
    fresh.ftran(b);
    for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(a[i], b[i], 1e-8);
    a = rhs;
    b = rhs;
    lu.btran(a);
    fresh.btran(b);
    for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(a[i], b[i], 1e-8);
  }
}

// CSC matrix from explicit columns.
SparseMatrix from_columns(
    std::size_t m, const std::vector<std::vector<SparseMatrix::Entry>>& cols) {
  std::vector<std::int32_t> col_start{0};
  std::vector<SparseMatrix::Entry> entries;
  for (const auto& col : cols) {
    entries.insert(entries.end(), col.begin(), col.end());
    col_start.push_back(static_cast<std::int32_t>(entries.size()));
  }
  return SparseMatrix(m, cols.size(), std::move(col_start),
                      std::move(entries));
}

// FTRAN and BTRAN of every unit vector (the whole inverse and its
// transpose) against the dense reference on basis `basic` of `matrix`.
void expect_inverse_matches_dense(const BasisLu& lu, const SparseMatrix& matrix,
                                  const std::vector<std::int32_t>& basic) {
  const std::size_t m = basic.size();
  const auto dense = dense_basis(matrix, basic);
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> unit(m, 0.0);
    unit[i] = 1.0;
    std::vector<double> w = unit;
    lu.ftran(w);
    const std::vector<double> w_ref = dense_solve(dense, unit, false);
    std::vector<double> y = unit;
    lu.btran(y);
    const std::vector<double> y_ref = dense_solve(dense, unit, true);
    for (std::size_t r = 0; r < m; ++r) {
      EXPECT_NEAR(w[r], w_ref[r], 1e-12) << "ftran e" << i << " row " << r;
      EXPECT_NEAR(y[r], y_ref[r], 1e-12) << "btran e" << i << " row " << r;
    }
  }
}

// Pivots column `enter` into basis position `pos` through the eta file and
// re-checks the inverse against the dense reference.
void update_and_check(BasisLu& lu, const SparseMatrix& matrix,
                      std::vector<std::int32_t>& basic, std::int32_t enter,
                      std::size_t pos) {
  std::vector<double> w(basic.size(), 0.0);
  for (const auto& e : matrix.column(static_cast<std::size_t>(enter))) {
    w[static_cast<std::size_t>(e.row)] = e.value;
  }
  lu.ftran(w);
  ASSERT_GT(std::abs(w[pos]), 0.1);
  ASSERT_TRUE(lu.update(w, pos));
  basic[pos] = enter;
  EXPECT_EQ(lu.eta_count(), 1u);
  expect_inverse_matches_dense(lu, matrix, basic);
}

TEST(BasisLu, FillCascadesToStepsOutsideTheColumnPattern) {
  // Equal nonzero counts keep the factor order = basis position, so step k
  // factors column k. Steps 0-3 pivot on rows 0, 3, 2, 1. Column 4 holds
  // only step 0's pivot row among the pivoted rows; elimination still
  // reaches steps 1-3: L column 0 writes rows 2 and 3 (steps 2 and 1 — the
  // later step queued first), L column 1 writes row 2 (step 2, so step 1
  // must run before it) and row 1 (step 3), L column 2 writes row 1 again.
  const SparseMatrix matrix = from_columns(
      6, {{{0, 4.0}, {2, 1.0}, {3, 1.0}},
          {{1, 0.5}, {2, 1.0}, {3, 4.0}},
          {{1, 1.0}, {2, 4.0}, {5, 0.5}},
          {{1, 4.0}, {4, 1.0}, {5, 1.0}},
          {{0, 1.0}, {4, 2.0}, {5, 0.0625}},
          {{3, 0.5}, {4, 1.0}, {5, 4.0}},
          // Entering column for the eta update.
          {{0, 1.0}, {3, 2.0}, {4, 1.0}, {5, 1.0}}});
  std::vector<std::int32_t> basic{0, 1, 2, 3, 4, 5};
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(matrix, basic));
  // L: 2 + 2 + 2 + 2 + 1 + 0, U: 4 + 4 off-diagonal, plus 6 diagonals.
  EXPECT_EQ(lu.fill_nnz(), 23u);
  expect_inverse_matches_dense(lu, matrix, basic);
  update_and_check(lu, matrix, basic, 6, 4);
}

TEST(BasisLu, PivotRowCancellingToZeroIsSkipped) {
  // Column 2 scatters 0.25 into row 1 (step 1's pivot row); step 0 then
  // subtracts exactly 1.0 * 0.25 from it. Step 1 is reached but its pivot
  // value is 0.0, so it contributes no U entry and its L column (row 3)
  // is never applied. All values are dyadic, so the cancellation is exact.
  const SparseMatrix matrix = from_columns(
      4, {{{0, 4.0}, {1, 1.0}},
          {{1, 4.0}, {3, 1.0}},
          {{0, 1.0}, {1, 0.25}, {2, 2.0}},
          {{1, 0.5}, {2, 1.0}, {3, 4.0}},
          // Entering column for the eta update.
          {{0, 2.0}, {2, 1.0}, {3, 0.5}}});
  std::vector<std::int32_t> basic{0, 1, 2, 3};
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(matrix, basic));
  // L: 1 + 1 + 0 + 0, U: 0 + 0 + 1 (step 0 only) + 2, plus 4 diagonals.
  EXPECT_EQ(lu.fill_nnz(), 9u);
  expect_inverse_matches_dense(lu, matrix, basic);
  update_and_check(lu, matrix, basic, 4, 2);
}

TEST(BasisLu, SingularBasisReportsFailureNotNaN) {
  // Two identical columns: rank m-1.
  std::vector<std::int32_t> col_start{0, 2, 4, 5};
  std::vector<SparseMatrix::Entry> entries{
      {0, 1.0}, {1, 2.0}, {0, 1.0}, {1, 2.0}, {2, 1.0}};
  const SparseMatrix matrix(3, 3, std::move(col_start), std::move(entries));
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(matrix, std::vector<std::int32_t>{0, 1, 2}));
}

TEST(BasisLu, NearSingularPivotRejected) {
  // A column whose only entry is far below the singular tolerance.
  std::vector<std::int32_t> col_start{0, 1, 2};
  std::vector<SparseMatrix::Entry> entries{{0, 1.0}, {1, 1e-13}};
  const SparseMatrix matrix(2, 2, std::move(col_start), std::move(entries));
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(matrix, std::vector<std::int32_t>{0, 1}));
}

TEST(BasisLu, UnstableEtaPivotRejectedAndFactorizationUnchanged) {
  std::mt19937 rng(3);
  const std::size_t m = 6;
  const SparseMatrix matrix = random_matrix(m, m, 0.4, rng);
  std::vector<std::int32_t> basic(m);
  for (std::size_t i = 0; i < m; ++i) basic[i] = static_cast<std::int32_t>(i);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(matrix, basic));
  std::vector<double> before(m, 1.0);
  lu.ftran(before);

  // w with a ~zero pivot element must be rejected without side effects.
  std::vector<double> w(m, 1.0);
  w[2] = 1e-14;
  EXPECT_FALSE(lu.update(w, 2));
  EXPECT_EQ(lu.eta_count(), 0u);
  std::vector<double> after(m, 1.0);
  lu.ftran(after);
  for (std::size_t i = 0; i < m; ++i) EXPECT_EQ(before[i], after[i]);
}

TEST(SparseMatrix, TransposeListsEachRowInColumnOrder) {
  std::mt19937 rng(17);
  const SparseMatrix a = random_matrix(/*m=*/12, /*cols=*/30, 0.25, rng);
  const SparseMatrix t = a.transposed();
  ASSERT_EQ(t.rows(), a.cols());
  ASSERT_EQ(t.cols(), a.rows());
  ASSERT_EQ(t.nnz(), a.nnz());
  // Column i of the transpose is row i of `a`: ascending column indices,
  // every entry of `a` exactly once with its value.
  std::vector<std::vector<double>> dense(a.rows(),
                                         std::vector<double>(a.cols(), 0.0));
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (const auto& e : a.column(j)) {
      dense[static_cast<std::size_t>(e.row)][j] = e.value;
    }
  }
  for (std::size_t i = 0; i < t.cols(); ++i) {
    std::int32_t last = -1;
    for (const auto& e : t.column(i)) {
      EXPECT_GT(e.row, last);
      last = e.row;
      EXPECT_EQ(e.value, dense[i][static_cast<std::size_t>(e.row)]);
      dense[i][static_cast<std::size_t>(e.row)] = 0.0;
    }
  }
  for (const auto& row : dense) {
    for (const double v : row) EXPECT_EQ(v, 0.0);
  }
}

TEST(BasisLu, EmptyBasisIsTriviallyFactorized) {
  const SparseMatrix matrix(0, 0, {0}, {});
  BasisLu lu;
  EXPECT_TRUE(lu.factorize(matrix, {}));
  EXPECT_TRUE(lu.factorized());
  std::vector<double> x;
  lu.ftran(x);
  lu.btran(x);
}

}  // namespace
}  // namespace apple::lp
