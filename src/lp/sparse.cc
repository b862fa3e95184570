#include "lp/sparse.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace apple::lp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols,
                           std::vector<std::int32_t> col_start,
                           std::vector<Entry> entries)
    : rows_(rows),
      cols_(cols),
      col_start_(std::move(col_start)),
      entries_(std::move(entries)) {
  APPLE_CHECK_EQ(col_start_.size(), cols_ + 1);
  APPLE_CHECK_EQ(static_cast<std::size_t>(col_start_.back()), entries_.size());
}

SparseMatrix SparseMatrix::transposed() const {
  std::vector<std::int32_t> row_start(rows_ + 1, 0);
  for (const Entry& e : entries_) {
    ++row_start[static_cast<std::size_t>(e.row) + 1];
  }
  for (std::size_t i = 0; i < rows_; ++i) row_start[i + 1] += row_start[i];
  std::vector<Entry> entries(entries_.size());
  std::vector<std::int32_t> fill = row_start;  // next write slot per row
  // Column-major walk keeps each row's entries sorted by column.
  for (std::size_t j = 0; j < cols_; ++j) {
    for (const Entry& e : column(j)) {
      const auto slot = fill[static_cast<std::size_t>(e.row)]++;
      entries[static_cast<std::size_t>(slot)] = {static_cast<std::int32_t>(j),
                                                 e.value};
    }
  }
  return SparseMatrix(cols_, rows_, std::move(row_start), std::move(entries));
}

SparseLp SparseLp::build(const LpModel& model) {
  const std::size_t m = model.num_rows();
  const std::size_t n = model.num_vars();
  SparseLp lp;
  lp.num_rows = m;
  lp.num_struct = n;

  // Count structural entries per column, validating as we go (mirrors the
  // dense tableau's model sanity checks).
  std::vector<std::int32_t> col_count(n + m, 0);
  for (std::size_t r = 0; r < m; ++r) {
    const Row& row = model.row(static_cast<RowId>(r));
    APPLE_CHECK(std::isfinite(row.rhs));
    for (const auto& [v, coef] : row.terms) {
      APPLE_CHECK_LT(static_cast<std::size_t>(v), n);
      APPLE_CHECK(std::isfinite(coef));
      ++col_count[static_cast<std::size_t>(v)];
    }
  }
  for (std::size_t i = 0; i < m; ++i) col_count[n + i] = 1;  // logicals

  std::vector<std::int32_t> col_start(n + m + 1, 0);
  for (std::size_t j = 0; j < n + m; ++j) {
    col_start[j + 1] = col_start[j] + col_count[j];
  }
  std::vector<SparseMatrix::Entry> entries(
      static_cast<std::size_t>(col_start.back()));
  std::vector<std::int32_t> fill = col_start;  // next write slot per column
  // Row-major fill keeps each column's entries sorted by row.
  for (std::size_t r = 0; r < m; ++r) {
    const Row& row = model.row(static_cast<RowId>(r));
    for (const auto& [v, coef] : row.terms) {
      entries[static_cast<std::size_t>(fill[static_cast<std::size_t>(v)]++)] =
          {static_cast<std::int32_t>(r), coef};
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    entries[static_cast<std::size_t>(fill[n + i]++)] =
        {static_cast<std::int32_t>(i), 1.0};
  }
  lp.matrix = SparseMatrix(m, n + m, std::move(col_start), std::move(entries));

  lp.cost.assign(n + m, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    lp.cost[v] = model.var(static_cast<VarId>(v)).objective;
    APPLE_CHECK(std::isfinite(lp.cost[v]));
  }
  lp.rhs.resize(m);
  lp.lower.assign(n + m, 0.0);
  lp.upper.assign(n + m, kInf);
  for (std::size_t r = 0; r < m; ++r) {
    const Row& row = model.row(static_cast<RowId>(r));
    lp.rhs[r] = row.rhs;
    switch (row.sense) {
      case Sense::kLessEqual:  // s in [0, +inf)
        break;
      case Sense::kGreaterEqual:  // s in (-inf, 0]
        lp.lower[n + r] = -kInf;
        lp.upper[n + r] = 0.0;
        break;
      case Sense::kEqual:  // s pinned at 0
        lp.upper[n + r] = 0.0;
        break;
    }
  }
  return lp;
}

}  // namespace apple::lp
