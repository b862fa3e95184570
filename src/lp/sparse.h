// Sparse building blocks for the revised simplex (lp/revised_simplex.h).
//
// `SparseMatrix` is a compressed-sparse-column (CSC) matrix: the only
// access pattern the revised simplex needs is "walk one column" (pricing
// dots a dual vector against every nonbasic column; FTRAN gathers the
// entering column), and CSC makes that a contiguous scan. `SparseLp` is an
// LpModel lowered once into the bounded computational standard form
//
//   minimize    c' z
//   subject to  [A | I] z = b,      l <= z <= u
//
// where z = [x | s] appends one logical (slack) variable per row. Row
// senses become logical bounds — `<=` gives s in [0, +inf), `>=` gives
// s in (-inf, 0], `=` pins s at 0 — so the matrix always has full row rank
// and never needs artificial columns, and a branch-and-bound node differs
// from its parent only in the bound arrays, never in the matrix. That
// matrix invariance is what makes dual warm restarts (and sharing one
// `SparseLp` across every node of a MIP solve) possible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lp/model.h"

namespace apple::lp {

// Immutable CSC matrix. Entries within a column are sorted by row index
// (deterministic walks; LpModel rows already merge duplicate terms).
class SparseMatrix {
 public:
  struct Entry {
    std::int32_t row = 0;
    double value = 0.0;
  };

  SparseMatrix() = default;
  SparseMatrix(std::size_t rows, std::size_t cols,
               std::vector<std::int32_t> col_start,
               std::vector<Entry> entries);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return entries_.size(); }

  // The cols x rows transpose: its column i lists this matrix's row i, each
  // entry's `row` holding the column index, ascending.
  SparseMatrix transposed() const;

  // Entries of column j, sorted by row.
  std::span<const Entry> column(std::size_t j) const {
    const auto begin = static_cast<std::size_t>(col_start_[j]);
    const auto end = static_cast<std::size_t>(col_start_[j + 1]);
    return {entries_.data() + begin, end - begin};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int32_t> col_start_;  // cols + 1 entries
  std::vector<Entry> entries_;
};

// An LpModel lowered to bounded standard form (see header comment).
// Columns [0, num_struct) are the model's variables; column num_struct + i
// is row i's logical. Bounds here are the *model* bounds (x >= 0 plus the
// sense-derived logical bounds); a per-solve overlay tightens the
// structural entries on top (see RevisedSimplex).
struct SparseLp {
  std::size_t num_rows = 0;
  std::size_t num_struct = 0;
  SparseMatrix matrix;          // m x (num_struct + m), [A | I]
  std::vector<double> cost;     // per column; logicals cost 0
  std::vector<double> rhs;      // per row
  std::vector<double> lower;    // per column
  std::vector<double> upper;    // per column

  std::size_t num_cols() const { return num_struct + num_rows; }

  // Lowers `model`. Every coefficient and rhs must be finite (checked, as
  // in the dense tableau: a NaN here would corrupt every later solve).
  static SparseLp build(const LpModel& model);
};

}  // namespace apple::lp
