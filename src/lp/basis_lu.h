// LU-factorized simplex basis with product-form (eta-file) updates.
//
// The revised simplex never forms B^{-1}: it keeps B = P' L U (row
// permutation P from partial pivoting, columns factored in a fill-reducing
// order) plus a short chain of eta matrices recording the pivots since the
// last refactorization, and answers two queries:
//
//   FTRAN:  w = B^{-1} a   (entering column in the current basis)
//   BTRAN:  y = B^{-T} c   (duals / pricing vector, row of B^{-1})
//
// Factorization is left-looking column LU: each basis column is solved
// against the already-factored prefix (dense workspace, columns visited in
// a static fill-heuristic order — ascending column nonzero count, the
// column half of a Markowitz count) and the pivot row is chosen by partial
// pivoting (max |value|, smallest row index on ties — deterministic).
// The solve visits only the elimination steps the column reaches — those
// whose pivot row its scatter or an earlier L column wrote — in ascending
// step order through a min-heap. A factorization therefore costs
// O(m log m) plus O(log m) per multiply-add it performs, not the O(m^2)
// of scanning every earlier step for every column. The visit order is the
// full ascending scan minus the steps it would skip (pivot row exactly 0),
// so the factors are bit-identical to eliminating with every earlier step.
// A pivot below `singular_tol` reports the basis singular instead of
// dividing through, so a degenerate basis can never seed NaN.
//
// After a simplex pivot, `update()` appends one eta vector (one O(m) pass
// over w, storing its nnz(w) off-pivot entries) instead of refactorizing.
// FTRAN and BTRAN cost O(m + nnz(L) + nnz(U) + eta nonzeros) each. The
// caller refactorizes every SimplexOptions::refactor_interval pivots, or
// immediately when update() rejects an unstable pivot element — the
// standard eta-file policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lp/sparse.h"

namespace apple::lp {

class BasisLu {
 public:
  // Factorizes the basis formed by columns `basic` of `matrix` (one column
  // index per row; `basic.size()` must equal `matrix.rows()`). Discards any
  // eta chain. Returns false when the basis is numerically singular — the
  // factorization is then unusable and the caller must repair the basis.
  bool factorize(const SparseMatrix& matrix,
                 std::span<const std::int32_t> basic);

  // In-place solves against the factorization plus the eta chain. `x` has
  // matrix.rows() entries: FTRAN maps a column in row space to basis
  // coordinates; BTRAN maps basis-space costs to row space.
  void ftran(std::vector<double>& x) const;
  void btran(std::vector<double>& x) const;

  // Replaces the basic variable in basis position `pos`: `w` must be the
  // current FTRAN of the entering column. Appends one eta term. Returns
  // false — leaving the factorization unchanged — when |w[pos]| is below
  // the stability threshold; the caller should refactorize and retry.
  bool update(std::span<const double> w, std::size_t pos);

  std::size_t eta_count() const { return etas_.size(); }
  // Nonzeros in L + U of the last factorization (fill-in gauge).
  std::size_t fill_nnz() const { return fill_nnz_; }
  bool factorized() const { return dim_ > 0 || factorized_empty_; }

  // |pivot| below which factorize()/update() declare trouble.
  static constexpr double kSingularTol = 1e-11;

 private:
  struct Eta {
    std::int32_t pos = 0;   // basis position replaced
    double pivot = 0.0;     // w[pos]
    // Off-pivot nonzeros of w, by basis position, ascending.
    std::vector<SparseMatrix::Entry> terms;
  };

  std::size_t dim_ = 0;
  bool factorized_empty_ = false;
  // Step k of the elimination pivoted on row pivot_row_[k] while factoring
  // basis position col_order_[k].
  std::vector<std::int32_t> pivot_row_;
  std::vector<std::int32_t> row_to_step_;
  std::vector<std::int32_t> col_order_;
  std::vector<std::int32_t> pos_to_step_;
  // L: unit lower triangular, stored per step as (row, multiplier) with
  // rows that become pivotal at later steps. U: per step k the entries
  // (earlier step t, value) plus the diagonal.
  std::vector<std::vector<SparseMatrix::Entry>> l_cols_;
  std::vector<std::vector<SparseMatrix::Entry>> u_cols_;
  std::vector<double> u_diag_;
  std::vector<Eta> etas_;
  std::size_t fill_nnz_ = 0;
  mutable std::vector<double> work_;
};

}  // namespace apple::lp
