#include "lp/basis_lu.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.h"

namespace apple::lp {

bool BasisLu::factorize(const SparseMatrix& matrix,
                        std::span<const std::int32_t> basic) {
  const std::size_t m = matrix.rows();
  APPLE_CHECK_EQ(basic.size(), m);
  dim_ = 0;
  factorized_empty_ = m == 0;
  etas_.clear();
  pivot_row_.assign(m, -1);
  row_to_step_.assign(m, -1);
  pos_to_step_.assign(m, -1);
  l_cols_.assign(m, {});
  u_cols_.assign(m, {});
  u_diag_.assign(m, 0.0);
  fill_nnz_ = 0;
  if (m == 0) return true;

  // Static fill heuristic: factor short columns first (the column half of
  // a Markowitz count). Stable sort keeps ties in basis-position order.
  col_order_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    col_order_[i] = static_cast<std::int32_t>(i);
  }
  std::stable_sort(col_order_.begin(), col_order_.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return matrix
                                .column(static_cast<std::size_t>(
                                    basic[static_cast<std::size_t>(a)]))
                                .size() <
                            matrix
                                .column(static_cast<std::size_t>(
                                    basic[static_cast<std::size_t>(b)]))
                                .size();
                   });

  std::vector<double> x(m, 0.0);
  std::vector<std::int32_t> touched;
  touched.reserve(m);
  std::vector<char> active(m, 1);
  // Min-heap of the earlier steps whose pivot row column k has written;
  // queued_for[t] == k keeps step t in it at most once per column.
  std::vector<std::int32_t> reach;
  std::vector<std::int32_t> queued_for(m, -1);
  for (std::size_t k = 0; k < m; ++k) {
    const auto pos = static_cast<std::size_t>(col_order_[k]);
    const auto kk = static_cast<std::int32_t>(k);
    const auto enqueue = [&](std::size_t row) {
      const std::int32_t t = row_to_step_[row];
      if (t < 0 || queued_for[static_cast<std::size_t>(t)] == kk) return;
      queued_for[static_cast<std::size_t>(t)] = kk;
      reach.push_back(t);
      std::push_heap(reach.begin(), reach.end(), std::greater<>());
    };
    // Scatter the basis column, then eliminate with the factored prefix.
    touched.clear();
    for (const auto& e : matrix.column(
             static_cast<std::size_t>(basic[pos]))) {
      x[static_cast<std::size_t>(e.row)] = e.value;
      touched.push_back(e.row);
      enqueue(static_cast<std::size_t>(e.row));
    }
    // Apply the reached steps in ascending order. L column t only holds
    // rows still active at step t, so every step it queues is > t: every
    // step t < k whose pivot row is nonzero when its turn comes is popped,
    // in step order, and each row's updates land in the same order as
    // eliminating with every earlier step in turn.
    std::vector<SparseMatrix::Entry>& ucol = u_cols_[k];
    while (!reach.empty()) {
      std::pop_heap(reach.begin(), reach.end(), std::greater<>());
      const auto t = static_cast<std::size_t>(reach.back());
      reach.pop_back();
      const auto pr = static_cast<std::size_t>(pivot_row_[t]);
      const double xt = x[pr];
      if (xt == 0.0) continue;
      ucol.push_back({static_cast<std::int32_t>(t), xt});
      for (const auto& e : l_cols_[t]) {
        const auto r = static_cast<std::size_t>(e.row);
        if (x[r] == 0.0) touched.push_back(e.row);
        x[r] -= xt * e.value;
        enqueue(r);
      }
      x[pr] = 0.0;
    }
    // Partial pivoting over the still-active rows; smallest row on ties.
    std::size_t prow = m;
    double best = 0.0;
    for (const std::int32_t raw : touched) {
      const auto r = static_cast<std::size_t>(raw);
      if (active[r] == 0) continue;
      const double mag = std::abs(x[r]);
      if (mag > best || (mag == best && mag > 0.0 && r < prow)) {
        best = mag;
        prow = r;
      }
    }
    if (prow == m || best < kSingularTol) {
      for (const std::int32_t r : touched) x[static_cast<std::size_t>(r)] = 0.0;
      return false;  // singular (or numerically so)
    }
    const double diag = x[prow];
    u_diag_[k] = diag;
    pivot_row_[k] = static_cast<std::int32_t>(prow);
    row_to_step_[prow] = static_cast<std::int32_t>(k);
    pos_to_step_[pos] = static_cast<std::int32_t>(k);
    active[prow] = 0;
    std::vector<SparseMatrix::Entry>& lcol = l_cols_[k];
    for (const std::int32_t raw : touched) {
      const auto r = static_cast<std::size_t>(raw);
      if (active[r] != 0 && x[r] != 0.0) {
        lcol.push_back({raw, x[r] / diag});
      }
      x[r] = 0.0;
    }
    // Deterministic solve order (touched collects rows in visit order).
    std::sort(lcol.begin(), lcol.end(),
              [](const SparseMatrix::Entry& a, const SparseMatrix::Entry& b) {
                return a.row < b.row;
              });
    fill_nnz_ += lcol.size() + ucol.size() + 1;
  }
  dim_ = m;
  work_.assign(m, 0.0);
  return true;
}

void BasisLu::ftran(std::vector<double>& x) const {
  APPLE_DCHECK(factorized());
  APPLE_DCHECK_EQ(x.size(), dim_);
  if (dim_ == 0) return;
  // Forward solve L z = P x (z indexed by step, read through pivot_row_).
  for (std::size_t t = 0; t < dim_; ++t) {
    const double xt = x[static_cast<std::size_t>(pivot_row_[t])];
    if (xt == 0.0) continue;
    for (const auto& e : l_cols_[t]) {
      x[static_cast<std::size_t>(e.row)] -= xt * e.value;
    }
  }
  // Back solve U v = z, column-oriented.
  std::vector<double>& v = work_;
  for (std::size_t kk = dim_; kk-- > 0;) {
    const double vk = x[static_cast<std::size_t>(pivot_row_[kk])] / u_diag_[kk];
    v[kk] = vk;
    if (vk == 0.0) continue;
    for (const auto& e : u_cols_[kk]) {
      x[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(
          e.row)])] -= vk * e.value;
    }
  }
  // Map factor order back to basis positions.
  for (std::size_t k = 0; k < dim_; ++k) {
    x[static_cast<std::size_t>(col_order_[k])] = v[k];
  }
  // Apply the eta chain, oldest first: B_k^{-1} = E_k^{-1} ... B_0^{-1}.
  for (const Eta& eta : etas_) {
    const auto p = static_cast<std::size_t>(eta.pos);
    const double t = x[p] / eta.pivot;
    if (t != 0.0) {
      for (const auto& e : eta.terms) {
        x[static_cast<std::size_t>(e.row)] -= t * e.value;
      }
    }
    x[p] = t;
  }
}

void BasisLu::btran(std::vector<double>& x) const {
  APPLE_DCHECK(factorized());
  APPLE_DCHECK_EQ(x.size(), dim_);
  if (dim_ == 0) return;
  // Eta chain first, newest first: B' y = c  =>  y = B_0^{-T} E_1^{-T}...c
  // with E^{-T} applied as c[pos] := (c[pos] - w_off . c) / w[pos].
  for (std::size_t i = etas_.size(); i-- > 0;) {
    const Eta& eta = etas_[i];
    double acc = x[static_cast<std::size_t>(eta.pos)];
    for (const auto& e : eta.terms) {
      acc -= e.value * x[static_cast<std::size_t>(e.row)];
    }
    x[static_cast<std::size_t>(eta.pos)] = acc / eta.pivot;
  }
  // Forward solve U' h = c (U' is lower triangular in step order).
  std::vector<double>& h = work_;
  for (std::size_t k = 0; k < dim_; ++k) {
    double acc = x[static_cast<std::size_t>(col_order_[k])];
    for (const auto& e : u_cols_[k]) {
      acc -= e.value * h[static_cast<std::size_t>(e.row)];
    }
    h[k] = acc / u_diag_[k];
  }
  // Back solve L' s = h: s[t] = h[t] - sum over L column t of later steps.
  for (std::size_t t = dim_; t-- > 0;) {
    double acc = h[t];
    for (const auto& e : l_cols_[t]) {
      acc -= e.value *
             h[static_cast<std::size_t>(
                 row_to_step_[static_cast<std::size_t>(e.row)])];
    }
    h[t] = acc;
  }
  for (std::size_t t = 0; t < dim_; ++t) {
    x[static_cast<std::size_t>(pivot_row_[t])] = h[t];
  }
}

bool BasisLu::update(std::span<const double> w, std::size_t pos) {
  APPLE_DCHECK_EQ(w.size(), dim_);
  APPLE_DCHECK_LT(pos, dim_);
  const double pivot = w[pos];
  if (!(std::abs(pivot) >= kSingularTol) || !std::isfinite(pivot)) {
    return false;  // unstable: caller refactorizes and retries
  }
  Eta eta;
  eta.pos = static_cast<std::int32_t>(pos);
  eta.pivot = pivot;
  for (std::size_t i = 0; i < dim_; ++i) {
    if (i != pos && w[i] != 0.0) {
      eta.terms.push_back({static_cast<std::int32_t>(i), w[i]});
    }
  }
  etas_.push_back(std::move(eta));
  return true;
}

}  // namespace apple::lp
