#include "lp/simplex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "lp/revised_simplex.h"
#include "obs/obs.h"

namespace apple::lp {

void SimplexOptions::validate() const {
  APPLE_CHECK(std::isfinite(feasibility_eps));
  APPLE_CHECK_GT(feasibility_eps, 0.0);
  APPLE_CHECK(std::isfinite(optimality_eps));
  APPLE_CHECK_GT(optimality_eps, 0.0);
  APPLE_CHECK_GE(stall_limit, 1u);
  APPLE_CHECK_GE(deadline_poll_pivots, 1u);
  APPLE_CHECK_GE(refactor_interval, 1u);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Dense row-major tableau with an explicit basis. Columns are laid out as
// [structural vars | slacks/surpluses | artificials | rhs].
//
// Variable bounds (SolveContext) are folded in at construction:
// * fixed variables (lower == upper) never get a column written — their
//   contribution moves into the rhs and they can never enter the basis;
// * a positive lower bound becomes the substitution x = x' + lower
//   (rhs adjustment plus a value shift on extraction);
// * a finite, non-fixing upper bound becomes one extra row x' <= ub - lb
//   with its own slack in the initial basis.
class Tableau {
 public:
  Tableau(const LpModel& model, std::span<const double> lower,
          std::span<const double> upper) {
    n_struct_ = model.num_vars();
    shift_.assign(n_struct_, 0.0);
    fixed_.assign(n_struct_, 0);
    std::size_t n_ub_rows = 0;
    for (std::size_t v = 0; v < n_struct_; ++v) {
      const double l = lower.empty() ? 0.0 : lower[v];
      const double u = upper.empty() ? kInf : upper[v];
      APPLE_CHECK(std::isfinite(l));
      APPLE_CHECK_GE(l, 0.0);
      APPLE_CHECK(!(u < l));  // solve() pre-checks; also rejects NaN
      shift_[v] = l;
      if (u <= l) {
        fixed_[v] = 1;
      } else if (u < kInf) {
        ++n_ub_rows;
      }
    }

    const std::size_t m_model = model.num_rows();
    const std::size_t m = m_model + n_ub_rows;

    // The effective rhs (after the lower-bound substitution) decides each
    // row's orientation, so compute it before allocating aux columns.
    std::vector<double> rhs_eff(m_model, 0.0);
    std::size_t n_slack = n_ub_rows, n_art = 0;
    for (std::size_t r = 0; r < m_model; ++r) {
      const Row& row = model.row(static_cast<RowId>(r));
      APPLE_CHECK(std::isfinite(row.rhs));
      double b = row.rhs;
      for (const auto& [v, coef] : row.terms) {
        // Model sanity: every term references a declared variable and has a
        // finite coefficient (NaN here would silently corrupt every pivot).
        APPLE_CHECK_LT(static_cast<std::size_t>(v), n_struct_);
        APPLE_CHECK(std::isfinite(coef));
        b -= coef * shift_[v];
      }
      rhs_eff[r] = b;
      const bool flip = b < 0.0;
      const Sense sense = flip ? flipped(row.sense) : row.sense;
      if (sense != Sense::kEqual) ++n_slack;
      if (sense != Sense::kLessEqual) ++n_art;
    }

    n_total_ = n_struct_ + n_slack + n_art;
    art_begin_ = n_struct_ + n_slack;
    width_ = n_total_ + 1;  // +1 for rhs
    data_.assign(m * width_, 0.0);
    basis_.assign(m, -1);
    row_active_.assign(m, true);

    std::size_t next_slack = n_struct_;
    std::size_t next_art = art_begin_;
    for (std::size_t r = 0; r < m_model; ++r) {
      const Row& row = model.row(static_cast<RowId>(r));
      const bool flip = rhs_eff[r] < 0.0;
      const double sign = flip ? -1.0 : 1.0;
      const Sense sense = flip ? flipped(row.sense) : row.sense;
      double* t = row_ptr(r);
      for (const auto& [v, coef] : row.terms) {
        if (fixed_[v] != 0) continue;  // substituted into the rhs
        t[v] = sign * coef;
      }
      t[n_total_] = sign * rhs_eff[r];
      switch (sense) {
        case Sense::kLessEqual:
          t[next_slack] = 1.0;
          basis_[r] = static_cast<int>(next_slack++);
          break;
        case Sense::kGreaterEqual:
          t[next_slack++] = -1.0;  // surplus
          t[next_art] = 1.0;
          basis_[r] = static_cast<int>(next_art++);
          break;
        case Sense::kEqual:
          t[next_art] = 1.0;
          basis_[r] = static_cast<int>(next_art++);
          break;
      }
    }
    // Bound rows x' <= ub - lb. The rhs is strictly positive (equal bounds
    // were handled as fixed), so the slack basis is feasible as-is.
    std::size_t br = m_model;
    for (std::size_t v = 0; v < n_struct_; ++v) {
      if (fixed_[v] != 0) continue;
      const double u = upper.empty() ? kInf : upper[v];
      if (!(u < kInf)) continue;
      double* t = row_ptr(br);
      t[v] = 1.0;
      t[next_slack] = 1.0;
      t[n_total_] = u - shift_[v];
      basis_[br] = static_cast<int>(next_slack++);
      ++br;
    }
    APPLE_DCHECK_EQ(br, m);
    APPLE_DCHECK_EQ(next_slack, art_begin_);
    APPLE_DCHECK_EQ(next_art, n_total_);
  }

  std::size_t num_rows() const { return basis_.size(); }
  std::size_t num_cols() const { return n_total_; }
  std::size_t art_begin() const { return art_begin_; }
  bool is_fixed(std::size_t v) const { return fixed_[v] != 0; }

  double* row_ptr(std::size_t r) { return data_.data() + r * width_; }
  const double* row_ptr(std::size_t r) const { return data_.data() + r * width_; }
  double rhs(std::size_t r) const { return row_ptr(r)[n_total_]; }
  int basis(std::size_t r) const { return basis_[r]; }
  bool row_active(std::size_t r) const { return row_active_[r]; }

  // Gauss-Jordan pivot on (row, col); normalizes the pivot row and
  // eliminates the column from all other active rows and the cost rows.
  void pivot(std::size_t prow, std::size_t pcol, std::vector<double>& cost0,
             std::vector<double>* cost1) {
    APPLE_DCHECK_LT(prow, num_rows());
    APPLE_DCHECK_LT(pcol, n_total_);
    APPLE_DCHECK(row_active_[prow]);
    double* p = row_ptr(prow);
    // A zero or non-finite pivot element means the ratio test picked an
    // invalid row; dividing through would spread NaN across the tableau.
    APPLE_DCHECK(std::isfinite(p[pcol]));
    APPLE_DCHECK_NE(p[pcol], 0.0);
    const double inv = 1.0 / p[pcol];
    for (std::size_t j = 0; j <= n_total_; ++j) p[j] *= inv;
    p[pcol] = 1.0;  // kill roundoff
    for (std::size_t r = 0; r < num_rows(); ++r) {
      if (r == prow || !row_active_[r]) continue;
      double* t = row_ptr(r);
      const double f = t[pcol];
      if (f == 0.0) continue;
      for (std::size_t j = 0; j <= n_total_; ++j) t[j] -= f * p[j];
      t[pcol] = 0.0;
    }
    eliminate_from_cost(cost0, prow, pcol);
    if (cost1 != nullptr) eliminate_from_cost(*cost1, prow, pcol);
    basis_[prow] = static_cast<int>(pcol);
  }

  // Cost vectors have n_total_+1 entries; the last is -objective value.
  void eliminate_from_cost(std::vector<double>& cost, std::size_t prow,
                           std::size_t pcol) const {
    APPLE_DCHECK_EQ(cost.size(), n_total_ + 1);
    const double f = cost[pcol];
    if (f == 0.0) return;
    const double* p = row_ptr(prow);
    for (std::size_t j = 0; j <= n_total_; ++j) cost[j] -= f * p[j];
    cost[pcol] = 0.0;
  }

  void deactivate_row(std::size_t r) { row_active_[r] = false; }

  // Extracts structural-variable values from the basis. Nonbasic variables
  // sit at their (shifted) origin, i.e. the lower bound; fixed variables at
  // their fixed value.
  std::vector<double> extract_x() const {
    std::vector<double> x(shift_);
    for (std::size_t r = 0; r < num_rows(); ++r) {
      if (!row_active_[r]) continue;
      const int b = basis_[r];
      if (b >= 0 && static_cast<std::size_t>(b) < n_struct_) {
        x[static_cast<std::size_t>(b)] =
            shift_[static_cast<std::size_t>(b)] + std::max(0.0, rhs(r));
      }
    }
    return x;
  }

 private:
  static Sense flipped(Sense s) {
    switch (s) {
      case Sense::kLessEqual:
        return Sense::kGreaterEqual;
      case Sense::kGreaterEqual:
        return Sense::kLessEqual;
      case Sense::kEqual:
        return Sense::kEqual;
    }
    return s;
  }

  std::size_t n_struct_ = 0;
  std::size_t n_total_ = 0;
  std::size_t art_begin_ = 0;
  std::size_t width_ = 0;
  std::vector<double> data_;
  std::vector<int> basis_;
  std::vector<bool> row_active_;
  std::vector<double> shift_;  // per-struct-var lower bound
  std::vector<char> fixed_;    // per-struct-var: column substituted away
};

enum class PhaseResult { kOptimal, kUnbounded, kIterationLimit };

// Runs simplex iterations on `cost` until no improving column remains.
// Columns >= col_limit are never allowed to enter (bans artificials in
// phase 2). `other_cost` is kept in sync when non-null.
PhaseResult run_phase(Tableau& tab, std::vector<double>& cost,
                      std::vector<double>* other_cost, std::size_t col_limit,
                      const SimplexOptions& opt, std::size_t max_iters,
                      std::size_t& iterations) {
  const bool has_deadline =
      opt.deadline != std::chrono::steady_clock::time_point::max();
  const std::size_t poll = std::max<std::size_t>(1, opt.deadline_poll_pivots);
  std::size_t stall = 0;
  double last_obj = kInf;
  bool bland = false;
  while (true) {
    if (iterations >= max_iters) return PhaseResult::kIterationLimit;
    if (has_deadline && iterations % poll == 0 &&
        // apple-analyze: allow(ambient-time): SimplexOptions::deadline is an
        // opt-in wall-clock escape hatch; the default (time_point::max) is
        // never polled, so deterministic solves stay deterministic
        std::chrono::steady_clock::now() >= opt.deadline) {
      return PhaseResult::kIterationLimit;
    }

    // Pricing: pick the entering column.
    std::size_t enter = col_limit;
    if (bland) {
      for (std::size_t j = 0; j < col_limit; ++j) {
        if (cost[j] < -opt.optimality_eps) {
          enter = j;
          break;
        }
      }
    } else {
      double best = -opt.optimality_eps;
      for (std::size_t j = 0; j < col_limit; ++j) {
        if (cost[j] < best) {
          best = cost[j];
          enter = j;
        }
      }
    }
    if (enter == col_limit) return PhaseResult::kOptimal;

    // Ratio test: pick the leaving row.
    std::size_t leave = tab.num_rows();
    double best_ratio = kInf;
    for (std::size_t r = 0; r < tab.num_rows(); ++r) {
      if (!tab.row_active(r)) continue;
      const double a = tab.row_ptr(r)[enter];
      if (a <= opt.feasibility_eps) continue;
      const double ratio = tab.rhs(r) / a;
      const bool better =
          ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 && leave < tab.num_rows() &&
           tab.basis(r) < tab.basis(leave));  // Bland-compatible tie-break
      if (better) {
        best_ratio = ratio;
        leave = r;
      }
    }
    if (leave == tab.num_rows()) return PhaseResult::kUnbounded;

    tab.pivot(leave, enter, cost, other_cost);
    ++iterations;

    const double obj = -cost.back();
    // Objective staying finite is the cheapest whole-tableau NaN detector:
    // any NaN/inf introduced by a degenerate pivot reaches the cost row on
    // the next elimination.
    APPLE_DCHECK(std::isfinite(obj));
    if (obj < last_obj - 1e-12) {
      last_obj = obj;
      stall = 0;
      bland = false;
    } else if (++stall > opt.stall_limit) {
      bland = true;  // anti-cycling
    }
  }
}

// The uninstrumented two-phase solve behind solve_dense.
LpSolution solve_tableau(const LpModel& model, const SolveContext& ctx,
                         const SimplexOptions& options) {
  LpSolution out;
  const std::size_t n_vars = model.num_vars();
  APPLE_CHECK(ctx.lower.empty() || ctx.lower.size() == n_vars);
  APPLE_CHECK(ctx.upper.empty() || ctx.upper.size() == n_vars);
  if (!ctx.lower.empty() || !ctx.upper.empty()) {
    for (std::size_t v = 0; v < n_vars; ++v) {
      const double l = ctx.lower.empty() ? 0.0 : ctx.lower[v];
      const double u = ctx.upper.empty() ? kInf : ctx.upper[v];
      if (!(l <= u)) {  // crossed bounds (or NaN): no feasible point
        out.status = SolveStatus::kInfeasible;
        return out;
      }
    }
  }

  Tableau tab(model, ctx.lower, ctx.upper);
  const std::size_t n_total = tab.num_cols();
  const std::size_t max_iters =
      options.max_iterations != 0
          ? options.max_iterations
          : 200 + 40 * (tab.num_rows() + n_total);

  // Phase-2 cost row (true objective), kept in sync from the start. Fixed
  // variables have no column, so their cost entry stays 0; their constant
  // objective contribution is recovered by objective_value() at the end.
  std::vector<double> cost2(n_total + 1, 0.0);
  for (std::size_t v = 0; v < n_vars; ++v) {
    if (tab.is_fixed(v)) continue;
    cost2[v] = model.var(static_cast<VarId>(v)).objective;
    APPLE_CHECK(std::isfinite(cost2[v]));
  }

  // Phase-1 cost row: minimize the sum of artificials. Reduced costs for
  // the initial basis: subtract every artificial-basic row.
  std::vector<double> cost1(n_total + 1, 0.0);
  bool need_phase1 = false;
  for (std::size_t j = tab.art_begin(); j < n_total; ++j) cost1[j] = 1.0;
  for (std::size_t r = 0; r < tab.num_rows(); ++r) {
    const int b = tab.basis(r);
    if (b >= 0 && static_cast<std::size_t>(b) >= tab.art_begin()) {
      need_phase1 = true;
      const double* t = tab.row_ptr(r);
      for (std::size_t j = 0; j <= n_total; ++j) cost1[j] -= t[j];
      cost1[b] = 0.0;
    }
  }
  // Basic slacks also need zero reduced cost in cost2 (they already have 0
  // objective), and structural vars are nonbasic, so cost2 is consistent.

  std::size_t iterations = 0;
  if (need_phase1) {
    const PhaseResult r1 = run_phase(tab, cost1, &cost2, tab.art_begin(),
                                     options, max_iters, iterations);
    if (r1 == PhaseResult::kIterationLimit) {
      out.status = SolveStatus::kIterationLimit;
      out.iterations = iterations;
      return out;
    }
    // Phase-1 objective (= sum of artificials) must be ~0 for feasibility.
    const double art_sum = -cost1.back();
    if (art_sum > 1e-6) {
      out.status = SolveStatus::kInfeasible;
      out.iterations = iterations;
      return out;
    }
    // Drive remaining basic artificials out of the basis.
    for (std::size_t r = 0; r < tab.num_rows(); ++r) {
      const int b = tab.basis(r);
      if (b < 0 || static_cast<std::size_t>(b) < tab.art_begin()) continue;
      const double* t = tab.row_ptr(r);
      std::size_t pcol = tab.art_begin();
      for (std::size_t j = 0; j < tab.art_begin(); ++j) {
        if (std::abs(t[j]) > 1e-9) {
          pcol = j;
          break;
        }
      }
      if (pcol < tab.art_begin()) {
        tab.pivot(r, pcol, cost2, &cost1);
        ++iterations;
      } else {
        tab.deactivate_row(r);  // redundant constraint
      }
    }
  }

  const PhaseResult r2 = run_phase(tab, cost2, nullptr, tab.art_begin(),
                                   options, max_iters, iterations);
  out.iterations = iterations;
  switch (r2) {
    case PhaseResult::kUnbounded:
      out.status = SolveStatus::kUnbounded;
      return out;
    case PhaseResult::kIterationLimit:
      out.status = SolveStatus::kIterationLimit;
      return out;
    case PhaseResult::kOptimal:
      break;
  }
  out.status = SolveStatus::kOptimal;
  out.x = tab.extract_x();
  out.objective = model.objective_value(out.x);
  return out;
}

}  // namespace

LpSolution SimplexSolver::solve(const LpModel& model) const {
  return solve(model, SolveContext{});
}

LpSolution SimplexSolver::solve(const LpModel& model,
                                const SolveContext& ctx) const {
  options_.validate();
  // The revised solver instruments itself (same lp.simplex.* names), so
  // only the fallback adds the dense counters.
  RevisedSimplex revised(model, options_);
  LpSolution out = revised.solve(ctx.lower, ctx.upper);
  if (revised.numerical_trouble()) return solve_dense(model, ctx, options_);
  return out;
}

LpSolution solve_dense(const LpModel& model, const SolveContext& ctx,
                       const SimplexOptions& options) {
  options.validate();
  APPLE_OBS_SPAN("lp.simplex.solve");
  LpSolution out = solve_tableau(model, ctx, options);
  APPLE_OBS_COUNT("lp.simplex.solves");
  APPLE_OBS_COUNT_N("lp.simplex.iterations", out.iterations);
  APPLE_OBS_OBSERVE_SIZE("lp.simplex.iterations_per_solve", out.iterations);
  return out;
}

}  // namespace apple::lp
