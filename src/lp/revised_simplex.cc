#include "lp/revised_simplex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "obs/obs.h"

namespace apple::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Smallest |w_i| the ratio tests accept as a pivot element.
constexpr double kPivotTol = 1e-9;
// Dual-feasibility slack allowed when adopting a warm basis — looser than
// optimality_eps because the parent optimum carries one solve of drift.
constexpr double kWarmDualTol = 1e-6;

bool deadline_expired(const SimplexOptions& opt, std::size_t iterations) {
  if (opt.deadline == std::chrono::steady_clock::time_point::max()) {
    return false;
  }
  const std::size_t poll = std::max<std::size_t>(1, opt.deadline_poll_pivots);
  if (iterations % poll != 0) return false;
  // apple-analyze: allow(ambient-time): SimplexOptions::deadline is an
  // opt-in wall-clock escape hatch; this helper is the single poll site
  // shared by every revised-simplex loop (phase 1, phase 2, dual). The
  // default deadline is never polled, so deterministic solves stay
  // deterministic
  return std::chrono::steady_clock::now() >= opt.deadline;
}

}  // namespace

RevisedSimplex::RevisedSimplex(const LpModel& model,
                               const SimplexOptions& options)
    : lp_(SparseLp::build(model)), rows_(lp_.matrix.transposed()),
      opt_(options) {
  opt_.validate();
  const std::size_t m = lp_.num_rows;
  const std::size_t ncol = lp_.num_cols();
  max_iters_ = opt_.max_iterations != 0 ? opt_.max_iterations
                                        : 200 + 40 * (m + ncol);
  lower_.resize(ncol);
  upper_.resize(ncol);
  status_.resize(ncol);
  basic_.resize(m);
  pos_of_.resize(ncol);
  xb_.resize(m);
  work_col_.resize(m);
  work_dual_.resize(m);
  work_d_.resize(ncol);
}

bool RevisedSimplex::setup_bounds(std::span<const double> lower,
                                  std::span<const double> upper) {
  const std::size_t n = lp_.num_struct;
  APPLE_CHECK(lower.empty() || lower.size() == n);
  APPLE_CHECK(upper.empty() || upper.size() == n);
  std::copy(lp_.lower.begin(), lp_.lower.end(), lower_.begin());
  std::copy(lp_.upper.begin(), lp_.upper.end(), upper_.begin());
  for (std::size_t v = 0; v < n; ++v) {
    const double l = lower.empty() ? 0.0 : lower[v];
    const double u = upper.empty() ? kInf : upper[v];
    if (!(l <= u)) return false;  // crossed bounds (or NaN): infeasible
    APPLE_CHECK(std::isfinite(l));
    APPLE_CHECK_GE(l, 0.0);
    lower_[v] = l;
    upper_[v] = u;
  }
  return true;
}

void RevisedSimplex::load_cold_basis() {
  std::fill(pos_of_.begin(), pos_of_.end(), std::int32_t{-1});
  for (std::size_t j = 0; j < lp_.num_struct; ++j) {
    status_[j] = VarStatus::kAtLower;
  }
  for (std::size_t i = 0; i < lp_.num_rows; ++i) {
    const std::size_t col = lp_.num_struct + i;
    basic_[i] = static_cast<std::int32_t>(col);
    status_[col] = VarStatus::kBasic;
    pos_of_[col] = static_cast<std::int32_t>(i);
  }
}

bool RevisedSimplex::load_basis(const SimplexBasis& warm) {
  const std::size_t m = lp_.num_rows;
  const std::size_t ncol = lp_.num_cols();
  if (warm.basic.size() != m || warm.status.size() != ncol) return false;
  std::fill(pos_of_.begin(), pos_of_.end(), std::int32_t{-1});
  for (std::size_t i = 0; i < m; ++i) {
    const std::int32_t col = warm.basic[i];
    if (col < 0 || static_cast<std::size_t>(col) >= ncol) return false;
    const auto c = static_cast<std::size_t>(col);
    if (pos_of_[c] != -1) return false;  // duplicate basic column
    if (warm.status[c] != VarStatus::kBasic) return false;
    basic_[i] = col;
    pos_of_[c] = static_cast<std::int32_t>(i);
  }
  for (std::size_t j = 0; j < ncol; ++j) {
    VarStatus s = warm.status[j];
    if (s == VarStatus::kBasic) {
      if (pos_of_[j] == -1) return false;  // claims basic, not in basis
    } else {
      // Snap to a finite bound; the recorded side can only be infinite if
      // the bound arrays changed shape since the basis was taken.
      if (s == VarStatus::kAtLower && lower_[j] == -kInf) {
        s = VarStatus::kAtUpper;
      } else if (s == VarStatus::kAtUpper && upper_[j] == kInf) {
        s = VarStatus::kAtLower;
      }
      if (s == VarStatus::kAtLower && lower_[j] == -kInf) return false;
      if (s == VarStatus::kAtUpper && upper_[j] == kInf) return false;
    }
    status_[j] = s;
  }
  return true;
}

bool RevisedSimplex::refactorize() {
  ++stats_.refactorizations;
  APPLE_OBS_COUNT("lp.simplex.refactorizations");
  pivots_since_refactor_ = 0;
  if (!lu_.factorize(lp_.matrix, basic_)) return false;
  APPLE_OBS_GAUGE_SET("lp.simplex.lu_fill_nnz", lu_.fill_nnz());
  return true;
}

void RevisedSimplex::compute_basic_values() {
  std::vector<double>& t = work_col_;
  std::copy(lp_.rhs.begin(), lp_.rhs.end(), t.begin());
  for (std::size_t j = 0; j < lp_.num_cols(); ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    const double v = nonbasic_value(j);
    if (v == 0.0) continue;
    for (const auto& e : lp_.matrix.column(j)) {
      t[static_cast<std::size_t>(e.row)] -= e.value * v;
    }
  }
  timed_ftran(t);
  std::copy(t.begin(), t.end(), xb_.begin());
}

void RevisedSimplex::timed_ftran(std::vector<double>& x) {
  obs::MetricsRegistry& reg = obs::default_registry();
  const double t0 = reg.clock_now();
  lu_.ftran(x);
  stats_.ftran_seconds += reg.clock_now() - t0;
}

void RevisedSimplex::timed_btran(std::vector<double>& x) {
  obs::MetricsRegistry& reg = obs::default_registry();
  const double t0 = reg.clock_now();
  lu_.btran(x);
  stats_.btran_seconds += reg.clock_now() - t0;
}

double RevisedSimplex::nonbasic_value(std::size_t j) const {
  return status_[j] == VarStatus::kAtUpper ? upper_[j] : lower_[j];
}

double RevisedSimplex::objective_value() const {
  double obj = 0.0;
  for (std::size_t i = 0; i < lp_.num_rows; ++i) {
    obj += lp_.cost[static_cast<std::size_t>(basic_[i])] * xb_[i];
  }
  for (std::size_t j = 0; j < lp_.num_struct; ++j) {
    if (status_[j] != VarStatus::kBasic && lp_.cost[j] != 0.0) {
      obj += lp_.cost[j] * nonbasic_value(j);
    }
  }
  return obj;
}

double RevisedSimplex::infeasibility(std::size_t pos, double* target) const {
  const auto col = static_cast<std::size_t>(basic_[pos]);
  const double v = xb_[pos];
  if (v < lower_[col] - opt_.feasibility_eps) {
    if (target != nullptr) *target = lower_[col];
    return lower_[col] - v;
  }
  if (v > upper_[col] + opt_.feasibility_eps) {
    if (target != nullptr) *target = upper_[col];
    return v - upper_[col];
  }
  return 0.0;
}

double RevisedSimplex::total_infeasibility() const {
  double total = 0.0;
  for (std::size_t i = 0; i < lp_.num_rows; ++i) {
    total += infeasibility(i, nullptr);
  }
  return total;
}

// Reduced costs d_j = c_j - y . A_j for every column (0 for basic), with
// y = B^{-T} c_B. Phase 1 uses the composite infeasibility costs
// (c_B[i] = -1 below the lower bound, +1 above the upper, 0 feasible)
// recomputed from scratch each call, so the pricing direction always
// reflects the current infeasibility set.
//
// Row-wise: d starts at c (phase 2) or 0 (phase 1), and each row with
// y_i != 0 subtracts y_i * a_ij from its columns, rows ascending. Per
// column that is the dot over its row-sorted entries in the same order,
// minus the y_i = 0 terms, and subtracting a zero product can change only
// the sign of a zero d_j, which no decision reads (DESIGN.md §14).
void RevisedSimplex::price(bool phase2, std::vector<double>& d) {
  std::vector<double>& y = work_dual_;
  for (std::size_t i = 0; i < lp_.num_rows; ++i) {
    if (phase2) {
      y[i] = lp_.cost[static_cast<std::size_t>(basic_[i])];
    } else {
      const auto col = static_cast<std::size_t>(basic_[i]);
      y[i] = xb_[i] < lower_[col] - opt_.feasibility_eps   ? -1.0
             : xb_[i] > upper_[col] + opt_.feasibility_eps ? 1.0
                                                           : 0.0;
    }
  }
  timed_btran(y);
  if (phase2) {
    std::copy(lp_.cost.begin(), lp_.cost.end(), d.begin());
  } else {
    std::fill(d.begin(), d.end(), 0.0);
  }
  for (std::size_t i = 0; i < lp_.num_rows; ++i) {
    const double yi = y[i];
    if (yi == 0.0) continue;
    for (const auto& e : rows_.column(i)) {
      d[static_cast<std::size_t>(e.row)] -= yi * e.value;
    }
  }
  for (const std::int32_t col : basic_) d[static_cast<std::size_t>(col)] = 0.0;
}

bool RevisedSimplex::dual_feasible(double tol) {
  price(/*phase2=*/true, work_d_);
  for (std::size_t j = 0; j < lp_.num_cols(); ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    if (lower_[j] == upper_[j]) continue;  // fixed: any sign is fine
    if (status_[j] == VarStatus::kAtLower && work_d_[j] < -tol) return false;
    if (status_[j] == VarStatus::kAtUpper && work_d_[j] > tol) return false;
  }
  return true;
}

RevisedSimplex::StepResult RevisedSimplex::run_primal() {
  StepResult r = primal_loop(/*phase2=*/false);
  if (r == StepResult::kOptimal) r = primal_loop(/*phase2=*/true);
  return r;
}

RevisedSimplex::StepResult RevisedSimplex::primal_loop(bool phase2) {
  const std::size_t m = lp_.num_rows;
  std::size_t stall = 0;
  bool bland = false;
  double last_merit = kInf;
  // Phase 1's total infeasibility of the current xb_: each pivot's merit
  // is that sum, so it is summed again only after a refactorization
  // recomputed xb_.
  double infeas = 0.0;
  bool infeas_current = false;
  while (true) {
    if (iterations_ >= max_iters_) return StepResult::kIterationLimit;
    if (deadline_expired(opt_, iterations_)) {
      return StepResult::kIterationLimit;
    }
    if (pivots_since_refactor_ >= opt_.refactor_interval) {
      if (!refactorize()) return StepResult::kTrouble;
      compute_basic_values();
      infeas_current = false;
    }

    if (!phase2) {
      if (!infeas_current) infeas = total_infeasibility();
      if (infeas == 0.0) return StepResult::kOptimal;  // primal feasible
    }

    price(phase2, work_d_);

    // Entering column: Dantzig (largest reduced-cost violation, smallest
    // index on ties by scan order); Bland's rule after a stall.
    std::size_t enter = lp_.num_cols();
    double enter_dir = 0.0;
    double best_score = opt_.optimality_eps;
    for (std::size_t j = 0; j < lp_.num_cols(); ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      if (lower_[j] == upper_[j]) continue;  // fixed: can never move
      const double dj = work_d_[j];
      double score = 0.0;
      double dir = 0.0;
      if (status_[j] == VarStatus::kAtLower && dj < -opt_.optimality_eps) {
        score = -dj;
        dir = 1.0;
      } else if (status_[j] == VarStatus::kAtUpper &&
                 dj > opt_.optimality_eps) {
        score = dj;
        dir = -1.0;
      } else {
        continue;
      }
      if (bland) {
        enter = j;
        enter_dir = dir;
        break;
      }
      if (score > best_score) {
        best_score = score;
        enter = j;
        enter_dir = dir;
      }
    }
    if (enter == lp_.num_cols()) {
      if (phase2) return StepResult::kOptimal;
      // No descent direction left; any remaining infeasibility is real.
      return infeas > 1e-6 ? StepResult::kInfeasible : StepResult::kOptimal;
    }

    std::vector<double>& w = work_col_;
    std::fill(w.begin(), w.end(), 0.0);
    for (const auto& e : lp_.matrix.column(enter)) {
      w[static_cast<std::size_t>(e.row)] = e.value;
    }
    timed_ftran(w);

    // Bounded-variable ratio test. x_enter moves by enter_dir * t; basic i
    // moves at rate -enter_dir * w_i. In phase 1 an infeasible basic's
    // breakpoint is the bound it violates (crossing it would overshoot the
    // very infeasibility being repaired); feasible basics use the standard
    // limits. The entering variable's own range caps t (a bound flip).
    const double range = upper_[enter] - lower_[enter];
    double best_t = range;
    std::size_t leave = m;  // m = bound flip (or unbounded)
    double leave_target = 0.0;
    double leave_mag = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double wi = w[i];
      if (std::abs(wi) <= kPivotTol) continue;
      const double delta = -enter_dir * wi;  // d(xb_i)/dt
      const auto col = static_cast<std::size_t>(basic_[i]);
      const double lb = lower_[col];
      const double ub = upper_[col];
      double bp = 0.0;
      double target = 0.0;
      if (!phase2 && xb_[i] < lb - opt_.feasibility_eps) {
        if (delta <= 0.0) continue;  // moves further below (or parallel)
        bp = (lb - xb_[i]) / delta;
        target = lb;
      } else if (!phase2 && xb_[i] > ub + opt_.feasibility_eps) {
        if (delta >= 0.0) continue;
        bp = (ub - xb_[i]) / delta;
        target = ub;
      } else if (delta < 0.0) {
        if (lb == -kInf) continue;
        bp = (xb_[i] - lb) / (-delta);
        target = lb;
      } else {
        if (ub == kInf) continue;
        bp = (ub - xb_[i]) / delta;
        target = ub;
      }
      if (bp < 0.0) bp = 0.0;  // eps drift on a degenerate basis
      const double mag = std::abs(wi);
      const bool better =
          bp < best_t - 1e-12 ||
          (bp < best_t + 1e-12 && leave < m &&
           (bland ? basic_[i] < basic_[leave]
                  : (mag > leave_mag + 1e-12 ||
                     (mag > leave_mag - 1e-12 &&
                      basic_[i] < basic_[leave]))));
      if (better) {
        best_t = bp;
        leave = i;
        leave_target = target;
        leave_mag = mag;
      }
    }
    if (leave == m && !(best_t < kInf)) {
      // Phase 1's objective is bounded below by 0, so a ray here can only
      // be numerical: report trouble, not unbounded.
      return phase2 ? StepResult::kUnbounded : StepResult::kTrouble;
    }

    if (leave == m) {
      // Bound flip: the entering variable crosses its whole range before
      // any basic hits a bound. No basis change, no eta.
      status_[enter] = status_[enter] == VarStatus::kAtLower
                           ? VarStatus::kAtUpper
                           : VarStatus::kAtLower;
      for (std::size_t i = 0; i < m; ++i) {
        xb_[i] -= enter_dir * best_t * w[i];
      }
      ++iterations_;
      ++stats_.bound_flips;
    } else {
      if (!apply_pivot(leave, enter, enter_dir, best_t, leave_target)) {
        return StepResult::kTrouble;
      }
      ++stats_.primal_pivots;
    }

    double merit;
    if (phase2) {
      merit = objective_value();
      APPLE_DCHECK(std::isfinite(merit));
    } else {
      merit = total_infeasibility();
      infeas = merit;
      infeas_current = true;
    }
    if (merit < last_merit - 1e-12) {
      last_merit = merit;
      stall = 0;
      bland = false;
    } else if (++stall > opt_.stall_limit) {
      bland = true;  // anti-cycling
    }
  }
}

RevisedSimplex::StepResult RevisedSimplex::dual_loop() {
  const std::size_t m = lp_.num_rows;
  std::size_t stall = 0;
  std::size_t retries = 0;
  bool bland = false;
  double last_obj = -kInf;
  while (true) {
    if (iterations_ >= max_iters_) return StepResult::kIterationLimit;
    if (deadline_expired(opt_, iterations_)) {
      return StepResult::kIterationLimit;
    }
    if (pivots_since_refactor_ >= opt_.refactor_interval) {
      if (!refactorize()) return StepResult::kTrouble;
      compute_basic_values();
    }

    // Leaving row: worst bound violation (Bland: smallest basic column).
    std::size_t leave = m;
    double worst = 0.0;
    double leave_target = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      double target = 0.0;
      const double viol = infeasibility(i, &target);
      if (viol == 0.0) continue;
      bool better;
      if (leave == m) {
        better = true;
      } else if (bland) {
        better = basic_[i] < basic_[leave];
      } else {
        better = viol > worst + 1e-12 ||
                 (viol > worst - 1e-12 && basic_[i] < basic_[leave]);
      }
      if (better) {
        leave = i;
        worst = viol;
        leave_target = target;
      }
    }
    if (leave == m) return StepResult::kOptimal;  // primal feasible again

    const bool below = xb_[leave] < leave_target;

    // Current reduced costs (the dual ratio numerators), then the leaving
    // row of B^{-1}: rho = B^{-T} e_leave.
    price(/*phase2=*/true, work_d_);
    std::vector<double>& rho = work_dual_;
    std::fill(rho.begin(), rho.end(), 0.0);
    rho[leave] = 1.0;
    timed_btran(rho);

    // Entering column: among columns whose feasible move pushes xb[leave]
    // toward the violated bound (d(xb_leave)/d(x_j) = -alpha_j), take the
    // smallest |d_j| / |alpha_j| — the first reduced cost to hit zero —
    // with ties to the larger |alpha_j| (stability), then smaller index.
    std::size_t enter = lp_.num_cols();
    double best_ratio = kInf;
    double best_alpha = 0.0;
    for (std::size_t j = 0; j < lp_.num_cols(); ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      if (lower_[j] == upper_[j]) continue;  // fixed never enters
      double alpha = 0.0;
      for (const auto& e : lp_.matrix.column(j)) {
        alpha += rho[static_cast<std::size_t>(e.row)] * e.value;
      }
      if (std::abs(alpha) <= kPivotTol) continue;
      const bool at_lower = status_[j] == VarStatus::kAtLower;
      const bool admissible = below ? (at_lower ? alpha < 0.0 : alpha > 0.0)
                                    : (at_lower ? alpha > 0.0 : alpha < 0.0);
      if (!admissible) continue;
      if (bland) {
        enter = j;
        best_alpha = alpha;
        break;
      }
      const double ratio = std::abs(work_d_[j]) / std::abs(alpha);
      const bool better =
          ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 &&
           std::abs(alpha) > std::abs(best_alpha) + 1e-12);
      if (enter == lp_.num_cols() || better) {
        enter = j;
        best_ratio = ratio;
        best_alpha = alpha;
      }
    }
    if (enter == lp_.num_cols()) {
      // No column can repair the violated row: a dual ray, i.e. the primal
      // problem is infeasible under the current bounds.
      return StepResult::kInfeasible;
    }

    std::vector<double>& w = work_col_;
    std::fill(w.begin(), w.end(), 0.0);
    for (const auto& e : lp_.matrix.column(enter)) {
      w[static_cast<std::size_t>(e.row)] = e.value;
    }
    timed_ftran(w);
    const double wl = w[leave];
    if (std::abs(wl) <= kPivotTol ||
        (wl > 0.0) != (best_alpha > 0.0)) {
      // FTRAN disagrees with BTRAN about the pivot element: the eta chain
      // has drifted. Refactorize once and redo the iteration.
      if (++retries > 2) return StepResult::kTrouble;
      if (!refactorize()) return StepResult::kTrouble;
      compute_basic_values();
      continue;
    }
    retries = 0;

    const bool enter_at_lower = status_[enter] == VarStatus::kAtLower;
    const double dir = enter_at_lower ? 1.0 : -1.0;
    double t = (xb_[leave] - leave_target) / (dir * wl);
    if (t < 0.0) t = 0.0;  // eps drift: degenerate dual pivot

    if (!apply_pivot(leave, enter, dir, t, leave_target)) {
      return StepResult::kTrouble;
    }
    ++stats_.dual_pivots;
    APPLE_OBS_COUNT("lp.simplex.dual_pivots");

    // The primal objective is nondecreasing along dual pivots; use it as
    // the anti-cycling progress measure.
    const double obj = objective_value();
    APPLE_DCHECK(std::isfinite(obj));
    if (obj > last_obj + 1e-12) {
      last_obj = obj;
      stall = 0;
      bland = false;
    } else if (++stall > opt_.stall_limit) {
      bland = true;
    }
  }
}

bool RevisedSimplex::apply_pivot(std::size_t leave, std::size_t enter,
                                 double dir, double step,
                                 double leave_target) {
  std::vector<double>& w = work_col_;  // current FTRAN of entering column
  if (!lu_.update(w, leave)) {
    // Unstable pivot element: the eta chain's roundoff may be at fault.
    // Refactorize the current basis, recompute w, and retry once.
    if (!refactorize()) return false;
    compute_basic_values();
    std::fill(w.begin(), w.end(), 0.0);
    for (const auto& e : lp_.matrix.column(enter)) {
      w[static_cast<std::size_t>(e.row)] = e.value;
    }
    timed_ftran(w);
    if (!lu_.update(w, leave)) return false;
  }
  const std::size_t m = lp_.num_rows;
  const double xq = nonbasic_value(enter) + dir * step;
  for (std::size_t i = 0; i < m; ++i) {
    if (i == leave) continue;
    xb_[i] -= dir * step * w[i];
  }
  const auto lcol = static_cast<std::size_t>(basic_[leave]);
  status_[lcol] =
      leave_target == upper_[lcol] && lower_[lcol] != upper_[lcol]
          ? VarStatus::kAtUpper
          : VarStatus::kAtLower;
  pos_of_[lcol] = -1;
  basic_[leave] = static_cast<std::int32_t>(enter);
  status_[enter] = VarStatus::kBasic;
  pos_of_[enter] = static_cast<std::int32_t>(leave);
  xb_[leave] = xq;
  ++iterations_;
  ++pivots_since_refactor_;
  ++stats_.pivots;
  return true;
}

LpSolution RevisedSimplex::finish(StepResult r) {
  LpSolution out;
  out.iterations = iterations_;
  switch (r) {
    case StepResult::kUnbounded:
      out.status = SolveStatus::kUnbounded;
      return out;
    case StepResult::kInfeasible:
      out.status = SolveStatus::kInfeasible;
      return out;
    case StepResult::kIterationLimit:
      out.status = SolveStatus::kIterationLimit;
      return out;
    case StepResult::kTrouble:
      trouble_ = true;
      out.status = SolveStatus::kIterationLimit;
      return out;
    case StepResult::kOptimal:
      break;
  }
  out.status = SolveStatus::kOptimal;
  out.x.assign(lp_.num_struct, 0.0);
  for (std::size_t j = 0; j < lp_.num_struct; ++j) {
    double v = status_[j] == VarStatus::kBasic
                   ? xb_[static_cast<std::size_t>(pos_of_[j])]
                   : nonbasic_value(j);
    // Basic values can sit eps outside their bounds; extraction clamps,
    // like the dense tableau's max(0, rhs).
    v = std::min(std::max(v, lower_[j]), upper_[j]);
    out.x[j] = v;
    out.objective += lp_.cost[j] * v;
  }
  snapshot_basis();
  return out;
}

void RevisedSimplex::finish_obs(const LpSolution& out) {
  APPLE_OBS_COUNT("lp.simplex.solves");
  APPLE_OBS_COUNT_N("lp.simplex.iterations", out.iterations);
  APPLE_OBS_OBSERVE_SIZE("lp.simplex.iterations_per_solve", out.iterations);
  APPLE_OBS_OBSERVE("lp.simplex.btran_seconds", stats_.btran_seconds);
  APPLE_OBS_OBSERVE("lp.simplex.ftran_seconds", stats_.ftran_seconds);
}

void RevisedSimplex::snapshot_basis() {
  basis_snapshot_.basic.assign(basic_.begin(), basic_.end());
  basis_snapshot_.status.assign(status_.begin(), status_.end());
}

LpSolution RevisedSimplex::solve(std::span<const double> lower,
                                 std::span<const double> upper) {
  APPLE_OBS_SPAN("lp.simplex.solve");
  stats_ = {};
  trouble_ = false;
  iterations_ = 0;
  LpSolution out;
  if (!setup_bounds(lower, upper)) {
    out.status = SolveStatus::kInfeasible;
    finish_obs(out);
    return out;
  }
  load_cold_basis();
  if (!refactorize()) {
    // The all-logical basis is the identity; a failure here is a broken
    // model, not a recoverable state.
    trouble_ = true;
    out.status = SolveStatus::kIterationLimit;
    finish_obs(out);
    return out;
  }
  compute_basic_values();
  out = finish(run_primal());
  finish_obs(out);
  return out;
}

LpSolution RevisedSimplex::solve_warm(std::span<const double> lower,
                                      std::span<const double> upper,
                                      const SimplexBasis& warm) {
  APPLE_OBS_SPAN("lp.simplex.solve");
  stats_ = {};
  trouble_ = false;
  iterations_ = 0;
  LpSolution out;
  if (!setup_bounds(lower, upper)) {
    out.status = SolveStatus::kInfeasible;
    finish_obs(out);
    return out;
  }
  const bool warmed = !warm.empty() && load_basis(warm) && refactorize();
  if (warmed) {
    compute_basic_values();
    StepResult r;
    if (dual_feasible(kWarmDualTol)) {
      APPLE_OBS_COUNT("lp.simplex.warm_restarts");
      r = dual_loop();
      if (r == StepResult::kOptimal) {
        APPLE_OBS_OBSERVE_SIZE("lp.simplex.dual_pivots_per_warm",
                               stats_.dual_pivots);
        r = primal_loop(/*phase2=*/true);  // confirm / polish drift
      }
    } else {
      // The basis lost dual feasibility (more than drift). It is still a
      // good primal starting point: phase 1 from here beats a cold start.
      r = run_primal();
    }
    if (r != StepResult::kTrouble) {
      out = finish(r);
      finish_obs(out);
      return out;
    }
  }
  // Warm basis unusable: cold solve.
  load_cold_basis();
  if (!refactorize()) {
    trouble_ = true;
    out.status = SolveStatus::kIterationLimit;
    out.iterations = iterations_;
    finish_obs(out);
    return out;
  }
  compute_basic_values();
  out = finish(run_primal());
  finish_obs(out);
  return out;
}

}  // namespace apple::lp
