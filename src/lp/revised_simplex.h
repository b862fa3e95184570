// Revised simplex over sparse columns with an LU-factorized basis and a
// dual-simplex phase for warm restarts.
//
// Where the dense tableau (lp/simplex.cc) spends O(m*n) per pivot on
// Gauss-Jordan elimination, the revised method keeps only the basis
// factorization (lp/basis_lu.h) and reconstructs what a pivot needs on
// demand: one BTRAN for the pricing vector y = B^{-T} c_B, one pass over
// the rows with y_i != 0 (a row-wise copy of the matrix) for reduced
// costs, and one FTRAN for the entering column — O(m + nnz) per pivot on
// the sparse placement models.
//
// Phases:
// * Cold solve: composite phase 1 (minimize total bound infeasibility of
//   the all-logical starting basis; no artificial columns — see
//   lp/sparse.h) followed by primal phase 2. Bounds are native: a
//   branch-and-bound fixing never grows the matrix.
// * Warm solve: load a caller-provided basis (typically the parent B&B
//   node's optimum), which stays *dual feasible* after a bound tightening
//   because reduced costs depend only on the basis and costs. The dual
//   simplex drives the handful of bound-violating basics back inside in a
//   few pivots, then primal phase 2 confirms optimality. If the basis is
//   unusable (singular, inconsistent, dual infeasible beyond tolerance)
//   the solver degrades to a primal solve from that basis, then to a cold
//   solve — never to a wrong answer.
//
// Determinism: entering/leaving selection uses fixed tie-breaks (largest
// magnitude, then smallest index), refactorization fires on a fixed pivot
// schedule, and no ambient state is read except the opt-in deadline — a
// solve is bitwise reproducible. Numerical trouble (unstable pivot after a
// refactorize-retry, a singular repair, phase-1 stall) sets
// `numerical_trouble()` and the caller falls back to the dense tableau
// (SimplexSolver::solve and every B&B node do).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lp/basis_lu.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/sparse.h"

namespace apple::lp {

enum class VarStatus : std::uint8_t { kAtLower, kAtUpper, kBasic };

// A restartable basis snapshot: which column is basic in each row position
// plus every column's status. Shared (not copied) down a B&B subtree.
struct SimplexBasis {
  std::vector<std::int32_t> basic;  // per row position
  std::vector<VarStatus> status;    // per column (struct + logical)

  bool empty() const { return basic.empty(); }
};

// Per-solve counters, reset at the start of every solve.
struct RevisedStats {
  std::size_t pivots = 0;  // primal + dual (dense-equivalent iterations)
  std::size_t primal_pivots = 0;
  std::size_t dual_pivots = 0;
  std::size_t bound_flips = 0;
  std::size_t refactorizations = 0;
  double btran_seconds = 0.0;
  double ftran_seconds = 0.0;
};

class RevisedSimplex {
 public:
  // Lowers `model` once (CSC + bounds); the instance can then solve any
  // number of bound overlays against the same matrix, which is how the
  // branch-and-bound engine shares it across all nodes of a search.
  // `model` must outlive the solver.
  RevisedSimplex(const LpModel& model, const SimplexOptions& options);

  // Cold solve under an optional bound overlay (empty spans = defaults:
  // lower 0, upper +inf). Overlay semantics match SolveContext.
  LpSolution solve(std::span<const double> lower,
                   std::span<const double> upper);

  // Warm solve from `warm` (see header comment). Same overlay semantics.
  LpSolution solve_warm(std::span<const double> lower,
                        std::span<const double> upper,
                        const SimplexBasis& warm);

  // Basis at the last optimal exit; meaningful only after optimal().
  const SimplexBasis& basis() const { return basis_snapshot_; }

  // True when the last solve hit numerical trouble; the result must not
  // be trusted and the caller should fall back to the dense solver.
  bool numerical_trouble() const { return trouble_; }

  const RevisedStats& stats() const { return stats_; }

 private:
  enum class StepResult {
    kOptimal,         // no improving column / no violated row
    kUnbounded,       // phase-2 ray
    kInfeasible,      // phase 1 stalled positive / dual ray
    kIterationLimit,  // pivot budget or deadline
    kTrouble,         // numerical trouble; fall back
  };

  bool setup_bounds(std::span<const double> lower,
                    std::span<const double> upper);
  void load_cold_basis();
  bool load_basis(const SimplexBasis& warm);
  bool refactorize();
  void compute_basic_values();
  void timed_ftran(std::vector<double>& x);
  void timed_btran(std::vector<double>& x);
  double nonbasic_value(std::size_t j) const;
  double objective_value() const;
  double infeasibility(std::size_t pos, double* target) const;
  // Sum of infeasibility() over every position, ascending.
  double total_infeasibility() const;
  void price(bool phase2, std::vector<double>& d);
  bool dual_feasible(double tol);
  StepResult run_primal();
  StepResult primal_loop(bool phase2);
  StepResult dual_loop();
  bool apply_pivot(std::size_t leave, std::size_t enter, double dir,
                   double step, double leave_target);
  LpSolution finish(StepResult result);
  void finish_obs(const LpSolution& out);
  void snapshot_basis();

  const SparseLp lp_;
  // lp_.matrix transposed: column i lists row i of [A | I] (pricing).
  const SparseMatrix rows_;
  SimplexOptions opt_;
  std::size_t max_iters_ = 0;
  std::size_t iterations_ = 0;

  // Per-solve state.
  std::vector<double> lower_;  // effective bounds (model + overlay)
  std::vector<double> upper_;
  std::vector<VarStatus> status_;
  std::vector<std::int32_t> basic_;   // per position
  std::vector<std::int32_t> pos_of_;  // per column; -1 = nonbasic
  std::vector<double> xb_;            // basic values per position
  BasisLu lu_;
  std::size_t pivots_since_refactor_ = 0;

  // Workspaces (sized once).
  std::vector<double> work_col_;   // FTRAN target
  std::vector<double> work_dual_;  // BTRAN target
  std::vector<double> work_d_;     // reduced costs per column

  RevisedStats stats_;
  bool trouble_ = false;
  SimplexBasis basis_snapshot_;
};

}  // namespace apple::lp
