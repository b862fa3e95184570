// LP-relaxation solver entry points.
//
// `SimplexSolver` is the one production engine: every solve runs the
// revised sparse simplex (lp/revised_simplex.h) and re-solves cold on the
// dense tableau only when the revised solve reports numerical trouble. That
// decision depends only on the solve's own deterministic arithmetic, so the
// fallback keeps the determinism contract.
//
// `solve_dense` is the two-phase primal simplex on a dense tableau,
// implemented here. It is the reference implementation: the numerical-
// trouble fallback, the differential tests and bench_micro call it. The
// comments below describe it.
//
// Solves the LP relaxation of an LpModel (integrality markers are ignored).
// Designed for the sizes the APPLE Optimization Engine produces for small
// and medium topologies (a few thousand rows/columns); larger instances use
// the greedy placement strategy instead (see core/optimization_engine.h).
//
// Branch-and-bound support (lp/mip.cc) comes through `SolveContext`:
// * A per-variable bound overlay [lower, upper] applied on top of the
//   model's x >= 0. Lower bounds are substituted away (x = x' + l), a
//   variable fixed by equal bounds drops out of pricing entirely, and only
//   a finite, non-fixing upper bound costs one extra tableau row — so a
//   B&B node's tableau no longer grows with tree depth, and branching on
//   binaries *shrinks* the active column set.
// * A hard deadline in SimplexOptions, polled every K pivots inside
//   run_phase, so one long LP cannot overshoot the MIP time limit.
//
// Numerical notes:
// * Dantzig pricing with a Bland's-rule fallback after a stall, which
//   guarantees termination despite the heavy degeneracy of the placement
//   model (many zero-rhs precedence rows).
// * Artificial variables only for >= and = rows; <= rows start from their
//   slack basis. Remaining basic artificials after phase 1 are pivoted out
//   or their rows marked redundant.
#pragma once

#include <chrono>
#include <cstddef>
#include <span>

#include "lp/model.h"

namespace apple::lp {

struct SimplexOptions {
  std::size_t max_iterations = 0;  // 0 = automatic (scales with model size)
  double feasibility_eps = 1e-7;
  double optimality_eps = 1e-9;
  // Iterations without objective improvement before switching to Bland's
  // anti-cycling rule.
  std::size_t stall_limit = 256;
  // Wall-clock deadline; a solve past it stops with kIterationLimit. The
  // default never triggers. Polled every `deadline_poll_pivots` pivots.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  std::size_t deadline_poll_pivots = 64;
  // Revised simplex: pivots between basis refactorizations (the eta chain
  // is discarded and B = LU recomputed; see lp/basis_lu.h).
  std::size_t refactor_interval = 64;

  // Dies (APPLE_CHECK) on out-of-range values; every solver entry point
  // calls this before using the options.
  void validate() const;
};

// Per-solve overlay for branch-and-bound nodes; see header comment.
struct SolveContext {
  // Variable bounds on top of x >= 0. Empty spans mean "no overlay"
  // (lower all 0, upper all +inf); non-empty spans must have
  // model.num_vars() entries with lower <= upper (a violated pair makes
  // the solve infeasible).
  std::span<const double> lower;
  std::span<const double> upper;
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  // Solves the LP relaxation. The returned x has model.num_vars() entries.
  LpSolution solve(const LpModel& model) const;
  LpSolution solve(const LpModel& model, const SolveContext& ctx) const;

 private:
  SimplexOptions options_;
};

// The dense-tableau reference solve, recorded under the same lp.simplex.*
// span and counters as the revised engine (DESIGN.md Sec. 7).
LpSolution solve_dense(const LpModel& model, const SolveContext& ctx = {},
                       const SimplexOptions& options = {});

}  // namespace apple::lp
