// Branch-and-bound solver for mixed-integer programs, layered on the
// two-phase simplex. Completes the CPLEX substitution for the placement ILP
// of paper Sec. IV-D (Eq. 1-8).
//
// Strategy: best-first search on the LP-relaxation bound, branching on the
// most fractional integer variable. A branch is a variable-bound tightening
// recorded as a compact diff against the root (no constraint rows are ever
// appended, and the model is never copied per node).
//
// Node LPs run on the revised sparse simplex (see lp/revised_simplex.h):
// a child node differs from its parent only in one variable bound, so the
// parent's optimal basis stays *dual feasible* and the child warm-restarts
// with a handful of dual-simplex pivots instead of a full cold solve. A
// node whose revised solve reports numerical trouble re-solves cold on the
// dense tableau (lp::solve_dense); its children then cold-start the
// revised solver.
//
// Parallelism (MipOptions::num_workers > 1): the search proceeds in epochs.
// Each round the coordinator pops up to num_workers best-bound nodes, their
// relaxations are solved concurrently on a work-stealing pool
// (exec::ThreadPool), and the results are folded back in batch order —
// incumbent updates, pruning, and child creation are therefore independent
// of thread timing, which makes the search bitwise deterministic for a
// fixed worker count (as long as no node/time limit interrupts it).
// num_workers == 1 runs the identical algorithm with no thread machinery.
//
// Intended for the exact solution of small/medium placement models and for
// validating the greedy strategy in tests.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"

namespace apple::lp {

struct MipOptions {
  double integrality_eps = 1e-6;
  // Stop when (upper - lower) / max(1, |upper|) falls below this.
  double relative_gap = 1e-6;
  std::size_t max_nodes = 100000;
  double time_limit_sec = 120.0;
  // Number of B&B nodes solved concurrently per round. 1 (default) is the
  // pure serial path; W > 1 spawns a pool of W - 1 threads per solve (the
  // calling thread is the W-th lane).
  std::size_t num_workers = 1;
  // Optional warm incumbent (one value per model variable): a known
  // feasible integral solution, e.g. the previous epoch's placement when
  // re-optimizing incrementally. It is validated against the model (row
  // violation <= warm_tolerance after snapping integer variables) and, if
  // valid, seeds the incumbent so pruning starts from its objective. An
  // invalid warm solution is ignored — never trusted. Determinism is
  // unaffected: the seed participates in the search exactly like an
  // incumbent found at a round barrier.
  std::vector<double> warm_solution;
  double warm_tolerance = 1e-6;
  SimplexOptions simplex;

  // Dies (APPLE_CHECK) on out-of-range values; MipSolver::solve calls this
  // (and transitively simplex.validate()) before the search starts.
  void validate() const;
};

struct MipResult {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;        // incumbent objective
  double best_bound = 0.0;       // proven lower bound (minimization)
  std::vector<double> x;         // incumbent solution
  std::size_t nodes_explored = 0;
  bool proven_optimal = false;   // false when a limit stopped the search

  bool has_solution() const { return !x.empty(); }
};

class MipSolver {
 public:
  explicit MipSolver(MipOptions options = {}) : options_(options) {}

  MipResult solve(const LpModel& model) const;

 private:
  MipOptions options_;
};

}  // namespace apple::lp
