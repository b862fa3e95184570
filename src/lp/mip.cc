#include "lp/mip.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "lp/revised_simplex.h"
#include "obs/obs.h"

namespace apple::lp {

void MipOptions::validate() const {
  APPLE_CHECK(std::isfinite(integrality_eps));
  APPLE_CHECK_GT(integrality_eps, 0.0);
  APPLE_CHECK(std::isfinite(relative_gap));
  APPLE_CHECK_GE(relative_gap, 0.0);
  APPLE_CHECK_GE(max_nodes, 1u);
  APPLE_CHECK_GT(time_limit_sec, 0.0);
  APPLE_CHECK_GE(warm_tolerance, 0.0);
  simplex.validate();
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A branching decision, applied as a variable-bound tightening: either
// x <= value (upper) or x >= value (lower). Nodes carry the root-to-node
// chain of these diffs instead of a mutated model copy.
struct BoundDelta {
  VarId var = -1;
  bool upper = false;
  double value = 0.0;
};

struct Node {
  double bound = -kInf;   // parent LP objective (lower bound for children)
  std::uint64_t seq = 0;  // creation index: deterministic heap tie-break
  std::vector<BoundDelta> deltas;
  // Parent basis for the revised solver's dual warm restart. Null for the
  // root and for children of dense-fallback nodes (cold start).
  std::shared_ptr<const SimplexBasis> rbasis;
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;  // best bound first
    return a.seq > b.seq;  // then oldest node: deterministic total order
  }
};

// Per-batch-slot workspace, reused across rounds.
struct Slot {
  std::vector<double> lower;
  std::vector<double> upper;
  LpSolution rel;
  // Optimal basis of this node's revised solve, handed to its children
  // for a dual warm restart. Null after a dense fallback.
  std::shared_ptr<const SimplexBasis> basis;
};

// True when `bound` cannot improve on incumbent `inc` by more than the
// relative gap. False while no incumbent exists (inc = +inf).
bool prunable(double bound, double inc, double gap) {
  return std::isfinite(inc) && bound >= inc - gap * std::max(1.0, std::abs(inc));
}

// Index into `int_vars` of the most fractional variable, or -1 if the
// assignment is integral on all of them.
VarId most_fractional(const std::vector<VarId>& int_vars,
                      const std::vector<double>& x, double eps) {
  VarId best = -1;
  double best_frac_dist = eps;
  for (const VarId v : int_vars) {
    const double frac = x[static_cast<std::size_t>(v)] -
                        std::floor(x[static_cast<std::size_t>(v)]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_frac_dist) {
      best_frac_dist = dist;
      best = v;
    }
  }
  return best;
}

}  // namespace

MipResult MipSolver::solve(const LpModel& model) const {
  APPLE_OBS_SPAN("lp.mip.solve");
  APPLE_OBS_COUNT("lp.mip.solves");
  options_.validate();
  std::uint64_t nodes_pruned = 0;
  // apple-analyze: allow(ambient-time): opt-in wall-clock budget; with the
  // default infinite time_limit_sec the deadline never fires, and a finite
  // budget is an explicit request to trade determinism for latency
  const auto deadline = std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.time_limit_sec));

  // Node LPs must respect the MIP deadline too, not just the node-loop
  // check: one long relaxation would otherwise overshoot the time limit.
  SimplexOptions sopt = options_.simplex;
  sopt.deadline = std::min(sopt.deadline, deadline);

  MipResult res;
  // Coordinator-owned: only touched between rounds, never by workers.
  double incumbent_obj = kInf;
  std::vector<double> incumbent_x;
  // Flush node counters on every exit path (limit, infeasible, optimal).
  struct NodeCounterFlush {
    const MipResult& res;
    const std::uint64_t& pruned;
    ~NodeCounterFlush() {
      APPLE_OBS_COUNT_N("lp.mip.nodes_explored", res.nodes_explored);
      APPLE_OBS_COUNT_N("lp.mip.nodes_pruned", pruned);
    }
  } node_counter_flush{res, nodes_pruned};

  const std::size_t n_vars = model.num_vars();
  std::vector<VarId> int_vars;  // computed once; most_fractional scans this
  for (std::size_t v = 0; v < n_vars; ++v) {
    if (model.var(static_cast<VarId>(v)).integer) {
      int_vars.push_back(static_cast<VarId>(v));
    }
  }

  // Seed the incumbent from a caller-supplied warm solution (incremental
  // re-optimization hands in the previous epoch's plan). Snap the integer
  // variables and verify feasibility — a stale or mismatched warm solution
  // must degrade to a cold start, never to wrong pruning.
  if (!options_.warm_solution.empty()) {
    bool warm_ok = options_.warm_solution.size() == n_vars;
    std::vector<double> warm;
    if (warm_ok) {
      warm = options_.warm_solution;
      for (const VarId v : int_vars) {
        double& val = warm[static_cast<std::size_t>(v)];
        const double rounded = std::round(val);
        if (std::abs(val - rounded) > options_.integrality_eps) {
          warm_ok = false;
          break;
        }
        val = rounded;
      }
      warm_ok = warm_ok && model.max_violation(warm) <= options_.warm_tolerance;
    }
    if (warm_ok) {
      incumbent_obj = model.objective_value(warm);
      incumbent_x = std::move(warm);
      APPLE_OBS_COUNT("lp.mip.warm_incumbents");
    } else {
      APPLE_OBS_COUNT("lp.mip.warm_rejected");
    }
  }

  const std::size_t num_workers = std::max<std::size_t>(1, options_.num_workers);
  std::unique_ptr<exec::ThreadPool> pool;
  if (num_workers > 1) {
    pool = std::make_unique<exec::ThreadPool>(num_workers - 1);
  }
  // One solver per slot: workers never share solver state. Each instance
  // lowers the model to sparse form once and is reused for every node the
  // slot solves.
  std::vector<std::unique_ptr<RevisedSimplex>> rsolvers(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    rsolvers[i] = std::make_unique<RevisedSimplex>(model, sopt);
  }
  std::vector<Slot> slots(num_workers);
  std::vector<Node> batch;
  batch.reserve(num_workers);

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  std::uint64_t next_seq = 0;
  APPLE_OBS_EVENT_N("lp.mip.node.enqueue", 0);
  open.push(Node{-kInf, next_seq++, {}, nullptr});
  bool hit_limit = false;
  double best_open_bound = -kInf;

  const auto solve_slot = [&](std::size_t i) {
    Slot& s = slots[i];
    const Node& node = batch[i];
    APPLE_OBS_EVENT_N("lp.mip.node.solve", node.seq);
    s.basis = nullptr;
    s.lower.assign(n_vars, 0.0);
    s.upper.assign(n_vars, kInf);
    for (const BoundDelta& d : node.deltas) {
      const auto v = static_cast<std::size_t>(d.var);
      if (d.upper) {
        s.upper[v] = std::min(s.upper[v], d.value);
      } else {
        s.lower[v] = std::max(s.lower[v], d.value);
      }
    }
    RevisedSimplex& rs = *rsolvers[i];
    s.rel = node.rbasis != nullptr
                ? rs.solve_warm(s.lower, s.upper, *node.rbasis)
                : rs.solve(s.lower, s.upper);
    if (rs.numerical_trouble()) {
      APPLE_OBS_COUNT("lp.mip.dense_fallbacks");
      SolveContext ctx;
      ctx.lower = s.lower;
      ctx.upper = s.upper;
      s.rel = solve_dense(model, ctx, sopt);
    } else if (s.rel.status == SolveStatus::kOptimal) {
      s.basis = std::make_shared<SimplexBasis>(rs.basis());
    }
  };

  while (!open.empty()) {
    if (res.nodes_explored >= options_.max_nodes ||
        // apple-analyze: allow(ambient-time): deadline poll for the opt-in
        // wall-clock budget above; unreachable under the default options
        std::chrono::steady_clock::now() > deadline) {
      hit_limit = true;
      break;
    }

    // Pop this round's batch: the best-bound nodes still worth solving.
    batch.clear();
    const std::size_t round_cap = std::min(
        num_workers, options_.max_nodes - res.nodes_explored);
    while (batch.size() < round_cap && !open.empty()) {
      Node node = open.top();
      open.pop();
      best_open_bound = node.bound;
      // Bound-based prune (bounds can only tighten down the tree).
      if (prunable(node.bound, incumbent_obj, options_.relative_gap)) {
        APPLE_OBS_EVENT_N("lp.mip.node.prune", node.seq);
        ++nodes_pruned;
        continue;
      }
      batch.push_back(std::move(node));
    }
    if (batch.empty()) break;  // the heap drained into pop-prunes

    if (pool != nullptr && batch.size() > 1) {
      exec::parallel_for(*pool, 0, batch.size(), solve_slot);
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) solve_slot(i);
    }

    // Fold results back in batch order — this ordering (not thread timing)
    // decides incumbents and child seq numbers, hence determinism.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Slot& s = slots[i];
      ++res.nodes_explored;
      const LpSolution& rel = s.rel;
      if (rel.status == SolveStatus::kInfeasible) continue;
      if (rel.status == SolveStatus::kIterationLimit) {
        hit_limit = true;
        continue;
      }
      if (rel.status == SolveStatus::kUnbounded) {
        // An unbounded relaxation at the root means an unbounded MIP (for
        // the models we build, objectives are bounded below by 0).
        res.status = SolveStatus::kUnbounded;
        return res;
      }
      if (prunable(rel.objective, incumbent_obj, options_.relative_gap)) {
        APPLE_OBS_EVENT_N("lp.mip.node.prune", batch[i].seq);
        ++nodes_pruned;
        continue;
      }

      const VarId frac_var =
          most_fractional(int_vars, rel.x, options_.integrality_eps);
      if (frac_var < 0) {
        // Integral: new incumbent.
        if (rel.objective < incumbent_obj) {
          APPLE_OBS_EVENT_N("lp.mip.node.incumbent", batch[i].seq);
          incumbent_obj = rel.objective;
          incumbent_x = rel.x;
          // Snap near-integers exactly.
          for (const VarId v : int_vars) {
            incumbent_x[static_cast<std::size_t>(v)] =
                std::round(incumbent_x[static_cast<std::size_t>(v)]);
          }
        }
        continue;
      }

      const double val = rel.x[static_cast<std::size_t>(frac_var)];
      Node down{rel.objective, next_seq++, batch[i].deltas, s.basis};
      down.deltas.push_back(BoundDelta{frac_var, true, std::floor(val)});
      Node up{rel.objective, next_seq++, std::move(batch[i].deltas), s.basis};
      up.deltas.push_back(BoundDelta{frac_var, false, std::ceil(val)});
      APPLE_OBS_EVENT_N("lp.mip.node.enqueue", down.seq);
      APPLE_OBS_EVENT_N("lp.mip.node.enqueue", up.seq);
      open.push(std::move(down));
      open.push(std::move(up));
    }
  }

  if (incumbent_x.empty()) {
    res.status =
        hit_limit ? SolveStatus::kIterationLimit : SolveStatus::kInfeasible;
    return res;
  }
  res.status = SolveStatus::kOptimal;
  res.objective = incumbent_obj;
  res.x = std::move(incumbent_x);
  res.proven_optimal = !hit_limit && open.empty();
  res.best_bound = res.proven_optimal
                       ? incumbent_obj
                       : std::max(best_open_bound, -kInf);
  return res;
}

}  // namespace apple::lp
