// The Optimization Engine (paper Sec. IV): computes a VNF placement that
// minimizes the number of instances (Eq. 1) while enforcing every policy
// chain on the classes' existing forwarding paths.
//
// Three strategies:
//  * kExact   — the full ILP solved by branch-and-bound. The reference
//               solution for small/medium inputs and for tests.
//  * kLpRound — LP relaxation + rounding, the approximation the paper uses
//               ("We apply LP relaxation ... and solve it by CPLEX").
//               q is rounded up and then trimmed where capacity allows.
//  * kGreedy  — scalable water-filling greedy with an instance-trimming
//               local search; used for AS-3679-scale inputs (the heuristic
//               regime the paper defers to future work for gigantic
//               networks). Validated against kExact in tests.
#pragma once

#include "core/placement.h"
#include "lp/mip.h"

namespace apple::core {

struct ClassDelta;  // epoch_pipeline.h

enum class PlacementStrategy { kExact, kLpRound, kGreedy };

const char* to_string(PlacementStrategy s);

struct EngineOptions {
  PlacementStrategy strategy = PlacementStrategy::kGreedy;
  lp::MipOptions mip;          // used by kExact
  lp::SimplexOptions simplex;  // used by kLpRound
};

class OptimizationEngine {
 public:
  explicit OptimizationEngine(EngineOptions options = {})
      : options_(options) {}

  // Computes a placement. plan.feasible is false when the strategy could
  // not satisfy the constraints (e.g. resources too tight); the plan then
  // carries the reason.
  PlacementPlan place(const PlacementInput& input) const;

  // Incremental re-placement (epoch pipeline stage 2, paper Sec. VI):
  // carries the pinned classes' assignments over from `prev` verbatim and
  // re-solves only the dirty ones. kGreedy/kLpRound water-fill the dirty
  // classes over the residual capacity left by the pinned load (no
  // consolidation pass — it would move pinned classes and churn instances
  // for no objective gain); kExact re-solves the full ILP with the
  // incremental fill seeding the branch-and-bound incumbent, so the result
  // stays provably optimal. Returns an infeasible plan (with the reason)
  // when the residual fill cannot host the dirty classes — callers fall
  // back to place().
  PlacementPlan replace(const PlacementInput& input, const PlacementPlan& prev,
                        const ClassDelta& delta) const;

 private:
  PlacementPlan place_exact(const PlacementInput& input) const;
  PlacementPlan place_lp_round(const PlacementInput& input) const;
  PlacementPlan place_greedy(const PlacementInput& input) const;

  EngineOptions options_;
};

}  // namespace apple::core
