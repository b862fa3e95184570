#include "baselines/properties.h"

#include "common/check.h"
#include "obs/obs.h"

#include "baselines/comb.h"
#include "baselines/ingress.h"
#include "baselines/pace.h"
#include "baselines/steering.h"
#include "core/optimization_engine.h"

namespace apple::baseline {

namespace {

// A plan enforces policies iff it satisfies the placement constraints
// (completion + order + capacity); check_plan verifies exactly those.
bool enforces(const core::PlacementInput& input,
              const core::PlacementPlan& plan) {
  return plan.feasible && core::check_plan(input, plan).empty();
}

}  // namespace

std::vector<FrameworkProperties> evaluate_frameworks(
    const core::PlacementInput& input, const net::AllPairsPaths& routing) {
  APPLE_CHECK(input.topology != nullptr);
  APPLE_OBS_SPAN("baselines.properties.evaluate");
  APPLE_OBS_COUNT("baselines.properties.evaluations");
  std::vector<FrameworkProperties> rows;

  // SIMPLE/StEERING-style steering: enforcement via detours, VM isolation,
  // but paths change.
  {
    const SteeringPlacement steering = place_steering(input, routing);
    FrameworkProperties row;
    row.framework = "traffic-steering (SIMPLE/StEERING)";
    // Steering enforces chains on its own steered paths by construction:
    // every stage site lies on the steered path in chain order.
    row.policy_enforcement = true;
    row.interference_free = steering.classes_rerouted == 0;
    row.isolation = true;
    rows.push_back(row);
  }

  // PACE-style VM placement: no chain awareness.
  {
    const PacePlacement pace = place_pace(input);
    FrameworkProperties row;
    row.framework = "PACE (VM placement)";
    row.policy_enforcement = enforces(input, pace.plan);
    row.interference_free = true;  // never steers
    row.isolation = true;
    rows.push_back(row);
  }

  // CoMb-style consolidation: threads in one box.
  {
    const CombPlacement comb = place_comb(input);
    FrameworkProperties row;
    row.framework = "CoMb (consolidation)";
    // Chains sit complete at a single on-path box, so order and completion
    // hold by construction (capacity is managed by CoMb's own scheduler).
    row.policy_enforcement = comb.plan.feasible;
    row.interference_free = true;
    row.isolation = comb.isolation;
    rows.push_back(row);
  }

  // Ingress strawman (also VM-isolated and interference-free).
  {
    const core::PlacementPlan ingress = place_ingress(input);
    FrameworkProperties row;
    row.framework = "ingress strawman";
    row.policy_enforcement = ingress.feasible;
    row.interference_free = true;
    row.isolation = true;
    rows.push_back(row);
  }

  // APPLE.
  {
    core::EngineOptions options;
    options.strategy = core::PlacementStrategy::kGreedy;
    const core::PlacementPlan plan =
        core::OptimizationEngine(options).place(input);
    FrameworkProperties row;
    row.framework = "APPLE";
    row.policy_enforcement = enforces(input, plan);
    row.interference_free = true;  // d is defined on the original paths only
    row.isolation = true;          // one VM per instance
    rows.push_back(row);
  }
  return rows;
}

}  // namespace apple::baseline
