#include "core/ilp_builder.h"

#include <gtest/gtest.h>

#include "lp/simplex.h"
#include "net/topologies.h"

namespace apple::core {
namespace {

using vnf::NfType;

struct TinyScenario {
  net::Topology topo = net::make_line(3, 64.0);
  std::vector<vnf::PolicyChain> chains{{NfType::kFirewall, NfType::kIds}};
  std::vector<traffic::TrafficClass> classes;
  PlacementInput input;

  explicit TinyScenario(double rate = 500.0) {
    traffic::TrafficClass cls;
    cls.id = 0;
    cls.src = 0;
    cls.dst = 2;
    cls.path = {0, 1, 2};
    cls.chain_id = 0;
    cls.rate_mbps = rate;
    classes.push_back(cls);
    input.topology = &topo;
    input.classes = classes;
    input.chains = chains;
  }
};

TEST(IlpBuilder, VariableLayout) {
  TinyScenario s;
  const IlpBuilder builder(s.input);
  // q vars only for (switch-on-path, type-in-chain): 3 switches x 2 types.
  // d vars: 3 positions x 2 stages.
  EXPECT_EQ(builder.model().num_vars(), 6u + 6u);
  EXPECT_NE(builder.q_var(1, NfType::kFirewall), IlpBuilder::kInvalidVar);
  EXPECT_EQ(builder.q_var(1, NfType::kProxy), IlpBuilder::kInvalidVar);
  EXPECT_NE(builder.d_var(0, 0, 0), IlpBuilder::kInvalidVar);
}

TEST(IlpBuilder, HostlessSwitchGetsNoVariables) {
  TinyScenario s;
  s.topo.node(1).host_cores = 0.0;  // switch 1 loses its APPLE host
  const IlpBuilder builder(s.input);
  EXPECT_EQ(builder.q_var(1, NfType::kFirewall), IlpBuilder::kInvalidVar);
  EXPECT_EQ(builder.d_var(0, 1, 0), IlpBuilder::kInvalidVar);
}

TEST(IlpBuilder, IntegralityFlagControlsQVars) {
  TinyScenario s;
  const IlpBuilder mip(s.input, /*integral_q=*/true);
  const IlpBuilder lp(s.input, /*integral_q=*/false);
  EXPECT_TRUE(mip.model().has_integer_vars());
  EXPECT_FALSE(lp.model().has_integer_vars());
}

TEST(IlpBuilder, LpRelaxationLowerBoundsInstanceCount) {
  TinyScenario s(500.0);
  const IlpBuilder builder(s.input, /*integral_q=*/false);
  const lp::LpSolution sol = lp::SimplexSolver().solve(builder.model());
  ASSERT_TRUE(sol.optimal());
  // 500 Mbps needs 500/900 FW + 500/600 IDS fractional instances.
  EXPECT_NEAR(sol.objective, 500.0 / 900.0 + 500.0 / 600.0, 1e-6);
}

TEST(IlpBuilder, SolutionRoundTripsThroughExtractPlan) {
  TinyScenario s;
  const IlpBuilder builder(s.input, /*integral_q=*/false);
  const lp::LpSolution sol = lp::SimplexSolver().solve(builder.model());
  ASSERT_TRUE(sol.optimal());
  const PlacementPlan plan = builder.extract_plan(s.input, sol.x);
  ASSERT_EQ(plan.distribution.size(), 1u);
  // Completion must hold in the extracted distribution.
  for (std::size_t j = 0; j < 2; ++j) {
    double total = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      total += plan.distribution[0](i, j);
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST(IlpBuilder, InfeasibleWhenNoHostOnPath) {
  TinyScenario s;
  for (net::NodeId v = 0; v < s.topo.num_nodes(); ++v) {
    s.topo.node(v).host_cores = 0.0;
  }
  const IlpBuilder builder(s.input, false);
  const lp::LpSolution sol = lp::SimplexSolver().solve(builder.model());
  // Completion rows have no variables: infeasible.
  EXPECT_EQ(sol.status, lp::SolveStatus::kInfeasible);
}

TEST(IlpBuilder, CapacityRowsForceEnoughInstances) {
  TinyScenario s(2000.0);  // > 2 FW instances worth of traffic
  const IlpBuilder builder(s.input, false);
  const lp::LpSolution sol = lp::SimplexSolver().solve(builder.model());
  ASSERT_TRUE(sol.optimal());
  // Fractional: 2000/900 + 2000/600.
  EXPECT_NEAR(sol.objective, 2000.0 / 900.0 + 2000.0 / 600.0, 1e-6);
}

TEST(IlpBuilder, SharedSwitchMultiplexesClasses) {
  // Two classes crossing at a middle switch share instances there: the LP
  // bound equals the pooled load, not the per-class sum of ceilings.
  net::Topology topo = net::make_star(4, 64.0);  // hub=0, leaves 1..4
  std::vector<vnf::PolicyChain> chains{{NfType::kFirewall}};
  std::vector<traffic::TrafficClass> classes(2);
  classes[0] = {0, 1, 2, {1, 0, 2}, 0, 450.0};
  classes[1] = {1, 3, 4, {3, 0, 4}, 0, 450.0};
  PlacementInput input;
  input.topology = &topo;
  input.classes = classes;
  input.chains = chains;
  const IlpBuilder builder(input, false);
  const lp::LpSolution sol = lp::SimplexSolver().solve(builder.model());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 900.0 / 900.0, 1e-6);  // one pooled FW
}

}  // namespace
}  // namespace apple::core
