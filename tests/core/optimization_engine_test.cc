#include "core/optimization_engine.h"

#include <gtest/gtest.h>

#include <random>

#include "core/epoch_pipeline.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "traffic/synthesis.h"

namespace apple::core {
namespace {

using vnf::NfType;

PlacementInput make_input(const net::Topology& topo,
                          const std::vector<traffic::TrafficClass>& classes,
                          const std::vector<vnf::PolicyChain>& chains) {
  PlacementInput input;
  input.topology = &topo;
  input.classes = classes;
  input.chains = chains;
  return input;
}

OptimizationEngine engine_for(PlacementStrategy strategy) {
  EngineOptions options;
  options.strategy = strategy;
  return OptimizationEngine(options);
}

class AllStrategies : public ::testing::TestWithParam<PlacementStrategy> {};

TEST_P(AllStrategies, SolvesTinyChainFeasibly) {
  const net::Topology topo = net::make_line(3, 64.0);
  const std::vector<vnf::PolicyChain> chains{
      {NfType::kFirewall, NfType::kIds}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 500.0};
  const PlacementInput input = make_input(topo, classes, chains);

  const PlacementPlan plan = engine_for(GetParam()).place(input);
  ASSERT_TRUE(plan.feasible) << plan.infeasibility_reason;
  EXPECT_EQ(check_plan(input, plan), "");
  // 500 Mbps through FW + IDS: exactly one of each suffices.
  EXPECT_EQ(plan.total_instances(), 2u);
  EXPECT_GE(plan.solve_seconds, 0.0);
}

TEST_P(AllStrategies, MultiplexesSharedSwitch) {
  // Star: two crossing classes, each 450 Mbps, chain = FW only. A single
  // pooled firewall at the hub is optimal.
  const net::Topology topo = net::make_star(4, 64.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall}};
  std::vector<traffic::TrafficClass> classes(2);
  classes[0] = {0, 1, 2, {1, 0, 2}, 0, 450.0};
  classes[1] = {1, 3, 4, {3, 0, 4}, 0, 450.0};
  const PlacementInput input = make_input(topo, classes, chains);

  const PlacementPlan plan = engine_for(GetParam()).place(input);
  ASSERT_TRUE(plan.feasible) << plan.infeasibility_reason;
  EXPECT_EQ(check_plan(input, plan), "");
  if (GetParam() == PlacementStrategy::kLpRound) {
    // The LP relaxation is degenerate here (hub pooling and leaf splitting
    // tie at objective 1.0), so LP-guided rounding may land on either.
    EXPECT_LE(plan.total_instances(), 2u);
  } else {
    EXPECT_EQ(plan.total_instances(), 1u);
    EXPECT_EQ(plan.instances_of(0, NfType::kFirewall), 1u);
  }
}

TEST_P(AllStrategies, HandlesZeroRateClasses) {
  const net::Topology topo = net::make_line(3, 64.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kNat}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 0.0};
  const PlacementInput input = make_input(topo, classes, chains);
  const PlacementPlan plan = engine_for(GetParam()).place(input);
  ASSERT_TRUE(plan.feasible) << plan.infeasibility_reason;
  EXPECT_EQ(check_plan(input, plan), "");
  EXPECT_EQ(plan.total_instances(), 0u);  // zero traffic needs no instance
}

INSTANTIATE_TEST_SUITE_P(Strategies, AllStrategies,
                         ::testing::Values(PlacementStrategy::kExact,
                                           PlacementStrategy::kLpRound,
                                           PlacementStrategy::kGreedy),
                         [](const auto& param_info) {
                           std::string name = to_string(param_info.param);
                           std::erase(name, '-');  // gtest-safe identifier
                           return name;
                         });

TEST(OptimizationEngine, GreedyDetectsInfeasibility) {
  // Hosts too small for even one IDS (8 cores needed).
  const net::Topology topo = net::make_line(3, 4.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kIds}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 100.0};
  const PlacementInput input = make_input(topo, classes, chains);
  const PlacementPlan plan =
      engine_for(PlacementStrategy::kGreedy).place(input);
  EXPECT_FALSE(plan.feasible);
  EXPECT_FALSE(plan.infeasibility_reason.empty());
}

TEST(OptimizationEngine, ExactDetectsInfeasibility) {
  const net::Topology topo = net::make_line(3, 4.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kIds}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 100.0};
  const PlacementInput input = make_input(topo, classes, chains);
  const PlacementPlan plan =
      engine_for(PlacementStrategy::kExact).place(input);
  EXPECT_FALSE(plan.feasible);
}

TEST(OptimizationEngine, GreedySplitsJumboClasses) {
  // A class beyond any single instance's capacity (Sec. IV-B "jumbo
  // classes") must be split across instances.
  const net::Topology topo = net::make_line(4, 64.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kIds}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 3, {0, 1, 2, 3}, 0, 1500.0};  // 600 Mbps per IDS
  const PlacementInput input = make_input(topo, classes, chains);
  const PlacementPlan plan =
      engine_for(PlacementStrategy::kGreedy).place(input);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(check_plan(input, plan), "");
  EXPECT_EQ(plan.total_instances(), 3u);  // ceil(1500/600)
}

TEST(OptimizationEngine, ExactMatchesLowerBound) {
  const net::Topology topo = net::make_line(4, 64.0);
  const std::vector<vnf::PolicyChain> chains{
      {NfType::kFirewall, NfType::kNat}};
  std::vector<traffic::TrafficClass> classes(2);
  classes[0] = {0, 0, 3, {0, 1, 2, 3}, 0, 400.0};
  classes[1] = {1, 1, 3, {1, 2, 3}, 0, 400.0};
  const PlacementInput input = make_input(topo, classes, chains);
  const PlacementPlan plan =
      engine_for(PlacementStrategy::kExact).place(input);
  ASSERT_TRUE(plan.feasible);
  EXPECT_DOUBLE_EQ(plan.lower_bound,
                   static_cast<double>(plan.total_instances()));
  // Pooled 800 Mbps fits one FW + one NAT at a shared downstream switch.
  EXPECT_EQ(plan.total_instances(), 2u);
}

// Property sweep: on random small scenarios, every strategy produces a
// plan satisfying all constraints, and greedy/LP-round stay within a small
// factor of the exact optimum.
class EngineRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(EngineRandomSweep, StrategiesAgreeWithinFactor) {
  std::mt19937_64 rng(GetParam());
  const net::Topology topo = net::make_grid(2, 3, 64.0);
  const net::AllPairsPaths routing(topo);
  std::vector<vnf::PolicyChain> chains{
      {NfType::kFirewall},
      {NfType::kFirewall, NfType::kNat},
      {NfType::kNat, NfType::kIds},
  };
  std::uniform_int_distribution<std::size_t> node(0, topo.num_nodes() - 1);
  std::uniform_int_distribution<std::size_t> chain(0, chains.size() - 1);
  std::uniform_real_distribution<double> rate(50.0, 800.0);
  std::vector<traffic::TrafficClass> classes;
  for (std::uint32_t k = 0; k < 5; ++k) {
    net::NodeId s = static_cast<net::NodeId>(node(rng));
    net::NodeId d = static_cast<net::NodeId>(node(rng));
    if (s == d) d = static_cast<net::NodeId>((d + 1) % topo.num_nodes());
    traffic::TrafficClass cls;
    cls.id = k;
    cls.src = s;
    cls.dst = d;
    cls.path = *routing.path(s, d);
    cls.chain_id = static_cast<traffic::ChainId>(chain(rng));
    cls.rate_mbps = rate(rng);
    classes.push_back(cls);
  }
  const PlacementInput input = make_input(topo, classes, chains);

  const PlacementPlan exact =
      engine_for(PlacementStrategy::kExact).place(input);
  const PlacementPlan lp_round =
      engine_for(PlacementStrategy::kLpRound).place(input);
  const PlacementPlan greedy =
      engine_for(PlacementStrategy::kGreedy).place(input);

  ASSERT_TRUE(exact.feasible) << exact.infeasibility_reason;
  ASSERT_TRUE(lp_round.feasible) << lp_round.infeasibility_reason;
  ASSERT_TRUE(greedy.feasible) << greedy.infeasibility_reason;
  EXPECT_EQ(check_plan(input, exact), "");
  EXPECT_EQ(check_plan(input, lp_round), "");
  EXPECT_EQ(check_plan(input, greedy), "");

  EXPECT_GE(greedy.total_instances(), exact.total_instances());
  EXPECT_GE(lp_round.total_instances(), exact.total_instances());
  // Approximation quality: within 2x + 2 of optimum on these sizes.
  EXPECT_LE(greedy.total_instances(), 2 * exact.total_instances() + 2);
  EXPECT_LE(lp_round.total_instances(), 2 * exact.total_instances() + 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomSweep, ::testing::Range(1, 9));

TEST(OptimizationEngine, ReplacePinsUnchangedDistributions) {
  const net::Topology topo = net::make_line(4, 64.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall},
                                             {NfType::kNat}};
  std::vector<traffic::TrafficClass> prev_classes(2);
  prev_classes[0] = {0, 0, 3, {0, 1, 2, 3}, 0, 400.0};
  prev_classes[1] = {1, 1, 3, {1, 2, 3}, 1, 300.0};
  const PlacementInput prev_input = make_input(topo, prev_classes, chains);
  const OptimizationEngine engine = engine_for(PlacementStrategy::kGreedy);
  const PlacementPlan prev = engine.place(prev_input);
  ASSERT_TRUE(prev.feasible);

  std::vector<traffic::TrafficClass> next_classes = prev_classes;
  next_classes[1].rate_mbps = 2000.0;  // dirty; class 0 stays pinned
  const PlacementInput next_input = make_input(topo, next_classes, chains);
  const ClassDelta delta =
      diff_classes(traffic::build_class_store(prev_classes),
                   traffic::build_class_store(next_classes));
  ASSERT_EQ(delta.unchanged, (std::vector<std::size_t>{0}));
  ASSERT_EQ(delta.rate_changed, (std::vector<std::size_t>{1}));

  const PlacementPlan next = engine.replace(next_input, prev, delta);
  ASSERT_TRUE(next.feasible) << next.infeasibility_reason;
  EXPECT_EQ(check_plan(next_input, next), "");
  EXPECT_EQ(next.strategy, "greedy-delta");
  // The pinned class's spatial distribution is carried over verbatim.
  EXPECT_EQ(next.distribution[0], prev.distribution[0]);
  // The grown class got the extra capacity it needs.
  EXPECT_GE(next.total_instances(), prev.total_instances());
}

TEST(OptimizationEngine, ReplaceReportsResidualInfeasibility) {
  // One host, exactly one FW's worth of cores: the grown demand cannot be
  // packed incrementally, and the caller must fall back to place().
  net::Topology topo = net::make_line(3, 4.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall}};
  std::vector<traffic::TrafficClass> prev_classes(1);
  prev_classes[0] = {0, 0, 2, {0, 1, 2}, 0, 500.0};
  const PlacementInput prev_input = make_input(topo, prev_classes, chains);
  const OptimizationEngine engine = engine_for(PlacementStrategy::kGreedy);
  const PlacementPlan prev = engine.place(prev_input);
  ASSERT_TRUE(prev.feasible);

  std::vector<traffic::TrafficClass> next_classes = prev_classes;
  next_classes[0].rate_mbps = 5000.0;
  const PlacementInput next_input = make_input(topo, next_classes, chains);
  const ClassDelta delta =
      diff_classes(traffic::build_class_store(prev_classes),
                   traffic::build_class_store(next_classes));
  const PlacementPlan next = engine.replace(next_input, prev, delta);
  EXPECT_FALSE(next.feasible);
  EXPECT_FALSE(next.infeasibility_reason.empty());
}

TEST(OptimizationEngine, StrategyNames) {
  EXPECT_STREQ(to_string(PlacementStrategy::kExact), "exact");
  EXPECT_STREQ(to_string(PlacementStrategy::kLpRound), "lp-round");
  EXPECT_STREQ(to_string(PlacementStrategy::kGreedy), "greedy");
}

}  // namespace
}  // namespace apple::core
