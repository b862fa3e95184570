#include <gtest/gtest.h>

#include "baselines/comb.h"
#include "baselines/ingress.h"
#include "baselines/pace.h"
#include "baselines/properties.h"
#include "baselines/steering.h"
#include "core/optimization_engine.h"
#include "net/topologies.h"
#include "traffic/synthesis.h"

namespace apple::baseline {
namespace {

using vnf::NfType;

struct Scenario {
  net::Topology topo;
  net::AllPairsPaths routing;
  std::vector<vnf::PolicyChain> chains;
  std::vector<traffic::TrafficClass> classes;
  core::PlacementInput input;

  explicit Scenario(std::uint64_t seed = 1)
      : topo(net::make_internet2()), routing(topo) {
    const auto span = vnf::default_policy_chains();
    chains.assign(span.begin(), span.end());
    const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
        topo.num_nodes(), {.total_mbps = 10000.0, .seed = seed});
    classes = traffic::build_classes(
        topo, routing, tm, traffic::uniform_chain_assignment(chains.size()));
    input.topology = &topo;
    input.classes = classes;
    input.chains = chains;
  }
};

TEST(Ingress, EnforcesEverythingAtIngress) {
  Scenario s;
  const core::PlacementPlan plan = place_ingress(s.input);
  ASSERT_TRUE(plan.feasible);
  // Every class processed entirely at path position 0.
  for (std::size_t h = 0; h < s.classes.size(); ++h) {
    for (std::size_t j = 0; j < s.chains[s.classes[h].chain_id].size(); ++j) {
      EXPECT_DOUBLE_EQ(plan.distribution[h](0, j), 1.0);
    }
  }
}

TEST(Ingress, UsesMoreCoresThanApple) {
  // Fig. 11's claim: APPLE multiplexes instances across classes; the
  // ingress strawman cannot.
  Scenario s;
  core::EngineOptions opts;
  opts.strategy = core::PlacementStrategy::kGreedy;
  const core::PlacementPlan apple =
      core::OptimizationEngine(opts).place(s.input);
  const core::PlacementPlan ingress = place_ingress(s.input);
  ASSERT_TRUE(apple.feasible);
  EXPECT_GT(ingress.total_cores(), apple.total_cores());
}

TEST(Ingress, ResourceRespectingModeFlagsOverflow) {
  Scenario s;
  // Shrink hosts until some ingress host cannot take its load.
  for (net::NodeId v = 0; v < s.topo.num_nodes(); ++v) {
    s.topo.node(v).host_cores = 8.0;
  }
  const core::PlacementPlan plan = place_ingress(s.input, true);
  EXPECT_FALSE(plan.feasible);
}

TEST(Steering, ReroutesFlowsThroughSites) {
  Scenario s;
  const SteeringPlacement steering = place_steering(s.input, s.routing);
  EXPECT_GT(steering.classes_rerouted, 0u);      // interference!
  EXPECT_GT(steering.mean_path_stretch, 1.0);    // extra path length
  EXPECT_EQ(steering.new_paths.size(), s.classes.size());
  // Instances exist only at the configured number of sites.
  std::size_t sites_used = 0;
  for (net::NodeId v = 0; v < s.topo.num_nodes(); ++v) {
    bool any = false;
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      if (steering.plan.instance_count[v][n] > 0) any = true;
    }
    if (any) ++sites_used;
  }
  EXPECT_LE(sites_used, 2u);
}

TEST(Steering, ValidatesSiteCount) {
  Scenario s;
  EXPECT_THROW(place_steering(s.input, s.routing, {.num_nf_sites = 0}),
               std::invalid_argument);
  EXPECT_THROW(place_steering(s.input, s.routing, {.num_nf_sites = 99}),
               std::invalid_argument);
}

TEST(Comb, ConsolidatesOnPath) {
  Scenario s;
  const CombPlacement comb = place_comb(s.input);
  ASSERT_TRUE(comb.plan.feasible);
  EXPECT_FALSE(comb.isolation);  // threads, not VMs
  // Each class's whole chain sits at exactly one path position.
  for (std::size_t h = 0; h < s.classes.size(); ++h) {
    const core::ClassDistribution& d = comb.plan.distribution[h];
    std::size_t positions_used = 0;
    for (std::size_t i = 0; i < d.positions(); ++i) {
      bool used = false;
      for (std::size_t j = 0; j < d.stages(); ++j) used = used || d(i, j) > 0.0;
      if (used) {
        ++positions_used;
        for (std::size_t j = 0; j < d.stages(); ++j) {
          EXPECT_DOUBLE_EQ(d(i, j), 1.0);
        }
      }
    }
    EXPECT_EQ(positions_used, 1u);
  }
  EXPECT_LT(comb.consolidated_cores(), comb.plan.total_cores());
}

TEST(Pace, IgnoresChainsAndLosesEnforcement) {
  Scenario s;
  const PacePlacement pace = place_pace(s.input);
  // Chain-oblivious placement strands stages off-path.
  EXPECT_GT(pace.off_path_stages, 0u);
  EXPECT_FALSE(pace.plan.feasible);
}

TEST(TableI, PropertyMatrixMatchesPaper) {
  Scenario s;
  const auto rows = evaluate_frameworks(s.input, s.routing);
  ASSERT_EQ(rows.size(), 5u);

  const auto find = [&](const std::string& needle) {
    for (const FrameworkProperties& row : rows) {
      if (row.framework.find(needle) != std::string::npos) return row;
    }
    ADD_FAILURE() << "framework not found: " << needle;
    return FrameworkProperties{};
  };

  // Table I, reproduced mechanically:
  const auto steering = find("SIMPLE");
  EXPECT_TRUE(steering.policy_enforcement);
  EXPECT_FALSE(steering.interference_free);
  EXPECT_TRUE(steering.isolation);

  const auto pace = find("PACE");
  EXPECT_FALSE(pace.policy_enforcement);
  EXPECT_TRUE(pace.interference_free);
  EXPECT_TRUE(pace.isolation);

  const auto comb = find("CoMb");
  EXPECT_TRUE(comb.policy_enforcement);
  EXPECT_TRUE(comb.interference_free);
  EXPECT_FALSE(comb.isolation);

  const auto apple = find("APPLE");
  EXPECT_TRUE(apple.policy_enforcement);
  EXPECT_TRUE(apple.interference_free);
  EXPECT_TRUE(apple.isolation);
}

}  // namespace
}  // namespace apple::baseline
