// Failure-injection tests: an APPLE host dies (the switch keeps
// forwarding) and the controller recomputes a placement that avoids it
// while preserving all three properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "core/apple_controller.h"
#include "core/rule_generator.h"
#include "net/topologies.h"

namespace apple::core {
namespace {

ControllerConfig config() {
  ControllerConfig cfg;
  cfg.engine.strategy = PlacementStrategy::kGreedy;
  cfg.policied_fraction = 0.5;
  return cfg;
}

// (cores in use, host) of `epoch`'s placement, busiest host first; ties
// go to the lower id.
std::vector<std::pair<double, net::NodeId>> hosts_by_load(
    const net::Topology& topo, const Epoch& epoch) {
  std::vector<std::pair<double, net::NodeId>> load;
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    double cores = 0.0;
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      cores += epoch.plan.instance_count[v][n] *
               vnf::spec_of(static_cast<vnf::NfType>(n)).cores_required;
    }
    load.emplace_back(cores, v);
  }
  std::stable_sort(load.begin(), load.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  return load;
}

TEST(FailureRecovery, RepairedEpochAvoidsFailedHost) {
  const net::Topology topo = net::make_internet2();
  const AppleController controller(topo, vnf::default_policy_chains(),
                                   config());
  const traffic::TrafficMatrix tm =
      traffic::make_gravity_matrix(topo.num_nodes(), {.total_mbps = 5000.0});
  const Epoch before = controller.optimize(tm);

  // Fail the busiest host of the original placement.
  const auto load = hosts_by_load(topo, before);
  ASSERT_GT(load[0].first, 0.0);
  const std::array<net::NodeId, 1> victim{load[0].second};

  const Epoch repaired = controller.optimize_excluding_hosts(tm, victim);
  for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
    EXPECT_EQ(repaired.plan.instance_count[victim[0]][n], 0u)
        << "instances still on the failed host";
  }
  // Classes and their paths are unchanged: interference freedom holds
  // through the failure (only the server died, not the switch).
  ASSERT_EQ(repaired.classes.size(), before.classes.size());
  for (std::size_t h = 0; h < before.classes.size(); ++h) {
    EXPECT_EQ(repaired.classes[h].path, before.classes[h].path);
  }
}

TEST(FailureRecovery, RepairedEpochAvoidsEveryFailedHost) {
  const net::Topology topo = net::make_internet2();
  const AppleController controller(topo, vnf::default_policy_chains(),
                                   config());
  const traffic::TrafficMatrix tm =
      traffic::make_gravity_matrix(topo.num_nodes(), {.total_mbps = 5000.0});
  const Epoch before = controller.optimize(tm);

  // Fail the two busiest hosts at once.
  const auto load = hosts_by_load(topo, before);
  ASSERT_GT(load[1].first, 0.0);
  const std::array<net::NodeId, 2> victims{load[0].second, load[1].second};
  const Epoch repaired = controller.optimize_excluding_hosts(tm, victims);

  net::Topology degraded = topo;
  for (const net::NodeId v : victims) {
    degraded.node(v).host_cores = 0.0;
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      EXPECT_EQ(repaired.plan.instance_count[v][n], 0u)
          << "instances still on failed host " << v;
    }
  }
  const PlacementInput input{&degraded, repaired.classes, controller.chains()};
  EXPECT_EQ(check_plan(input, repaired.plan), "");
  ASSERT_EQ(repaired.classes.size(), before.classes.size());
  for (std::size_t h = 0; h < before.classes.size(); ++h) {
    EXPECT_EQ(repaired.classes[h].path, before.classes[h].path);
  }

  // An unknown id anywhere in the list is rejected.
  EXPECT_THROW(controller.optimize_excluding_hosts(
                   tm, std::array{victims[0], net::NodeId{99}}),
               std::invalid_argument);
  EXPECT_THROW(controller.optimize_excluding_hosts(
                   tm, std::array{net::NodeId{99}, victims[0]}),
               std::invalid_argument);
}

TEST(FailureRecovery, RepairedEpochStillEnforcesEveryChain) {
  const net::Topology topo = net::make_internet2();
  const AppleController controller(topo, vnf::default_policy_chains(),
                                   config());
  const traffic::TrafficMatrix tm =
      traffic::make_gravity_matrix(topo.num_nodes(), {.total_mbps = 5000.0});
  const std::array<net::NodeId, 1> victim{topo.find_node("IPLS")};  // a hub
  const Epoch repaired = controller.optimize_excluding_hosts(tm, victim);

  net::Topology degraded = topo;
  degraded.node(victim[0]).host_cores = 0.0;
  PlacementInput input;
  input.topology = &degraded;
  input.classes = repaired.classes;
  input.chains = controller.chains();
  EXPECT_EQ(check_plan(input, repaired.plan), "");

  dataplane::DataPlane dp(degraded);
  RuleGenerator().install(input, repaired.subclasses, repaired.inventory, dp);
  for (const traffic::TrafficClass& cls : repaired.classes) {
    hsa::PacketHeader h;
    h.src_ip = 0x0a000000u + cls.id;
    h.proto = 6;
    const auto walk = dp.walk(cls.id, h);
    ASSERT_TRUE(walk.delivered) << walk.error;
    EXPECT_EQ(dp.traversed_types(walk.packet),
              controller.chains()[cls.chain_id]);
    EXPECT_EQ(walk.packet.switch_trace, cls.path);
  }
}

TEST(FailureRecovery, ImpossibleRecoveryThrows) {
  // A 2-node line where one host dies and the other cannot absorb the load.
  const net::Topology topo = net::make_line(2, 8.0);
  ControllerConfig cfg = config();
  cfg.policied_fraction = 1.0;
  const AppleController controller(topo, vnf::default_policy_chains(), cfg);
  traffic::TrafficMatrix tm(2);
  tm.set(0, 1, 3000.0);  // needs far more than 8 cores of instances
  const std::array<net::NodeId, 1> dead{0};
  const std::array<net::NodeId, 1> unknown{9};
  EXPECT_THROW(controller.optimize_excluding_hosts(tm, dead),
               std::runtime_error);
  EXPECT_THROW(controller.optimize_excluding_hosts(tm, unknown),
               std::invalid_argument);
}

}  // namespace
}  // namespace apple::core
