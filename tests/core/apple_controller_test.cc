#include "core/apple_controller.h"

#include <gtest/gtest.h>

#include "net/topologies.h"

namespace apple::core {
namespace {

ControllerConfig small_config() {
  ControllerConfig cfg;
  cfg.engine.strategy = PlacementStrategy::kGreedy;
  cfg.snapshot_duration = 0.5;
  cfg.tick = 0.05;
  cfg.poll_interval = 0.1;
  return cfg;
}

TEST(AppleController, OptimizeProducesConsistentEpoch) {
  const net::Topology topo = net::make_internet2();
  const AppleController controller(topo, vnf::default_policy_chains(),
                                   small_config());
  const traffic::TrafficMatrix tm =
      traffic::make_gravity_matrix(topo.num_nodes(), {.total_mbps = 10000.0});
  const Epoch epoch = controller.optimize(tm);

  EXPECT_EQ(epoch.classes.size(), 132u);  // 12*11 OD pairs
  EXPECT_TRUE(epoch.plan.feasible);
  EXPECT_GT(epoch.plan.total_instances(), 0u);
  EXPECT_EQ(epoch.subclasses.size(), epoch.classes.size());
  EXPECT_GT(epoch.rules.tcam_with_tagging, 0u);

  PlacementInput input;
  input.topology = &topo;
  input.classes = epoch.classes;
  input.chains = controller.chains();
  EXPECT_EQ(check_plan(input, epoch.plan), "");
}

TEST(AppleController, RequiresChains) {
  const net::Topology topo = net::make_line(3);
  EXPECT_THROW(AppleController(topo, {}, small_config()),
               std::invalid_argument);
}

TEST(AppleController, ReplayOnSteadyTrafficIsLossless) {
  const net::Topology topo = net::make_internet2();
  const AppleController controller(topo, vnf::default_policy_chains(),
                                   small_config());
  const traffic::TrafficMatrix tm =
      traffic::make_gravity_matrix(topo.num_nodes(), {.total_mbps = 8000.0});
  const Epoch epoch = controller.optimize(tm);
  // Replaying the exact optimization input: capacity matches demand.
  const std::vector<traffic::TrafficMatrix> series(4, tm);
  const ReplayReport report = controller.replay(epoch, series, true);
  ASSERT_EQ(report.snapshot_loss.size(), 4u);
  EXPECT_NEAR(report.mean_loss, 0.0, 1e-9);
  EXPECT_EQ(report.failover.overload_events, 0u);
}

TEST(AppleController, FastFailoverReducesBurstLoss) {
  const net::Topology topo = net::make_internet2();
  ControllerConfig cfg = small_config();
  cfg.snapshot_duration = 1.0;
  const AppleController controller(topo, vnf::default_policy_chains(), cfg);
  const traffic::TrafficMatrix base =
      traffic::make_gravity_matrix(topo.num_nodes(), {.total_mbps = 10000.0});
  const Epoch epoch = controller.optimize(base);

  // Burst series: several snapshots with one OD pair amplified 8x.
  std::vector<traffic::TrafficMatrix> series(6, base);
  for (std::size_t t = 1; t < 5; ++t) {
    series[t].set(0, 5, base.at(0, 5) * 8.0);
    series[t].set(3, 7, base.at(3, 7) * 8.0);
  }
  const ReplayReport without = controller.replay(epoch, series, false);
  const ReplayReport with = controller.replay(epoch, series, true);
  EXPECT_GT(without.mean_loss, 0.0);  // burst overloads something
  EXPECT_LT(with.mean_loss, without.mean_loss);
  EXPECT_GT(with.failover.overload_events, 0u);
}

TEST(AppleController, ReplayEmptySeries) {
  const net::Topology topo = net::make_line(3);
  const AppleController controller(topo, vnf::default_policy_chains(),
                                   small_config());
  traffic::TrafficMatrix tm(3);
  tm.set(0, 2, 100.0);
  const Epoch epoch = controller.optimize(tm);
  const ReplayReport report = controller.replay(epoch, {}, true);
  EXPECT_TRUE(report.snapshot_loss.empty());
  EXPECT_DOUBLE_EQ(report.mean_loss, 0.0);
}

TEST(AppleController, ReplayAccountsIncrementalChurn) {
  const net::Topology topo = net::make_internet2();
  ControllerConfig cfg = small_config();
  cfg.reoptimize_every = 2;
  const AppleController controller(topo, vnf::default_policy_chains(), cfg);
  const traffic::TrafficMatrix base =
      traffic::make_gravity_matrix(topo.num_nodes(), {.total_mbps = 8000.0});
  const Epoch epoch = controller.optimize(base);

  // Demand grows 40% per segment: each re-optimization must launch extra
  // instances but may keep everything already placed.
  std::vector<traffic::TrafficMatrix> series(6, base);
  for (std::size_t t = 0; t < series.size(); ++t) {
    const double scale = 1.0 + 0.4 * static_cast<double>(t / 2);
    for (net::NodeId i = 0; i < topo.num_nodes(); ++i) {
      for (net::NodeId j = 0; j < topo.num_nodes(); ++j) {
        series[t].set(i, j, base.at(i, j) * scale);
      }
    }
  }
  const ReplayReport report = controller.replay(epoch, series, false);
  EXPECT_EQ(report.epochs, 3u);
  EXPECT_EQ(report.churn.reoptimizations, 2u);
  EXPECT_EQ(report.churn.full_recomputes, 0u);
  EXPECT_GT(report.churn.instances_launched, 0u);
  EXPECT_EQ(report.churn.instances_retired, 0u);  // demand only grows
  EXPECT_GT(report.churn.rules_installed, 0u);
  EXPECT_GT(report.churn.control_latency_max_s, 0.0);
  EXPECT_GE(report.churn.control_latency_sum_s,
            report.churn.control_latency_max_s);
}

TEST(AppleController, ChainAssignmentIsDeterministic) {
  const net::Topology topo = net::make_line(4);
  const AppleController a(topo, vnf::default_policy_chains(), small_config());
  const AppleController b(topo, vnf::default_policy_chains(), small_config());
  traffic::TrafficMatrix tm(4);
  tm.set(0, 3, 100.0);
  tm.set(1, 3, 50.0);
  const auto ca = a.build_class_store(tm).materialize_view();
  const auto cb = b.build_class_store(tm).materialize_view();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].chain_id, cb[i].chain_id);
    EXPECT_EQ(ca[i].path, cb[i].path);
  }
}

}  // namespace
}  // namespace apple::core
