#include "sim/flow_sim.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace apple::sim {
namespace {

using dataplane::HostVisit;
using dataplane::SubclassPlan;
using vnf::NfType;
using vnf::VnfInstance;

SubclassPlan plan_through(traffic::ClassId cls,
                          const std::vector<vnf::InstanceId>& instances,
                          double weight = 1.0,
                          dataplane::SubclassId sub = 0) {
  SubclassPlan plan;
  plan.class_id = cls;
  plan.subclass_id = sub;
  plan.weight = weight;
  HostVisit visit;
  visit.at_switch = 0;
  for (const vnf::InstanceId id : instances) visit.instances.push_back(id);
  plan.itinerary = {visit};
  return plan;
}

TEST(FlowSimulation, NoLossUnderCapacity) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  sim.set_class_rate(0, 500.0);
  sim.install_class_plans(0, {plan_through(0, {1})});
  const TickStats stats = sim.step();
  EXPECT_DOUBLE_EQ(stats.offered_mbps, 500.0);
  EXPECT_DOUBLE_EQ(stats.delivered_mbps, 500.0);
  EXPECT_DOUBLE_EQ(stats.loss_rate, 0.0);
}

TEST(FlowSimulation, OverloadDropsExcess) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  sim.set_class_rate(0, 1800.0);
  sim.install_class_plans(0, {plan_through(0, {1})});
  const TickStats stats = sim.step();
  EXPECT_NEAR(stats.loss_rate, 0.5, 1e-12);
  EXPECT_NEAR(stats.delivered_mbps, 900.0, 1e-9);
}

TEST(FlowSimulation, BootingInstanceDropsEverything) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kNat, 0, 900.0},
                   /*ready_at=*/1.0);
  sim.set_class_rate(0, 100.0);
  sim.install_class_plans(0, {plan_through(0, {1})});
  // While booting: total loss (Fig. 7's throughput gap).
  EXPECT_DOUBLE_EQ(sim.step().loss_rate, 1.0);
  sim.run_until(1.0);
  EXPECT_DOUBLE_EQ(sim.step().loss_rate, 0.0);  // ready now
}

TEST(FlowSimulation, SharedInstanceAggregatesLoad) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  sim.set_class_rate(0, 600.0);
  sim.set_class_rate(1, 600.0);
  sim.install_class_plans(0, {plan_through(0, {1})});
  sim.install_class_plans(1, {plan_through(1, {1})});
  const TickStats stats = sim.step();
  // 1200 offered into 900 capacity: 25% loss.
  EXPECT_NEAR(stats.loss_rate, 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(sim.instance_offered_mbps(1), 1200.0);
}

TEST(FlowSimulation, ChainLossCompounds) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 450.0});
  sim.add_instance(VnfInstance{2, NfType::kIds, 0, 450.0});
  sim.set_class_rate(0, 900.0);
  sim.install_class_plans(0, {plan_through(0, {1, 2})});
  const TickStats stats = sim.step();
  // Each stage passes 450/900 = 0.5; survival = 0.25.
  EXPECT_NEAR(stats.delivered_mbps, 900.0 * 0.25, 1e-9);
}

TEST(FlowSimulation, SubclassWeightsSplitLoad) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  sim.add_instance(VnfInstance{2, NfType::kFirewall, 1, 900.0});
  sim.set_class_rate(0, 1000.0);
  auto a = plan_through(0, {1}, 0.5, 0);
  auto b = plan_through(0, {2}, 0.5, 1);
  sim.install_class_plans(0, {a, b});
  const TickStats stats = sim.step();
  EXPECT_DOUBLE_EQ(stats.loss_rate, 0.0);
  EXPECT_DOUBLE_EQ(sim.instance_offered_mbps(1), 500.0);
  EXPECT_DOUBLE_EQ(sim.instance_offered_mbps(2), 500.0);
}

TEST(FlowSimulation, PlanValidation) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  EXPECT_THROW(sim.install_class_plans(0, {plan_through(0, {99})}),
               std::invalid_argument);
  EXPECT_THROW(sim.install_class_plans(0, {plan_through(0, {1}, 0.5)}),
               std::invalid_argument);
  auto neg = plan_through(0, {1}, -0.5);
  EXPECT_THROW(sim.install_class_plans(0, {neg}), std::invalid_argument);
  EXPECT_THROW(FlowSimulation(0.0), std::invalid_argument);
}

TEST(FlowSimulation, HistoryAndClockAdvance) {
  FlowSimulation sim(0.5);
  sim.set_class_rate(0, 10.0);
  sim.install_class_plans(0, {plan_through(0, {})});
  sim.run_until(1.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  // The simulation keeps no history: a caller keeps the stats it needs.
  std::vector<TickStats> history;
  history.push_back(sim.step());
  history.push_back(sim.step());
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_DOUBLE_EQ(history[0].time, 1.0);
  EXPECT_DOUBLE_EQ(history[1].time, 1.5);
  // Empty itinerary means nothing to drop.
  EXPECT_DOUBLE_EQ(history.back().loss_rate, 0.0);
  EXPECT_DOUBLE_EQ(history.back().offered_mbps, 10.0);
}

TEST(FlowSimulation, RemoveInstance) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  EXPECT_TRUE(sim.has_instance(1));
  sim.remove_instance(1);
  EXPECT_FALSE(sim.has_instance(1));
}

TEST(FlowSimulation, InstancesAndPlansChangedBetweenTicksTakeEffect) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  sim.add_instance(VnfInstance{2, NfType::kFirewall, 0, 300.0});
  sim.set_class_rate(0, 600.0);
  sim.install_class_plans(0, {plan_through(0, {1})});
  EXPECT_DOUBLE_EQ(sim.step().loss_rate, 0.0);

  // Plans re-installed onto an existing instance: the next tick routes
  // through it (600 into 300: half lost).
  sim.install_class_plans(0, {plan_through(0, {2})});
  TickStats stats = sim.step();
  EXPECT_DOUBLE_EQ(sim.instance_offered_mbps(1), 0.0);
  EXPECT_DOUBLE_EQ(sim.instance_offered_mbps(2), 600.0);
  EXPECT_NEAR(stats.loss_rate, 0.5, 1e-12);

  // An instance added and the plans split onto it.
  sim.add_instance(VnfInstance{3, NfType::kFirewall, 0, 300.0});
  sim.install_class_plans(
      0, {plan_through(0, {2}, 0.5, 0), plan_through(0, {3}, 0.5, 1)});
  stats = sim.step();
  EXPECT_DOUBLE_EQ(sim.instance_offered_mbps(2), 300.0);
  EXPECT_DOUBLE_EQ(sim.instance_offered_mbps(3), 300.0);
  EXPECT_DOUBLE_EQ(stats.loss_rate, 0.0);

  // Re-adding an id replaces the instance the plans reach.
  sim.add_instance(VnfInstance{3, NfType::kFirewall, 0, 150.0});
  stats = sim.step();
  EXPECT_NEAR(stats.delivered_mbps, 300.0 + 150.0, 1e-9);
}

TEST(FlowSimulation, LivenessAndBootTimeApplyWithoutAStructuralChange) {
  FlowSimulation sim(0.5);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  sim.set_class_rate(0, 400.0);
  sim.install_class_plans(0, {plan_through(0, {1})});
  EXPECT_DOUBLE_EQ(sim.step().delivered_mbps, 400.0);

  sim.set_instance_alive(1, false);
  TickStats stats = sim.step();
  EXPECT_DOUBLE_EQ(stats.delivered_mbps, 0.0);
  EXPECT_DOUBLE_EQ(stats.blackholed_mbps, 400.0);

  sim.set_instance_alive(1, true);
  sim.set_ready_at(1, sim.now() + 0.5);  // rebooting for one more tick
  stats = sim.step();
  EXPECT_DOUBLE_EQ(stats.delivered_mbps, 0.0);
  EXPECT_DOUBLE_EQ(stats.blackholed_mbps, 0.0);  // booting is not a fault
  EXPECT_DOUBLE_EQ(sim.step().delivered_mbps, 400.0);

  sim.set_class_rate(0, 100.0);
  EXPECT_DOUBLE_EQ(sim.step().delivered_mbps, 100.0);
}

TEST(FlowSimulation, RemovedInstanceStillInAPlanFailsTheNextTick) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  sim.add_instance(VnfInstance{2, NfType::kIds, 0, 900.0});
  sim.set_class_rate(0, 500.0);
  sim.install_class_plans(0, {plan_through(0, {1, 2})});
  EXPECT_DOUBLE_EQ(sim.step().delivered_mbps, 500.0);

  sim.remove_instance(2);
  EXPECT_THROW(sim.step(), std::out_of_range);
  // Still failing, not reading a stale instance, on every later tick.
  EXPECT_THROW(sim.step(), std::out_of_range);

  // Repaired by re-installing the plans around the removed instance.
  sim.install_class_plans(0, {plan_through(0, {1})});
  EXPECT_DOUBLE_EQ(sim.step().delivered_mbps, 500.0);
}

TEST(FlowSimulation, IdleOrSeveredClassThroughARemovedInstanceIsHarmless) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  sim.add_instance(VnfInstance{2, NfType::kIds, 0, 900.0});
  sim.set_class_rate(0, 0.0);
  sim.set_class_rate(1, 300.0);
  sim.install_class_plans(0, {plan_through(0, {2})});
  sim.install_class_plans(1, {plan_through(1, {2})});
  sim.set_class_severed(1, true);
  sim.remove_instance(2);

  // Neither class sends traffic through the missing instance.
  TickStats stats;
  EXPECT_NO_THROW(stats = sim.step());
  EXPECT_DOUBLE_EQ(stats.offered_mbps, 300.0);
  EXPECT_DOUBLE_EQ(stats.blackholed_mbps, 300.0);

  sim.set_class_severed(1, false);  // the link heals: now it routes there
  EXPECT_THROW(sim.step(), std::out_of_range);
}

TEST(FlowSimulation, ZeroRateClassCostsNothing) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  sim.set_class_rate(0, 0.0);
  sim.install_class_plans(0, {plan_through(0, {1})});
  const TickStats stats = sim.step();
  EXPECT_DOUBLE_EQ(stats.offered_mbps, 0.0);
  EXPECT_DOUBLE_EQ(stats.loss_rate, 0.0);
  EXPECT_DOUBLE_EQ(sim.instance_offered_mbps(1), 0.0);
}

TEST(FlowSimulation, DeadInstanceBlackholesItsSubclasses) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  sim.add_instance(VnfInstance{2, NfType::kFirewall, 0, 900.0});
  sim.set_class_rate(0, 400.0);
  sim.install_class_plans(
      0, {plan_through(0, {1}, 0.5, 0), plan_through(0, {2}, 0.5, 1)});

  sim.set_instance_alive(1, false);
  EXPECT_FALSE(sim.instance_alive(1));
  EXPECT_TRUE(sim.has_instance(1));  // stays installed: plans still dangle
  EXPECT_DOUBLE_EQ(sim.instance_capacity_mbps(1), 0.0);

  const TickStats stats = sim.step();
  // Only the sub-class through the dead instance is lost, and that loss is
  // attributed to the fault, not to congestion.
  EXPECT_DOUBLE_EQ(stats.offered_mbps, 400.0);
  EXPECT_NEAR(stats.delivered_mbps, 200.0, 1e-9);
  EXPECT_NEAR(stats.blackholed_mbps, 200.0, 1e-9);
  EXPECT_NEAR(sim.class_blackholed_mbps(0), 200.0, 1e-9);

  // Repair: the instance serves again immediately.
  sim.set_instance_alive(1, true);
  EXPECT_DOUBLE_EQ(sim.instance_capacity_mbps(1), 900.0);
  const TickStats after = sim.step();
  EXPECT_DOUBLE_EQ(after.blackholed_mbps, 0.0);
  EXPECT_NEAR(after.delivered_mbps, 400.0, 1e-9);
}

TEST(FlowSimulation, SeveredClassDeliversNothingButOthersAreUntouched) {
  FlowSimulation sim(0.01);
  sim.add_instance(VnfInstance{1, NfType::kFirewall, 0, 900.0});
  sim.set_class_rate(0, 300.0);
  sim.set_class_rate(1, 200.0);
  sim.install_class_plans(0, {plan_through(0, {1})});
  sim.install_class_plans(1, {plan_through(1, {1})});

  sim.set_class_severed(0, true);
  EXPECT_TRUE(sim.class_severed(0));
  EXPECT_FALSE(sim.class_severed(1));

  const TickStats stats = sim.step();
  EXPECT_DOUBLE_EQ(stats.offered_mbps, 500.0);  // severed demand still offers
  EXPECT_NEAR(stats.delivered_mbps, 200.0, 1e-9);
  EXPECT_NEAR(stats.blackholed_mbps, 300.0, 1e-9);
  EXPECT_NEAR(sim.class_blackholed_mbps(0), 300.0, 1e-9);
  EXPECT_DOUBLE_EQ(sim.class_blackholed_mbps(1), 0.0);
  // The severed class's traffic never reaches the instance.
  EXPECT_DOUBLE_EQ(sim.instance_offered_mbps(1), 200.0);

  sim.set_class_severed(0, false);
  const TickStats after = sim.step();
  EXPECT_DOUBLE_EQ(after.blackholed_mbps, 0.0);
  EXPECT_NEAR(after.delivered_mbps, 500.0, 1e-9);
}

}  // namespace
}  // namespace apple::sim
