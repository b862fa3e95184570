#include "core/dynamic_handler.h"

#include <gtest/gtest.h>

#include <limits>

#include "net/topologies.h"

namespace apple::core {
namespace {

using dataplane::HostVisit;
using dataplane::SubclassPlan;
using vnf::NfType;

SubclassPlan make_plan(traffic::ClassId cls, dataplane::SubclassId sub,
                       double weight, net::NodeId at,
                       const std::vector<vnf::InstanceId>& instances) {
  SubclassPlan plan;
  plan.class_id = cls;
  plan.subclass_id = sub;
  plan.weight = weight;
  HostVisit visit;
  visit.at_switch = at;
  for (const vnf::InstanceId id : instances) visit.instances.push_back(id);
  plan.itinerary = {visit};
  return plan;
}

class DynamicHandlerTest : public ::testing::Test {
 protected:
  DynamicHandlerTest()
      : topo_(net::make_line(3, 64.0)), orch_(topo_), sim_(0.01) {}

  // Launches a firewall at switch `v`, registers it with the simulation.
  vnf::InstanceId launch_fw(net::NodeId v) {
    const auto result = orch_.launch(NfType::kFirewall, v, /*now=*/-10.0);
    EXPECT_TRUE(result.ok());
    sim_.add_instance(result.instance, /*ready_at=*/0.0);
    return result.instance.id;
  }

  DynamicHandlerConfig config_with(double poll = 0.1) {
    DynamicHandlerConfig cfg;
    cfg.detector.poll_interval = poll;
    cfg.detector.overload_threshold = 0.9;
    cfg.detector.clear_threshold = 0.45;
    return cfg;
  }

  net::Topology topo_;
  orch::ResourceOrchestrator orch_;
  sim::FlowSimulation sim_;
};

TEST_F(DynamicHandlerTest, SpreadsLoadToSiblingSubclass) {
  const auto fw1 = launch_fw(1);
  const auto fw2 = launch_fw(2);
  sim_.set_class_rate(0, 1000.0);
  // Skewed split: fw1 carries 95% (950 Mbps > 900 capacity).
  sim_.install_class_plans(0, {make_plan(0, 0, 0.95, 1, {fw1}),
                               make_plan(0, 1, 0.05, 2, {fw2})});
  DynamicHandler handler(sim_, orch_, config_with());
  handler.register_class(0, {NfType::kFirewall}, {0, 1, 2});

  sim_.step();
  handler.poll(sim_.now());
  EXPECT_EQ(handler.metrics().overload_events, 1u);
  EXPECT_GE(handler.metrics().rebalances, 1u);

  // After rebalance the hot sub-class holds half its weight.
  const auto& plans = sim_.plans_of(0);
  double hot_weight = 0.0, cold_weight = 0.0;
  for (const auto& plan : plans) {
    if (plan.subclass_id == 0) hot_weight += plan.weight;
    if (plan.subclass_id == 1) cold_weight += plan.weight;
  }
  EXPECT_NEAR(hot_weight, 0.475, 1e-9);
  EXPECT_GT(cold_weight, 0.05);
  sim_.step();
  EXPECT_LT(sim_.instance_offered_mbps(fw1), 900.0);
}

TEST_F(DynamicHandlerTest, LaunchesClickOsInstanceWhenSiblingsFull) {
  const auto fw1 = launch_fw(1);
  sim_.set_class_rate(0, 1200.0);  // single sub-class, 1200 > 900
  sim_.install_class_plans(0, {make_plan(0, 0, 1.0, 1, {fw1})});
  DynamicHandler handler(sim_, orch_, config_with());
  handler.register_class(0, {NfType::kFirewall}, {0, 1, 2});

  sim_.step();
  handler.poll(sim_.now());
  EXPECT_EQ(handler.metrics().instances_launched, 1u);
  EXPECT_DOUBLE_EQ(handler.metrics().extra_cores_in_use, 4.0);  // one FW

  // The traffic shift waits for the ClickOS boot (~30 ms): run past it.
  sim_.run_until(0.10);
  handler.poll(sim_.now());
  sim_.step();
  // Load now split below capacity on both instances.
  EXPECT_LT(sim_.instance_offered_mbps(fw1), 900.0 + 1e-6);
  const auto ids = sim_.instance_ids();
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_TRUE(handler.has_active_failover());
}

TEST_F(DynamicHandlerTest, RollsBackAfterOverloadClears) {
  const auto fw1 = launch_fw(1);
  sim_.set_class_rate(0, 1200.0);
  sim_.install_class_plans(0, {make_plan(0, 0, 1.0, 1, {fw1})});
  DynamicHandler handler(sim_, orch_, config_with());
  handler.register_class(0, {NfType::kFirewall}, {0, 1, 2});

  sim_.step();
  handler.poll(sim_.now());  // overload -> new instance
  ASSERT_EQ(handler.metrics().instances_launched, 1u);
  sim_.run_until(0.1);
  handler.poll(sim_.now());

  // Burst subsides far below the clear threshold.
  sim_.set_class_rate(0, 100.0);
  sim_.step();
  handler.poll(sim_.now());
  EXPECT_EQ(handler.metrics().clear_events, 1u);
  EXPECT_EQ(handler.metrics().instances_cancelled, 1u);
  EXPECT_FALSE(handler.has_active_failover());
  EXPECT_DOUBLE_EQ(handler.metrics().extra_cores_in_use, 0.0);
  // Original single-plan distribution restored.
  EXPECT_EQ(sim_.plans_of(0).size(), 1u);
  EXPECT_NEAR(sim_.plans_of(0)[0].weight, 1.0, 1e-12);
  EXPECT_EQ(sim_.instance_ids().size(), 1u);
}

TEST_F(DynamicHandlerTest, NoActionBelowThreshold) {
  const auto fw1 = launch_fw(1);
  sim_.set_class_rate(0, 500.0);
  sim_.install_class_plans(0, {make_plan(0, 0, 1.0, 1, {fw1})});
  DynamicHandler handler(sim_, orch_, config_with());
  handler.register_class(0, {NfType::kFirewall}, {0, 1, 2});
  for (int i = 0; i < 10; ++i) {
    sim_.step();
    handler.poll(sim_.now());
  }
  EXPECT_EQ(handler.metrics().overload_events, 0u);
  EXPECT_EQ(handler.metrics().rebalances, 0u);
}

TEST_F(DynamicHandlerTest, RollbackRestoresDistributionVerbatim) {
  // Two sub-classes, both through the hot instance, with deliberately
  // asymmetric weights: rollback must restore every field of the saved
  // plans, not merely "one plan of weight 1".
  const auto fw1 = launch_fw(1);
  sim_.set_class_rate(0, 1200.0);
  const std::vector<SubclassPlan> original = {
      make_plan(0, 0, 0.6, 1, {fw1}), make_plan(0, 1, 0.4, 1, {fw1})};
  sim_.install_class_plans(0, original);
  DynamicHandler handler(sim_, orch_, config_with());
  handler.register_class(0, {NfType::kFirewall}, {0, 1, 2});

  sim_.step();
  handler.poll(sim_.now());  // overload -> halve + launch replacement
  ASSERT_GE(handler.metrics().instances_launched, 1u);
  sim_.run_until(0.1);
  handler.poll(sim_.now());  // booted replacement's shift applies
  ASSERT_NE(sim_.plans_of(0).size(), original.size());

  sim_.set_class_rate(0, 100.0);
  sim_.step();
  handler.poll(sim_.now());  // clear -> rollback
  ASSERT_FALSE(handler.has_active_failover());

  const auto& restored = sim_.plans_of(0);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].class_id, original[i].class_id);
    EXPECT_EQ(restored[i].subclass_id, original[i].subclass_id);
    EXPECT_DOUBLE_EQ(restored[i].weight, original[i].weight);
    ASSERT_EQ(restored[i].itinerary.size(), original[i].itinerary.size());
    for (std::size_t v = 0; v < original[i].itinerary.size(); ++v) {
      EXPECT_EQ(restored[i].itinerary[v].at_switch,
                original[i].itinerary[v].at_switch);
      EXPECT_EQ(restored[i].itinerary[v].instances,
                original[i].itinerary[v].instances);
    }
  }
}

TEST_F(DynamicHandlerTest, PooledReplacementIsSharedAndCancelledExactlyOnce) {
  // Two classes, both through the same hot instance: one overload round
  // launches ONE replacement, pooled by both classes (two references).
  // When both roll back in the same clear, the pooled instance must be
  // cancelled exactly once — a broken refcount would double-cancel (two
  // cancel metrics) or leak it (fleet never shrinks).
  const auto fw1 = launch_fw(1);
  sim_.set_class_rate(0, 600.0);
  sim_.set_class_rate(1, 700.0);
  sim_.install_class_plans(0, {make_plan(0, 0, 1.0, 1, {fw1})});
  sim_.install_class_plans(1, {make_plan(1, 0, 1.0, 1, {fw1})});
  DynamicHandler handler(sim_, orch_, config_with());
  handler.register_class(0, {NfType::kFirewall}, {0, 1, 2});
  handler.register_class(1, {NfType::kFirewall}, {0, 1, 2});

  sim_.step();  // fw1 offered 1300 > 810: one overload event
  handler.poll(sim_.now());
  EXPECT_EQ(handler.metrics().overload_events, 1u);
  // Pooling: both classes' leftover fits one replacement (300 + 350 Mbps
  // against a 810 Mbps fill target), so exactly one launch happens.
  EXPECT_EQ(handler.metrics().instances_launched, 1u);
  sim_.run_until(0.1);
  handler.poll(sim_.now());
  EXPECT_EQ(sim_.instance_ids().size(), 2u);  // fw1 + shared replacement

  sim_.set_class_rate(0, 50.0);
  sim_.set_class_rate(1, 50.0);
  sim_.step();
  handler.poll(sim_.now());
  EXPECT_EQ(handler.metrics().clear_events, 1u);
  EXPECT_FALSE(handler.has_active_failover());
  // Exactly one cancellation for the one shared launch.
  EXPECT_EQ(handler.metrics().instances_cancelled, 1u);
  EXPECT_DOUBLE_EQ(handler.metrics().extra_cores_in_use, 0.0);
  EXPECT_EQ(sim_.instance_ids().size(), 1u);
  ASSERT_EQ(sim_.plans_of(0).size(), 1u);
  EXPECT_DOUBLE_EQ(sim_.plans_of(0)[0].weight, 1.0);
  ASSERT_EQ(sim_.plans_of(1).size(), 1u);
  EXPECT_DOUBLE_EQ(sim_.plans_of(1)[0].weight, 1.0);
}

TEST_F(DynamicHandlerTest, RollbackIsPerClassNotGlobal) {
  // Independent failovers: class 0 overloads fw1, class 1 overloads fw2.
  // Clearing class 0's overload must roll back and cancel ONLY class 0's
  // replacement; class 1's failover stays active until its own clear.
  const auto fw1 = launch_fw(1);
  const auto fw2 = launch_fw(2);
  sim_.set_class_rate(0, 1200.0);
  sim_.set_class_rate(1, 1200.0);
  sim_.install_class_plans(0, {make_plan(0, 0, 1.0, 1, {fw1})});
  sim_.install_class_plans(1, {make_plan(1, 0, 1.0, 2, {fw2})});
  DynamicHandler handler(sim_, orch_, config_with());
  handler.register_class(0, {NfType::kFirewall}, {0, 1, 2});
  handler.register_class(1, {NfType::kFirewall}, {0, 1, 2});

  sim_.step();
  handler.poll(sim_.now());
  EXPECT_EQ(handler.metrics().overload_events, 2u);
  ASSERT_EQ(handler.metrics().instances_launched, 2u);
  sim_.run_until(0.1);
  handler.poll(sim_.now());
  ASSERT_EQ(sim_.instance_ids().size(), 4u);

  // Only class 0's burst subsides.
  sim_.set_class_rate(0, 100.0);
  sim_.step();
  handler.poll(sim_.now());
  EXPECT_EQ(handler.metrics().clear_events, 1u);
  EXPECT_EQ(handler.metrics().instances_cancelled, 1u);
  // Class 0 restored verbatim; class 1's failover untouched.
  ASSERT_EQ(sim_.plans_of(0).size(), 1u);
  EXPECT_DOUBLE_EQ(sim_.plans_of(0)[0].weight, 1.0);
  EXPECT_TRUE(handler.has_active_failover());
  EXPECT_GT(sim_.plans_of(1).size(), 1u);
  EXPECT_EQ(sim_.instance_ids().size(), 3u);  // fw1, fw2, class 1's extra
  EXPECT_DOUBLE_EQ(handler.metrics().extra_cores_in_use, 4.0);

  sim_.set_class_rate(1, 100.0);
  sim_.step();
  handler.poll(sim_.now());
  EXPECT_FALSE(handler.has_active_failover());
  EXPECT_EQ(handler.metrics().instances_cancelled, 2u);
  EXPECT_EQ(sim_.instance_ids().size(), 2u);
  ASSERT_EQ(sim_.plans_of(1).size(), 1u);
  EXPECT_DOUBLE_EQ(sim_.plans_of(1)[0].weight, 1.0);
}

TEST_F(DynamicHandlerTest, ClearBeforeBootCancelsThePendingShift) {
  // Overload launches a replacement and queues the traffic shift for its
  // boot completion. The overload clears BEFORE the VM is up: the rollback
  // must also cancel the queued shift, or it would re-install failover
  // plans referencing a cancelled instance after the rollback.
  const auto fw1 = launch_fw(1);
  sim_.set_class_rate(0, 1200.0);
  sim_.install_class_plans(0, {make_plan(0, 0, 1.0, 1, {fw1})});
  DynamicHandler handler(sim_, orch_, config_with());
  handler.register_class(0, {NfType::kFirewall}, {0, 1, 2});

  sim_.step();  // t = 0.01
  handler.poll(sim_.now());  // overload; replacement boots until ~0.04
  ASSERT_EQ(handler.metrics().instances_launched, 1u);

  sim_.set_class_rate(0, 100.0);
  sim_.step();  // t = 0.02, still before the replacement is ready
  handler.poll(sim_.now());
  EXPECT_EQ(handler.metrics().clear_events, 1u);
  EXPECT_EQ(handler.metrics().instances_cancelled, 1u);
  EXPECT_FALSE(handler.has_active_failover());

  // Run past the would-have-been boot completion: no zombie shift fires.
  sim_.run_until(0.2);
  handler.poll(sim_.now());
  ASSERT_EQ(sim_.plans_of(0).size(), 1u);
  EXPECT_DOUBLE_EQ(sim_.plans_of(0)[0].weight, 1.0);
  EXPECT_EQ(sim_.instance_ids().size(), 1u);
}

// Contract check (common/check.h): a non-positive or non-finite headroom
// target aborts at construction.
using DynamicHandlerDeathTest = DynamicHandlerTest;

TEST_F(DynamicHandlerDeathTest, RejectsNonPositiveHeadroom) {
  DynamicHandlerConfig cfg;
  cfg.headroom = 0.0;
  EXPECT_DEATH(DynamicHandler(sim_, orch_, cfg),
               "dynamic_handler.cc:[0-9]+: check failed:");
}

TEST_F(DynamicHandlerDeathTest, RejectsNonFiniteHeadroom) {
  DynamicHandlerConfig cfg;
  cfg.headroom = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(DynamicHandler(sim_, orch_, cfg),
               "dynamic_handler.cc:[0-9]+: check failed:");
}

TEST_F(DynamicHandlerTest, PeakExtraCoresTracksConcurrentFailovers) {
  const auto fw1 = launch_fw(1);
  const auto fw2 = launch_fw(2);
  sim_.set_class_rate(0, 1200.0);
  sim_.set_class_rate(1, 1200.0);
  sim_.install_class_plans(0, {make_plan(0, 0, 1.0, 1, {fw1})});
  sim_.install_class_plans(1, {make_plan(1, 0, 1.0, 2, {fw2})});
  DynamicHandler handler(sim_, orch_, config_with());
  handler.register_class(0, {NfType::kFirewall}, {0, 1, 2});
  handler.register_class(1, {NfType::kFirewall}, {0, 1, 2});
  sim_.step();
  handler.poll(sim_.now());
  EXPECT_EQ(handler.metrics().instances_launched, 2u);
  EXPECT_DOUBLE_EQ(handler.metrics().peak_extra_cores, 8.0);
}

}  // namespace
}  // namespace apple::core
