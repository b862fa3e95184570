#include "dataplane/data_plane.h"

#include <gtest/gtest.h>

#include <random>

#include "net/topologies.h"

namespace apple::dataplane {
namespace {

using vnf::NfType;

traffic::TrafficClass make_class(traffic::ClassId id, net::Path path,
                                 traffic::ChainId chain = 0,
                                 double rate = 100.0) {
  traffic::TrafficClass cls;
  cls.id = id;
  cls.src = path.front();
  cls.dst = path.back();
  cls.path = std::move(path);
  cls.chain_id = chain;
  cls.rate_mbps = rate;
  return cls;
}

class DataPlaneTest : public ::testing::Test {
 protected:
  DataPlaneTest() : topo_(net::make_line(4)), dp_(topo_) {
    // Instances: FW at switch 1, IDS at switch 2, spare FW at switch 2.
    dp_.register_instance({/*id=*/1, NfType::kFirewall, /*host=*/1, 900.0});
    dp_.register_instance({/*id=*/2, NfType::kIds, /*host=*/2, 600.0});
    dp_.register_instance({/*id=*/3, NfType::kFirewall, /*host=*/2, 900.0});
  }

  hsa::PacketHeader header(std::uint32_t salt = 0) const {
    hsa::PacketHeader h;
    h.src_ip = 0x0a000001 + salt;
    h.dst_ip = 0x0a000002;
    h.src_port = 1000;
    h.dst_port = 80;
    h.proto = 6;
    return h;
  }

  net::Topology topo_;
  DataPlane dp_;
};

TEST_F(DataPlaneTest, WalksChainInOrder) {
  SubclassPlan plan;
  plan.class_id = 0;
  plan.subclass_id = 0;
  plan.weight = 1.0;
  plan.itinerary = {{1, {1}}, {2, {2}}};  // FW@1 then IDS@2
  dp_.install_class(make_class(0, {0, 1, 2, 3}), {plan});

  const auto result = dp_.walk(0, header());
  ASSERT_TRUE(result.delivered) << result.error;
  EXPECT_EQ(result.packet.nf_trace, (std::vector<vnf::InstanceId>{1, 2}));
  EXPECT_EQ(dp_.traversed_types(result.packet),
            (std::vector<NfType>{NfType::kFirewall, NfType::kIds}));
  // Interference freedom: switch trace equals the original path.
  EXPECT_EQ(result.packet.switch_trace, (net::Path{0, 1, 2, 3}));
  EXPECT_EQ(result.packet.host_tag, kHostTagFin);
}

TEST_F(DataPlaneTest, MultipleInstancesAtOneHost) {
  SubclassPlan plan;
  plan.class_id = 0;
  plan.subclass_id = 0;
  plan.weight = 1.0;
  plan.itinerary = {{2, {3, 2}}};  // FW then IDS, both at switch 2's host
  dp_.install_class(make_class(0, {0, 1, 2, 3}), {plan});
  const auto result = dp_.walk(0, header());
  ASSERT_TRUE(result.delivered) << result.error;
  EXPECT_EQ(dp_.traversed_types(result.packet),
            (std::vector<NfType>{NfType::kFirewall, NfType::kIds}));
}

TEST_F(DataPlaneTest, EmptyItineraryDeliversUntouched) {
  SubclassPlan plan;
  plan.class_id = 0;
  plan.subclass_id = 0;
  plan.weight = 1.0;
  dp_.install_class(make_class(0, {0, 1, 2}), {plan});
  const auto result = dp_.walk(0, header());
  ASSERT_TRUE(result.delivered);
  EXPECT_TRUE(result.packet.nf_trace.empty());
  EXPECT_EQ(result.packet.host_tag, kHostTagFin);
}

TEST_F(DataPlaneTest, SubclassSplitFollowsWeights) {
  SubclassPlan a, b;
  a.class_id = b.class_id = 0;
  a.subclass_id = 0;
  b.subclass_id = 1;
  a.weight = 0.5;
  b.weight = 0.5;
  a.itinerary = {{1, {1}}};
  b.itinerary = {{2, {3}}};
  dp_.install_class(make_class(0, {0, 1, 2, 3}), {a, b});

  int to_a = 0;
  const int kFlows = 4000;
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::uint32_t> salt(0, 1u << 30);
  for (int i = 0; i < kFlows; ++i) {
    const auto& plan = dp_.subclass_for(0, header(salt(rng)));
    if (plan.subclass_id == 0) ++to_a;
  }
  // Consistent hash splits flows ~50/50 (Sec. V-A).
  EXPECT_NEAR(static_cast<double>(to_a) / kFlows, 0.5, 0.05);
}

TEST_F(DataPlaneTest, SubclassSelectionIsStablePerFlow) {
  SubclassPlan a, b;
  a.class_id = b.class_id = 0;
  a.subclass_id = 0;
  b.subclass_id = 1;
  a.weight = 0.3;
  b.weight = 0.7;
  a.itinerary = {{1, {1}}};
  b.itinerary = {{2, {3}}};
  dp_.install_class(make_class(0, {0, 1, 2, 3}), {a, b});
  const auto h = header(77);
  const SubclassId first = dp_.subclass_for(0, h).subclass_id;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(dp_.subclass_for(0, h).subclass_id, first);
  }
}

TEST_F(DataPlaneTest, UpdateClassSwapsPlans) {
  SubclassPlan plan;
  plan.class_id = 0;
  plan.subclass_id = 0;
  plan.weight = 1.0;
  plan.itinerary = {{1, {1}}};
  dp_.install_class(make_class(0, {0, 1, 2, 3}), {plan});

  SubclassPlan moved = plan;
  moved.itinerary = {{2, {3}}};
  dp_.update_class(0, {moved});
  const auto result = dp_.walk(0, header());
  ASSERT_TRUE(result.delivered);
  EXPECT_EQ(result.packet.nf_trace, (std::vector<vnf::InstanceId>{3}));
}

TEST_F(DataPlaneTest, ValidationRejectsBadPlans) {
  const auto cls = make_class(0, {0, 1, 2, 3});
  SubclassPlan plan;
  plan.class_id = 0;
  plan.weight = 1.0;

  // Weights must sum to 1.
  SubclassPlan half = plan;
  half.weight = 0.5;
  EXPECT_THROW(dp_.install_class(cls, {half}), std::invalid_argument);

  // Off-path visit.
  SubclassPlan off = plan;
  off.itinerary = {{9, {1}}};
  EXPECT_THROW(dp_.install_class(cls, {off}), std::invalid_argument);

  // Out-of-order visits (switch 2 before switch 1).
  SubclassPlan unordered = plan;
  unordered.itinerary = {{2, {2}}, {1, {1}}};
  EXPECT_THROW(dp_.install_class(cls, {unordered}), std::invalid_argument);

  // Empty host visit.
  SubclassPlan empty_visit = plan;
  empty_visit.itinerary = {{1, {}}};
  EXPECT_THROW(dp_.install_class(cls, {empty_visit}), std::invalid_argument);

  // No plans at all.
  EXPECT_THROW(dp_.install_class(cls, {}), std::invalid_argument);

  // Negative weight.
  SubclassPlan neg = plan;
  neg.weight = -1.0;
  SubclassPlan comp = plan;
  comp.weight = 2.0;
  EXPECT_THROW(dp_.install_class(cls, {neg, comp}), std::invalid_argument);

  // Update of unknown class.
  EXPECT_THROW(dp_.update_class(42, {plan}), std::invalid_argument);
}

TEST_F(DataPlaneTest, WalkOnUnknownClassFails) {
  const auto result = dp_.walk(99, header());
  EXPECT_FALSE(result.delivered);
  EXPECT_FALSE(result.error.empty());
}

TEST_F(DataPlaneTest, RemoveClassDeletesRules) {
  SubclassPlan plan;
  plan.class_id = 0;
  plan.subclass_id = 0;
  plan.weight = 1.0;
  plan.itinerary = {{1, {1}}};
  dp_.install_class(make_class(0, {0, 1, 2, 3}), {plan});
  ASSERT_TRUE(dp_.has_class(0));
  EXPECT_EQ(dp_.num_classes(), 1u);

  EXPECT_TRUE(dp_.remove_class(0));
  EXPECT_FALSE(dp_.has_class(0));
  EXPECT_EQ(dp_.num_classes(), 0u);
  EXPECT_FALSE(dp_.remove_class(0));  // second removal is a no-op
  EXPECT_FALSE(dp_.walk(0, header()).delivered);
}

TEST_F(DataPlaneTest, UnregisterInstanceFailsWalksThroughIt) {
  SubclassPlan plan;
  plan.class_id = 0;
  plan.subclass_id = 0;
  plan.weight = 1.0;
  plan.itinerary = {{1, {1}}};
  dp_.install_class(make_class(0, {0, 1, 2, 3}), {plan});
  ASSERT_TRUE(dp_.has_instance(1));

  dp_.unregister_instance(1);
  EXPECT_FALSE(dp_.has_instance(1));
  EXPECT_EQ(dp_.num_instances(), 2u);
  // The class's rules now dangle: the walk reports the inconsistency
  // instead of silently skipping the retired instance.
  const auto result = dp_.walk(0, header());
  EXPECT_FALSE(result.delivered);
  EXPECT_FALSE(result.error.empty());
  dp_.unregister_instance(1);  // unknown id: no-op
  EXPECT_EQ(dp_.num_instances(), 2u);
}

TEST_F(DataPlaneTest, ClassIdsAreSorted) {
  SubclassPlan plan;
  plan.class_id = 7;
  plan.subclass_id = 0;
  plan.weight = 1.0;
  plan.itinerary = {{1, {1}}};
  dp_.install_class(make_class(7, {0, 1, 2, 3}), {plan});
  plan.class_id = 3;
  dp_.install_class(make_class(3, {0, 1, 2, 3}), {plan});
  EXPECT_EQ(dp_.class_ids(), (std::vector<traffic::ClassId>{3, 7}));
}

TEST_F(DataPlaneTest, RevisitingSameHostTwiceIsRejected) {
  // A second visit to switch 1 after switch 2 cannot appear on a simple
  // path; validation must reject it (packets never traverse an instance
  // twice, Sec. V-B).
  SubclassPlan plan;
  plan.class_id = 0;
  plan.weight = 1.0;
  plan.itinerary = {{1, {1}}, {2, {2}}, {1, {1}}};
  EXPECT_THROW(dp_.install_class(make_class(0, {0, 1, 2, 3}), {plan}),
               std::invalid_argument);
}

TEST_F(DataPlaneTest, RuleFaultHookFailsInstallsWithoutLeavingState) {
  SubclassPlan plan;
  plan.class_id = 0;
  plan.subclass_id = 0;
  plan.weight = 1.0;
  plan.itinerary = {{1, {1}}};

  int consulted = 0;
  dp_.set_rule_fault_hook([&](traffic::ClassId cls) {
    ++consulted;
    return cls == 0;  // fail class 0 only
  });
  EXPECT_THROW(dp_.install_class(make_class(0, {0, 1, 2, 3}), {plan}),
               RuleInstallError);
  EXPECT_FALSE(dp_.has_class(0));
  EXPECT_EQ(dp_.num_classes(), 0u);
  EXPECT_EQ(consulted, 1);

  plan.class_id = 5;
  dp_.install_class(make_class(5, {0, 1, 2, 3}), {plan});  // other ids pass
  EXPECT_TRUE(dp_.has_class(5));

  // update_class goes through the same hook; the old plans survive.
  dp_.set_rule_fault_hook([](traffic::ClassId) { return true; });
  SubclassPlan updated = plan;
  updated.itinerary = {{2, {2}}};
  EXPECT_THROW(dp_.update_class(5, {updated}), RuleInstallError);
  ASSERT_EQ(dp_.plans_of(5).size(), 1u);
  EXPECT_EQ(dp_.plans_of(5)[0].itinerary[0].at_switch, 1u);

  dp_.set_rule_fault_hook(nullptr);  // cleared: installs are clean again
  EXPECT_NO_THROW(dp_.update_class(5, {updated}));
  EXPECT_EQ(dp_.plans_of(5)[0].itinerary[0].at_switch, 2u);
}

TEST_F(DataPlaneTest, VersionMovesOnEveryChangeAWalkCanSee) {
  SubclassPlan plan;
  plan.class_id = 0;
  plan.subclass_id = 0;
  plan.weight = 1.0;
  plan.itinerary = {{1, {1}}};
  std::uint64_t v = dp_.version();

  dp_.register_instance({/*id=*/4, NfType::kNat, /*host=*/1, 900.0});
  EXPECT_GT(dp_.version(), v);
  v = dp_.version();
  // Re-registering an id retypes it: walks read the new type.
  dp_.register_instance({/*id=*/4, NfType::kProxy, /*host=*/1, 900.0});
  EXPECT_GT(dp_.version(), v);
  v = dp_.version();
  dp_.unregister_instance(4);
  EXPECT_GT(dp_.version(), v);
  v = dp_.version();
  dp_.install_class(make_class(0, {0, 1, 2, 3}), {plan});
  EXPECT_GT(dp_.version(), v);
  v = dp_.version();
  SubclassPlan updated = plan;
  updated.itinerary = {{2, {2}}};
  dp_.update_class(0, {updated});
  EXPECT_GT(dp_.version(), v);
  v = dp_.version();
  EXPECT_TRUE(dp_.remove_class(0));
  EXPECT_GT(dp_.version(), v);
}

TEST_F(DataPlaneTest, VersionHoldsWhenNothingAWalkCanSeeChanged) {
  SubclassPlan plan;
  plan.class_id = 0;
  plan.subclass_id = 0;
  plan.weight = 1.0;
  plan.itinerary = {{1, {1}}};
  dp_.install_class(make_class(0, {0, 1, 2, 3}), {plan});
  const std::uint64_t v = dp_.version();

  (void)dp_.walk(0, header());
  EXPECT_EQ(dp_.version(), v);
  dp_.unregister_instance(999);  // unknown id
  EXPECT_EQ(dp_.version(), v);
  EXPECT_FALSE(dp_.remove_class(7));  // absent class
  EXPECT_EQ(dp_.version(), v);

  SubclassPlan bad = plan;
  bad.weight = 0.5;  // weights no longer sum to 1
  EXPECT_THROW(dp_.install_class(make_class(1, {0, 1, 2, 3}), {bad}),
               std::invalid_argument);
  EXPECT_THROW(dp_.update_class(0, {bad}), std::invalid_argument);
  EXPECT_EQ(dp_.version(), v);

  dp_.set_rule_fault_hook([](traffic::ClassId) { return true; });
  EXPECT_EQ(dp_.version(), v);
  plan.class_id = 1;
  EXPECT_THROW(dp_.install_class(make_class(1, {0, 1, 2, 3}), {plan}),
               RuleInstallError);
  EXPECT_THROW(dp_.update_class(0, {plan}), RuleInstallError);
  EXPECT_EQ(dp_.version(), v);
  dp_.set_rule_fault_hook(nullptr);
  EXPECT_EQ(dp_.version(), v);
}

TEST_F(DataPlaneTest, InstanceLookupReturnsRegisteredFacts) {
  const auto fw = dp_.instance(1);
  ASSERT_TRUE(fw.has_value());
  EXPECT_EQ(fw->type, NfType::kFirewall);
  EXPECT_EQ(fw->host_switch, 1u);
  EXPECT_DOUBLE_EQ(fw->capacity_mbps, 900.0);
  EXPECT_FALSE(dp_.instance(999).has_value());
}

}  // namespace
}  // namespace apple::dataplane
