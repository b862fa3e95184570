#include "core/subclass_assigner.h"

#include <gtest/gtest.h>

#include <map>

#include "core/optimization_engine.h"
#include "dataplane/data_plane.h"
#include "net/topologies.h"

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

struct Prepared {
  PlacementPlan plan;
  InstanceInventory inventory;
  std::vector<std::vector<dataplane::SubclassPlan>> subclasses;
};

Prepared prepare(const PlacementInput& input,
                 const AssignerOptions& options = {}) {
  EngineOptions eopts;
  eopts.strategy = PlacementStrategy::kGreedy;
  Prepared out;
  out.plan = OptimizationEngine(eopts).place(input);
  EXPECT_TRUE(out.plan.feasible) << out.plan.infeasibility_reason;
  out.inventory = materialize_inventory(input, out.plan);
  out.subclasses = assign_subclasses(input, out.plan, out.inventory, options);
  return out;
}

TEST(MaterializeInventory, DenseSequentialIds) {
  const net::Topology topo = net::make_line(3, 64.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 1500.0};  // needs 2 FW instances
  const PlacementInput input = make_input(topo, classes, chains);
  const Prepared p = prepare(input);
  std::size_t count = 0;
  std::vector<bool> seen(16, false);
  for (const auto& per_node : p.inventory.by_node_type) {
    for (const auto& bucket : per_node) {
      for (const vnf::InstanceId id : bucket) {
        ++count;
        ASSERT_LT(id, seen.size());
        EXPECT_FALSE(seen[id]);  // unique
        seen[id] = true;
        EXPECT_GE(id, 1u);       // 1-based
      }
    }
  }
  EXPECT_EQ(count, p.plan.total_instances());
}

TEST(AssignSubclasses, WeightsSumToOne) {
  const net::Topology topo = net::make_line(4, 64.0);
  const std::vector<vnf::PolicyChain> chains{
      {NfType::kFirewall, NfType::kIds}};
  std::vector<traffic::TrafficClass> classes(2);
  classes[0] = {0, 0, 3, {0, 1, 2, 3}, 0, 1100.0};
  classes[1] = {1, 1, 3, {1, 2, 3}, 0, 700.0};
  const PlacementInput input = make_input(topo, classes, chains);
  const Prepared p = prepare(input);
  for (const auto& plans : p.subclasses) {
    ASSERT_FALSE(plans.empty());
    double weight = 0.0;
    for (const auto& sub : plans) {
      EXPECT_GE(sub.weight, 0.0);
      weight += sub.weight;
    }
    EXPECT_NEAR(weight, 1.0, 1e-9);
  }
}

TEST(AssignSubclasses, ItinerariesFollowPathAndChainOrder) {
  const net::Topology topo = net::make_line(4, 64.0);
  const std::vector<vnf::PolicyChain> chains{
      {NfType::kNat, NfType::kFirewall, NfType::kIds}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 3, {0, 1, 2, 3}, 0, 1300.0};
  const PlacementInput input = make_input(topo, classes, chains);
  const Prepared p = prepare(input);

  // Map instance -> type from the inventory.
  std::unordered_map<vnf::InstanceId, NfType> type_of;
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      for (const vnf::InstanceId id : p.inventory.by_node_type[v][n]) {
        type_of[id] = static_cast<NfType>(n);
      }
    }
  }
  for (const auto& sub : p.subclasses[0]) {
    // Flatten instance sequence: types must equal the chain exactly.
    std::vector<NfType> types;
    std::size_t last_pos = 0;
    for (const auto& visit : sub.itinerary) {
      const auto it = std::find(classes[0].path.begin() + last_pos,
                                classes[0].path.end(), visit.at_switch);
      ASSERT_NE(it, classes[0].path.end()) << "off-path or out of order";
      last_pos = static_cast<std::size_t>(it - classes[0].path.begin());
      for (const vnf::InstanceId id : visit.instances) {
        types.push_back(type_of.at(id));
      }
    }
    EXPECT_EQ(types, chains[0]);
  }
}

TEST(AssignSubclasses, RespectsPerInstanceCapacity) {
  const net::Topology topo = net::make_line(3, 64.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kIds}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 1700.0};  // 3 IDS instances
  const PlacementInput input = make_input(topo, classes, chains);
  const Prepared p = prepare(input);

  std::map<vnf::InstanceId, double> load;
  for (const auto& sub : p.subclasses[0]) {
    for (const auto& visit : sub.itinerary) {
      for (const vnf::InstanceId id : visit.instances) {
        load[id] += sub.weight * classes[0].rate_mbps;
      }
    }
  }
  for (const auto& [id, mbps] : load) {
    EXPECT_LE(mbps, 600.0 + 1e-6) << "instance " << id;
  }
}

TEST(AssignSubclasses, SingleInstanceYieldsSingleSubclass) {
  const net::Topology topo = net::make_line(3, 64.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 400.0};
  const PlacementInput input = make_input(topo, classes, chains);
  const Prepared p = prepare(input);
  ASSERT_EQ(p.subclasses[0].size(), 1u);
  EXPECT_NEAR(p.subclasses[0][0].weight, 1.0, 1e-12);
}

TEST(AssignSubclasses, EmptyChainClassGetsPlainSubclass) {
  net::Topology topo = net::make_line(3, 64.0);
  const std::vector<vnf::PolicyChain> chains{{}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 400.0};
  const PlacementInput input = make_input(topo, classes, chains);
  const Prepared p = prepare(input);
  ASSERT_EQ(p.subclasses[0].size(), 1u);
  EXPECT_TRUE(p.subclasses[0][0].itinerary.empty());
}

TEST(AssignSubclasses, ThrowsWhenPlanLacksInstances) {
  const net::Topology topo = net::make_line(3, 64.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 400.0};
  const PlacementInput input = make_input(topo, classes, chains);
  Prepared p = prepare(input);
  // Sabotage: drop all instances.
  PlacementPlan empty = p.plan;
  for (auto& per_switch : empty.instance_count) per_switch = {};
  const InstanceInventory none = materialize_inventory(input, empty);
  EXPECT_THROW(assign_subclasses(input, p.plan, none),
               std::invalid_argument);
}

// A hand-built plan whose sub-classes outgrow both inline buffers of a
// sub-class plan: class 0 runs a 5-stage chain inside switch 1's host (five
// instances in one visit), class 1 takes its three stages at three hosts
// (three visits). Both must install and walk their chain in order.
TEST(AssignSubclasses, SpilledItinerariesInstallAndWalk) {
  const net::Topology topo = net::make_line(4, 64.0);
  const std::vector<vnf::PolicyChain> chains{
      {NfType::kFirewall, NfType::kProxy, NfType::kNat, NfType::kIds,
       NfType::kFirewall},
      {NfType::kNat, NfType::kFirewall, NfType::kIds}};
  std::vector<traffic::TrafficClass> classes(2);
  classes[0] = {0, 0, 3, {0, 1, 2, 3}, 0, 100.0};
  classes[1] = {1, 0, 3, {0, 1, 2, 3}, 1, 100.0};
  const PlacementInput input = make_input(topo, classes, chains);

  PlacementPlan plan;
  plan.feasible = true;
  plan.instance_count.assign(topo.num_nodes(), {});
  const auto place = [&](net::NodeId v, NfType n) {
    plan.instance_count[v][static_cast<std::size_t>(n)] = 1;
  };
  place(1, NfType::kFirewall);
  place(1, NfType::kProxy);
  place(1, NfType::kNat);
  place(1, NfType::kIds);
  place(2, NfType::kFirewall);
  place(3, NfType::kIds);
  plan.distribution.emplace_back(4, 5);  // class 0: every stage at switch 1
  for (std::size_t j = 0; j < 5; ++j) plan.distribution[0](1, j) = 1.0;
  plan.distribution.emplace_back(4, 3);  // class 1: stage j at switch j + 1
  for (std::size_t j = 0; j < 3; ++j) plan.distribution[1](j + 1, j) = 1.0;
  ASSERT_EQ(check_plan(input, plan), "");

  const InstanceInventory inventory = materialize_inventory(input, plan);
  const auto subclasses = assign_subclasses(input, plan, inventory);
  ASSERT_EQ(subclasses[0].size(), 1u);
  ASSERT_EQ(subclasses[0][0].itinerary.size(), 1u);
  EXPECT_GT(subclasses[0][0].itinerary[0].instances.size(),
            decltype(dataplane::HostVisit::instances)::kInlineCapacity);
  ASSERT_EQ(subclasses[1].size(), 1u);
  EXPECT_GT(subclasses[1][0].itinerary.size(),
            decltype(dataplane::SubclassPlan::itinerary)::kInlineCapacity);

  dataplane::DataPlane dp(topo);
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const NfType type = static_cast<NfType>(n);
      for (const vnf::InstanceId id : inventory.by_node_type[v][n]) {
        dp.register_instance(
            vnf::VnfInstance{id, type, v, vnf::spec_of(type).capacity_mbps});
      }
    }
  }
  for (std::size_t h = 0; h < classes.size(); ++h) {
    dp.install_class(classes[h], subclasses[h]);
  }
  for (std::size_t h = 0; h < classes.size(); ++h) {
    for (std::uint32_t salt = 0; salt < 4; ++salt) {
      hsa::PacketHeader header;
      header.src_ip = 0x0a000000u + salt;
      header.dst_ip = 0xc0a80000u + static_cast<std::uint32_t>(h);
      header.src_port = static_cast<std::uint16_t>(1024 + salt);
      header.dst_port = 80;
      header.proto = 6;
      const dataplane::DataPlane::WalkResult walk =
          dp.walk(classes[h].id, header);
      ASSERT_TRUE(walk.delivered) << walk.error;
      EXPECT_EQ(dp.traversed_types(walk.packet), chains[h]);
    }
  }
}

TEST(ClassifierRules, HashingCostsOneRule) {
  EXPECT_EQ(classifier_rules_for_weight(0.37, SubclassMethod::kConsistentHash,
                                        8),
            1u);
}

TEST(ClassifierRules, PrefixSplitCostsPopcount) {
  using enum SubclassMethod;
  // 0.5 = 1 prefix (e.g. /25 of a /24, the paper's example).
  EXPECT_EQ(classifier_rules_for_weight(0.5, kPrefixSplit, 8), 1u);
  // 0.375 = 1/4 + 1/8 = 2 prefixes.
  EXPECT_EQ(classifier_rules_for_weight(0.375, kPrefixSplit, 8), 2u);
  // 255/256 = 8 prefixes.
  EXPECT_EQ(classifier_rules_for_weight(255.0 / 256.0, kPrefixSplit, 8), 8u);
  // Tiny weights still cost one rule.
  EXPECT_EQ(classifier_rules_for_weight(1e-9, kPrefixSplit, 8), 1u);
  EXPECT_THROW(classifier_rules_for_weight(0.5, kPrefixSplit, 0),
               std::invalid_argument);
}

TEST(AssignSubclasses, PrefixMethodInflatesRuleCounts) {
  const net::Topology topo = net::make_line(3, 64.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kIds}};
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 1700.0};  // split across 3 instances
  const PlacementInput input = make_input(topo, classes, chains);

  AssignerOptions hash_opts;
  hash_opts.method = SubclassMethod::kConsistentHash;
  AssignerOptions prefix_opts;
  prefix_opts.method = SubclassMethod::kPrefixSplit;
  const Prepared by_hash = prepare(input, hash_opts);
  const Prepared by_prefix = prepare(input, prefix_opts);

  std::size_t hash_rules = 0, prefix_rules = 0;
  for (const auto& sub : by_hash.subclasses[0]) {
    hash_rules += sub.classifier_prefix_rules;
  }
  for (const auto& sub : by_prefix.subclasses[0]) {
    prefix_rules += sub.classifier_prefix_rules;
  }
  // Sec. V-A: the prefix method "may need multiple rules to represent a
  // single sub-class".
  EXPECT_GE(prefix_rules, hash_rules);
}

}  // namespace
}  // namespace apple::core
