#include "core/placement.h"

#include <gtest/gtest.h>

#include "net/topologies.h"

namespace apple::core {
namespace {

using vnf::NfType;

// Shared tiny scenario: 3-switch line, one class 0->2 with chain FW->IDS.
struct Scenario {
  net::Topology topo = net::make_line(3, 64.0);
  std::vector<vnf::PolicyChain> chains{{NfType::kFirewall, NfType::kIds}};
  std::vector<traffic::TrafficClass> classes;
  PlacementInput input;

  Scenario() {
    traffic::TrafficClass cls;
    cls.id = 0;
    cls.src = 0;
    cls.dst = 2;
    cls.path = {0, 1, 2};
    cls.chain_id = 0;
    cls.rate_mbps = 500.0;
    classes.push_back(cls);
    input.topology = &topo;
    input.classes = classes;
    input.chains = chains;
  }

  PlacementPlan valid_plan() const {
    PlacementPlan plan;
    plan.instance_count.assign(3, {});
    plan.instance_count[1][static_cast<std::size_t>(NfType::kFirewall)] = 1;
    plan.instance_count[2][static_cast<std::size_t>(NfType::kIds)] = 1;
    plan.distribution.emplace_back(3, 2);
    plan.distribution[0](1, 0) = 1.0;  // FW at switch 1
    plan.distribution[0](2, 1) = 1.0;  // IDS at switch 2
    plan.feasible = true;
    return plan;
  }
};

TEST(PlacementInput, ValidatesReferences) {
  Scenario s;
  EXPECT_NO_THROW(s.input.validate());
  s.classes[0].chain_id = 9;
  PlacementInput bad = s.input;
  bad.classes = s.classes;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(PlacementInput, RejectsEmptyPathAndBadSwitch) {
  Scenario s;
  s.classes[0].path.clear();
  s.input.classes = s.classes;
  EXPECT_THROW(s.input.validate(), std::invalid_argument);
  s.classes[0].path = {0, 99};
  s.input.classes = s.classes;
  EXPECT_THROW(s.input.validate(), std::invalid_argument);
}

TEST(PlacementPlan, ObjectiveAndCores) {
  Scenario s;
  const PlacementPlan plan = s.valid_plan();
  EXPECT_EQ(plan.total_instances(), 2u);
  // FW (4 cores) + IDS (8 cores).
  EXPECT_DOUBLE_EQ(plan.total_cores(), 12.0);
  EXPECT_EQ(plan.instances_of(1, NfType::kFirewall), 1u);
  EXPECT_EQ(plan.instances_of(1, NfType::kIds), 0u);
}

TEST(CheckPlan, AcceptsValidPlan) {
  Scenario s;
  EXPECT_EQ(check_plan(s.input, s.valid_plan()), "");
}

TEST(CheckPlan, CatchesIncompleteProcessing) {
  Scenario s;
  PlacementPlan plan = s.valid_plan();
  // Last stage only 70% processed (keeps Eq. 3 prefixes intact so the
  // completion check is the one that fires).
  plan.distribution[0](2, 1) = 0.7;
  const std::string err = check_plan(s.input, plan);
  EXPECT_NE(err.find("Eq. 4"), std::string::npos) << err;
}

TEST(CheckPlan, CatchesOrderViolation) {
  Scenario s;
  PlacementPlan plan = s.valid_plan();
  // IDS (stage 2) at switch 1 but FW (stage 1) only at switch 2: reversed.
  plan.distribution[0](1, 0) = 0.0;
  plan.distribution[0](1, 1) = 1.0;
  plan.distribution[0](2, 0) = 1.0;
  plan.distribution[0](2, 1) = 0.0;
  plan.instance_count[1][static_cast<std::size_t>(NfType::kIds)] = 1;
  plan.instance_count[1][static_cast<std::size_t>(NfType::kFirewall)] = 0;
  plan.instance_count[2][static_cast<std::size_t>(NfType::kFirewall)] = 1;
  plan.instance_count[2][static_cast<std::size_t>(NfType::kIds)] = 0;
  const std::string err = check_plan(s.input, plan);
  EXPECT_NE(err.find("Eq. 3"), std::string::npos) << err;
}

TEST(CheckPlan, CatchesCapacityViolation) {
  Scenario s;
  s.classes[0].rate_mbps = 2000.0;  // one 900-Mbps FW cannot absorb this
  s.input.classes = s.classes;
  const std::string err = check_plan(s.input, s.valid_plan());
  EXPECT_NE(err.find("Eq. 5"), std::string::npos) << err;
}

TEST(CheckPlan, CatchesResourceViolation) {
  Scenario s;
  PlacementPlan plan = s.valid_plan();
  // 64 cores / 8 per IDS = 8 instances max.
  plan.instance_count[2][static_cast<std::size_t>(NfType::kIds)] = 9;
  const std::string err = check_plan(s.input, plan);
  EXPECT_NE(err.find("Eq. 6"), std::string::npos) << err;
}

TEST(CheckPlan, CatchesOutOfRangeFraction) {
  Scenario s;
  PlacementPlan plan = s.valid_plan();
  plan.distribution[0](1, 0) = 1.4;
  plan.distribution[0](2, 0) = -0.4;
  const std::string err = check_plan(s.input, plan);
  EXPECT_NE(err.find("Eq. 8"), std::string::npos) << err;
}

TEST(CheckPlan, CatchesShapeMismatch) {
  Scenario s;
  PlacementPlan plan = s.valid_plan();
  plan.distribution[0] = ClassDistribution(2, 2);  // one path position short
  EXPECT_NE(check_plan(s.input, plan).find("positions"), std::string::npos);
  plan.distribution[0] = ClassDistribution(3, 1);  // one chain stage short
  EXPECT_NE(check_plan(s.input, plan).find("stages"), std::string::npos);
  PlacementPlan plan2 = s.valid_plan();
  plan2.instance_count.pop_back();
  EXPECT_NE(check_plan(s.input, plan2), "");
}

}  // namespace
}  // namespace apple::core
