#include "core/rule_generator.h"

#include <gtest/gtest.h>

#include <random>

#include "core/optimization_engine.h"
#include "net/topologies.h"
#include "traffic/synthesis.h"

namespace apple::core {
namespace {

using vnf::NfType;

struct Pipeline {
  const net::Topology* topo;
  std::vector<vnf::PolicyChain> chains;
  std::vector<traffic::TrafficClass> classes;
  PlacementInput input;
  PlacementPlan plan;
  InstanceInventory inventory;
  std::vector<std::vector<dataplane::SubclassPlan>> subclasses;

  Pipeline(const net::Topology& t,
           std::vector<vnf::PolicyChain> chain_catalog,
           std::vector<traffic::TrafficClass> cls)
      : topo(&t), chains(std::move(chain_catalog)), classes(std::move(cls)) {
    input.topology = topo;
    input.classes = classes;
    input.chains = chains;
    EngineOptions eopts;
    eopts.strategy = PlacementStrategy::kGreedy;
    plan = OptimizationEngine(eopts).place(input);
    EXPECT_TRUE(plan.feasible) << plan.infeasibility_reason;
    inventory = materialize_inventory(input, plan);
    subclasses = assign_subclasses(input, plan, inventory);
  }
};

hsa::PacketHeader flow_header(std::uint32_t salt) {
  hsa::PacketHeader h;
  h.src_ip = 0x0a000000u + salt * 2654435761u;
  h.dst_ip = 0xc0a80000u + salt;
  h.src_port = static_cast<std::uint16_t>(1024 + salt % 50000);
  h.dst_port = 80;
  h.proto = 6;
  return h;
}

TEST(RuleGenerator, InstallsWalkableDataPlane) {
  const net::Topology topo = net::make_line(4, 64.0);
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 3, {0, 1, 2, 3}, 0, 700.0};
  Pipeline p(topo, {{NfType::kFirewall, NfType::kIds}}, classes);

  dataplane::DataPlane dp(topo);
  RuleGenerator().install(p.input, p.subclasses, p.inventory, dp);
  const RuleGenerationReport report =
      RuleGenerator().account(p.input, p.subclasses);
  EXPECT_GT(report.tcam_with_tagging, 0u);
  EXPECT_GT(report.vswitch_rules, 0u);

  const auto result = dp.walk(0, flow_header(1));
  ASSERT_TRUE(result.delivered) << result.error;
  EXPECT_EQ(dp.traversed_types(result.packet),
            (std::vector<NfType>{NfType::kFirewall, NfType::kIds}));
}

TEST(RuleGenerator, TaggingBeatsNoTagging) {
  // Long path, chain at downstream hosts: classification at every host
  // switch (no tagging) costs strictly more than ingress-only (tagging).
  const net::Topology topo = net::make_line(6, 64.0);
  std::vector<traffic::TrafficClass> classes(2);
  classes[0] = {0, 0, 5, {0, 1, 2, 3, 4, 5}, 0, 1100.0};
  classes[1] = {1, 1, 5, {1, 2, 3, 4, 5}, 0, 900.0};
  Pipeline p(topo, {{NfType::kFirewall, NfType::kNat, NfType::kIds}},
             classes);
  const RuleGenerationReport report =
      RuleGenerator().account(p.input, p.subclasses);
  EXPECT_GT(report.tcam_without_tagging, report.tcam_with_tagging);
  EXPECT_GT(report.tcam_reduction_ratio(), 1.0);
}

TEST(RuleGenerator, AccountRejectsMismatchedSizes) {
  const net::Topology topo = net::make_line(3, 64.0);
  std::vector<traffic::TrafficClass> classes(1);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 100.0};
  Pipeline p(topo, {{NfType::kFirewall}}, classes);
  auto wrong = p.subclasses;
  wrong.emplace_back();
  EXPECT_THROW(RuleGenerator().account(p.input, wrong),
               std::invalid_argument);
  dataplane::DataPlane dp(topo);
  EXPECT_THROW(RuleGenerator().install(p.input, wrong, p.inventory, dp),
               std::invalid_argument);
}

// The headline property test: on a realistic topology with the full chain
// catalog, every class's packets must traverse their policy chain in order
// (policy enforcement) on their original forwarding path (interference
// freedom).
class EndToEndEnforcement : public ::testing::TestWithParam<int> {};

TEST_P(EndToEndEnforcement, EveryClassEnforcedOnItsOwnPath) {
  const net::Topology topo = net::make_internet2();
  const net::AllPairsPaths routing(topo);
  const auto chain_span = vnf::default_policy_chains();
  std::vector<vnf::PolicyChain> chains(chain_span.begin(), chain_span.end());

  traffic::GravityModelConfig gcfg;
  gcfg.total_mbps = 10000.0;
  gcfg.seed = static_cast<std::uint64_t>(GetParam());
  const traffic::TrafficMatrix tm =
      traffic::make_gravity_matrix(topo.num_nodes(), gcfg);
  const auto classes = traffic::build_classes(
      topo, routing, tm, traffic::uniform_chain_assignment(chains.size()));

  Pipeline p(topo, chains, classes);
  EXPECT_EQ(check_plan(p.input, p.plan), "");

  dataplane::DataPlane dp(topo);
  RuleGenerator().install(p.input, p.subclasses, p.inventory, dp);

  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::uint32_t> salt(0, 1u << 30);
  for (const traffic::TrafficClass& cls : p.classes) {
    // Several flows per class to exercise different sub-classes.
    for (int f = 0; f < 3; ++f) {
      const auto result = dp.walk(cls.id, flow_header(salt(rng)));
      ASSERT_TRUE(result.delivered)
          << "class " << cls.id << ": " << result.error;
      // Policy enforcement: traversed NF types equal the chain, in order.
      EXPECT_EQ(dp.traversed_types(result.packet), chains[cls.chain_id])
          << "class " << cls.id;
      // Interference freedom: switches visited = original path.
      EXPECT_EQ(result.packet.switch_trace, cls.path) << "class " << cls.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndEnforcement, ::testing::Range(1, 5));

}  // namespace
}  // namespace apple::core
