// Integration tests exercising the whole APPLE stack together, across all
// evaluation topologies: optimize -> place -> sub-classes -> rules ->
// packet walks -> replay with failover. These are the repository's
// "does the system as a whole uphold the paper's three properties" tests.
#include <gtest/gtest.h>

#include <ostream>
#include <random>

#include "baselines/ingress.h"
#include "core/apple_controller.h"
#include "core/rule_generator.h"
#include "net/topologies.h"

namespace apple {
namespace {

struct TopoParam {
  const char* label;
  net::Topology (*make)(double);
  double total_mbps;
};

// gtest puts the printed parameter into each test's listed name. Its default
// printer dumps the struct's bytes, pointers included, so the name would
// change with every address-space layout; print the label instead.
void PrintTo(const TopoParam& param, std::ostream* os) { *os << param.label; }

class PipelineOnTopology : public ::testing::TestWithParam<TopoParam> {};

core::ControllerConfig fast_config() {
  core::ControllerConfig cfg;
  cfg.engine.strategy = core::PlacementStrategy::kGreedy;
  cfg.snapshot_duration = 0.3;
  cfg.tick = 0.05;
  cfg.poll_interval = 0.1;
  cfg.policied_fraction = 0.5;
  return cfg;
}

TEST_P(PipelineOnTopology, EpochUpholdsAllConstraints) {
  const TopoParam& param = GetParam();
  const net::Topology topo = param.make(net::kDefaultHostCores);
  const core::AppleController controller(topo, vnf::default_policy_chains(),
                                         fast_config());
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = param.total_mbps});
  const core::Epoch epoch = controller.optimize(tm);

  core::PlacementInput input;
  input.topology = &topo;
  input.classes = epoch.classes;
  input.chains = controller.chains();
  EXPECT_EQ(core::check_plan(input, epoch.plan), "");

  // Sub-class weights are a probability distribution per class.
  for (const auto& plans : epoch.subclasses) {
    double weight = 0.0;
    for (const auto& sub : plans) weight += sub.weight;
    EXPECT_NEAR(weight, 1.0, 1e-6);
  }
  // Tagging always beats per-path classification.
  EXPECT_LT(epoch.rules.tcam_with_tagging, epoch.rules.tcam_without_tagging);
}

TEST_P(PipelineOnTopology, PacketWalksEnforceEveryChain) {
  const TopoParam& param = GetParam();
  const net::Topology topo = param.make(net::kDefaultHostCores);
  const core::AppleController controller(topo, vnf::default_policy_chains(),
                                         fast_config());
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = param.total_mbps});
  const core::Epoch epoch = controller.optimize(tm);

  core::PlacementInput input;
  input.topology = &topo;
  input.classes = epoch.classes;
  input.chains = controller.chains();
  dataplane::DataPlane dp(topo);
  core::RuleGenerator().install(input, epoch.subclasses, epoch.inventory, dp);

  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::uint32_t> salt(0, 1u << 30);
  for (const traffic::TrafficClass& cls : epoch.classes) {
    hsa::PacketHeader h;
    h.src_ip = salt(rng);
    h.dst_ip = salt(rng);
    h.src_port = static_cast<std::uint16_t>(salt(rng));
    h.dst_port = 443;
    h.proto = 6;
    const auto walk = dp.walk(cls.id, h);
    ASSERT_TRUE(walk.delivered) << param.label << " class " << cls.id << ": "
                                << walk.error;
    EXPECT_EQ(dp.traversed_types(walk.packet),
              controller.chains()[cls.chain_id]);
    EXPECT_EQ(walk.packet.switch_trace, cls.path);
  }
}

TEST_P(PipelineOnTopology, SteadyReplayIsLossFree) {
  const TopoParam& param = GetParam();
  const net::Topology topo = param.make(net::kDefaultHostCores);
  const core::AppleController controller(topo, vnf::default_policy_chains(),
                                         fast_config());
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = param.total_mbps});
  const core::Epoch epoch = controller.optimize(tm);
  const std::vector<traffic::TrafficMatrix> series(3, tm);
  const core::ReplayReport report = controller.replay(epoch, series, true);
  EXPECT_NEAR(report.mean_loss, 0.0, 1e-9) << param.label;
}

TEST_P(PipelineOnTopology, AppleNeverUsesMoreCoresThanPerClassIngress) {
  const TopoParam& param = GetParam();
  const net::Topology topo = param.make(net::kDefaultHostCores);
  const core::AppleController controller(topo, vnf::default_policy_chains(),
                                         fast_config());
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = param.total_mbps});
  const core::Epoch epoch = controller.optimize(tm);

  core::PlacementInput input;
  input.topology = &topo;
  input.classes = epoch.classes;
  input.chains = controller.chains();
  const core::PlacementPlan strawman = baseline::place_ingress(input);
  EXPECT_LE(epoch.plan.total_cores(), strawman.total_cores());
}

INSTANTIATE_TEST_SUITE_P(
    Evaluation, PipelineOnTopology,
    ::testing::Values(TopoParam{"Internet2", net::make_internet2, 4000.0},
                      TopoParam{"GEANT", net::make_geant, 8000.0},
                      TopoParam{"UNIV1", net::make_univ1, 8000.0}),
    [](const auto& param_info) { return std::string(param_info.param.label); });

TEST(PipelineLarge, As3679EndToEnd) {
  // The scalability case: 79 switches, thousands of classes, greedy
  // placement, full sub-class + rule generation.
  const net::Topology topo = net::make_as3679();
  core::ControllerConfig cfg = fast_config();
  const core::AppleController controller(topo, vnf::default_policy_chains(),
                                         cfg);
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = 30000.0});
  const core::Epoch epoch = controller.optimize(tm);
  EXPECT_GT(epoch.classes.size(), 1000u);
  EXPECT_TRUE(epoch.plan.feasible);
  core::PlacementInput input;
  input.topology = &topo;
  input.classes = epoch.classes;
  input.chains = controller.chains();
  EXPECT_EQ(core::check_plan(input, epoch.plan), "");
  EXPECT_GT(epoch.rules.tcam_reduction_ratio(), 1.0);
}

TEST(PipelineReoptimization, SegmentedReplayTracksDiurnalPattern) {
  const net::Topology topo = net::make_internet2();
  core::ControllerConfig cfg = fast_config();
  cfg.reoptimize_every = 8;
  const core::AppleController controller(topo, vnf::default_policy_chains(),
                                         cfg);
  const traffic::TrafficMatrix base = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = 6000.0});
  traffic::DiurnalConfig diurnal;
  diurnal.num_snapshots = 24;
  diurnal.snapshots_per_day = 24;
  diurnal.diurnal_amplitude = 0.5;
  diurnal.noise_sigma = 0.0;  // pure pattern
  const auto series = traffic::make_diurnal_series(base, diurnal);
  const core::Epoch epoch = controller.optimize(traffic::mean_matrix(series));

  const core::ReplayReport segmented = controller.replay(epoch, series, false);
  EXPECT_EQ(segmented.epochs, 3u);

  core::ControllerConfig fixed_cfg = cfg;
  fixed_cfg.reoptimize_every = 0;
  const core::AppleController fixed(topo, vnf::default_policy_chains(),
                                    fixed_cfg);
  const core::ReplayReport stale = fixed.replay(epoch, series, false);
  EXPECT_EQ(stale.epochs, 1u);
  // Tracking the predictable pattern strictly reduces loss (Sec. VI).
  EXPECT_LE(segmented.mean_loss, stale.mean_loss);
}

}  // namespace
}  // namespace apple
