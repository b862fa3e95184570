#include "core/rule_generator.h"

#include <span>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"

namespace apple::core {

RuleGenerationReport RuleGenerator::account(
    const PlacementInput& input,
    const std::vector<std::vector<dataplane::SubclassPlan>>& subclasses,
    const net::AllPairsPaths* routing) const {
  if (subclasses.size() != input.classes.size()) {
    throw std::invalid_argument("subclass plans/classes size mismatch");
  }
  dataplane::TcamAccountant tagged(input.topology->num_nodes());
  dataplane::TcamAccountant untagged(input.topology->num_nodes());
  tagged.set_pipelined(pipelined_);
  untagged.set_pipelined(pipelined_);
  RuleGenerationReport report;
  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const net::NodeId ingress = cls.path.front();
    // Without tagging, classification rules sit on every switch the flow
    // can traverse: the ECMP union when routing is available, otherwise
    // the single installed path (read in place).
    std::vector<net::NodeId> ecmp_union;
    std::span<const net::NodeId> classify_at = cls.path;
    if (routing != nullptr) {
      ecmp_union = net::ecmp_node_union(*routing, input.topology->num_nodes(),
                                        cls.src, cls.dst);
      classify_at = ecmp_union;
    }
    for (const dataplane::SubclassPlan& plan : subclasses[h]) {
      tagged.add_tagged_subclass(plan, ingress);
      untagged.add_untagged_subclass(plan, classify_at);
      report.vswitch_rules += dataplane::vswitch_rules_for(plan);
    }
  }
  report.tcam_with_tagging = tagged.total();
  report.tcam_without_tagging = untagged.total();
  APPLE_OBS_COUNT("core.rules.generations");
  APPLE_OBS_GAUGE_SET("core.rules.last_tcam_with_tagging",
                      report.tcam_with_tagging);
  APPLE_OBS_GAUGE_SET("core.rules.last_tcam_without_tagging",
                      report.tcam_without_tagging);
  APPLE_OBS_GAUGE_SET("core.rules.last_vswitch_rules", report.vswitch_rules);
  return report;
}

void RuleGenerator::install(
    const PlacementInput& input,
    const std::vector<std::vector<dataplane::SubclassPlan>>& subclasses,
    const InstanceInventory& inventory, dataplane::DataPlane& dp) const {
  if (subclasses.size() != input.classes.size()) {
    throw std::invalid_argument("subclass plans/classes size mismatch");
  }
  for (net::NodeId v = 0; v < input.topology->num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const vnf::NfType type = static_cast<vnf::NfType>(n);
      for (const vnf::InstanceId id : inventory.by_node_type[v][n]) {
        dp.register_instance(vnf::VnfInstance{
            id, type, v, vnf::spec_of(type).capacity_mbps});
      }
    }
  }
  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    dp.install_class(input.classes[h], subclasses[h]);
  }
}

}  // namespace apple::core
