#include "baselines/pace.h"

#include <algorithm>
#include <cmath>

namespace apple::baseline {

PacePlacement place_pace(const core::PlacementInput& input) {
  input.validate();
  const net::Topology& topo = *input.topology;
  PacePlacement result;
  result.plan.strategy = "pace-vm-placement";
  result.plan.instance_count.assign(
      topo.num_nodes(), std::array<std::uint32_t, vnf::kNumNfTypes>{});
  result.plan.distribution.reserve(input.classes.size());

  std::vector<double> node_load(topo.num_nodes(), 0.0);
  std::vector<std::array<double, vnf::kNumNfTypes>> load(
      topo.num_nodes(), std::array<double, vnf::kNumNfTypes>{});

  const std::vector<net::NodeId> hosts = topo.host_nodes();
  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    core::ClassDistribution& d =
        result.plan.distribution.emplace_back(cls.path.size(), chain.size());
    for (std::size_t j = 0; j < chain.size(); ++j) {
      // Least-loaded host anywhere — chain order and path ignored.
      const net::NodeId host = *std::min_element(
          hosts.begin(), hosts.end(), [&](net::NodeId a, net::NodeId b) {
            return node_load[a] < node_load[b];
          });
      node_load[host] += cls.rate_mbps;
      load[host][static_cast<std::size_t>(chain[j])] += cls.rate_mbps;
      const auto on_path =
          std::find(cls.path.begin(), cls.path.end(), host);
      if (on_path == cls.path.end()) {
        ++result.off_path_stages;
      } else {
        d(static_cast<std::size_t>(on_path - cls.path.begin()), j) = 1.0;
      }
    }
  }
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const vnf::NfSpec& spec = vnf::spec_of(static_cast<vnf::NfType>(n));
      result.plan.instance_count[v][n] = static_cast<std::uint32_t>(
          std::ceil(load[v][n] / spec.capacity_mbps - 1e-9));
    }
  }
  result.plan.feasible = result.off_path_stages == 0;
  if (!result.plan.feasible) {
    result.plan.infeasibility_reason =
        "chain stages placed off-path: policy unenforceable without steering";
  }
  return result;
}

}  // namespace apple::baseline
