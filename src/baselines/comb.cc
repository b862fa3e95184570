#include "baselines/comb.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace apple::baseline {

CombPlacement place_comb(const core::PlacementInput& input) {
  input.validate();
  const net::Topology& topo = *input.topology;
  CombPlacement result;
  result.plan.strategy = "comb-consolidation";
  result.plan.instance_count.assign(
      topo.num_nodes(), std::array<std::uint32_t, vnf::kNumNfTypes>{});
  result.plan.distribution.reserve(input.classes.size());

  std::vector<double> node_load(topo.num_nodes(), 0.0);
  std::vector<std::array<double, vnf::kNumNfTypes>> load(
      topo.num_nodes(), std::array<double, vnf::kNumNfTypes>{});

  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    core::ClassDistribution& d =
        result.plan.distribution.emplace_back(cls.path.size(), chain.size());

    // Least-loaded host on the path hosts the consolidated box.
    std::size_t best = cls.path.size();
    for (std::size_t i = 0; i < cls.path.size(); ++i) {
      if (!topo.node(cls.path[i]).has_host()) continue;
      if (best == cls.path.size() ||
          node_load[cls.path[i]] < node_load[cls.path[best]]) {
        best = i;
      }
    }
    if (best == cls.path.size()) {
      throw std::runtime_error("class path has no APPLE host");
    }
    node_load[cls.path[best]] += cls.rate_mbps;
    for (std::size_t j = 0; j < chain.size(); ++j) {
      d(best, j) = 1.0;
      load[cls.path[best]][static_cast<std::size_t>(chain[j])] +=
          cls.rate_mbps;
    }
  }

  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const vnf::NfSpec& spec = vnf::spec_of(static_cast<vnf::NfType>(n));
      result.plan.instance_count[v][n] = static_cast<std::uint32_t>(
          std::ceil(load[v][n] / spec.capacity_mbps - 1e-9));
    }
  }
  result.plan.feasible = true;
  return result;
}

}  // namespace apple::baseline
