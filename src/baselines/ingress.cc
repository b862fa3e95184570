#include "baselines/ingress.h"

#include <cmath>
#include <string>

namespace apple::baseline {

core::PlacementPlan place_ingress(const core::PlacementInput& input,
                                  bool respect_resources) {
  input.validate();
  const net::Topology& topo = *input.topology;
  core::PlacementPlan plan;
  plan.strategy = "ingress-strawman";
  plan.instance_count.assign(topo.num_nodes(),
                             std::array<std::uint32_t, vnf::kNumNfTypes>{});
  plan.distribution.reserve(input.classes.size());

  // Per-(ingress, type) pooled load: classes sharing an ingress share its
  // instances, but every ingress must host at least one instance of every
  // NF type its classes need — the rounding APPLE's network-wide pooling
  // avoids (Sec. IX-D: "this benefit comes from the resource multiplexing
  // between different classes").
  std::vector<std::array<double, vnf::kNumNfTypes>> load(
      topo.num_nodes(), std::array<double, vnf::kNumNfTypes>{});
  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    core::ClassDistribution& d =
        plan.distribution.emplace_back(cls.path.size(), chain.size());
    for (std::size_t j = 0; j < chain.size(); ++j) {
      d(0, j) = 1.0;
      load[cls.path.front()][static_cast<std::size_t>(chain[j])] +=
          cls.rate_mbps;
    }
  }
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      if (load[v][n] <= 0.0) continue;
      const vnf::NfSpec& spec = vnf::spec_of(static_cast<vnf::NfType>(n));
      plan.instance_count[v][n] = static_cast<std::uint32_t>(
          std::ceil(load[v][n] / spec.capacity_mbps - 1e-9));
    }
  }
  if (respect_resources) {
    for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
      double cores = 0.0;
      for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
        cores += plan.instance_count[v][n] *
                 vnf::spec_of(static_cast<vnf::NfType>(n)).cores_required;
      }
      if (cores > topo.node(v).host_cores + 1e-9) {
        plan.feasible = false;
        plan.infeasibility_reason =
            "ingress host " + std::to_string(v) + " over core budget";
        return plan;
      }
    }
  }
  plan.feasible = true;
  return plan;
}

}  // namespace apple::baseline
