#include "baselines/steering.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace apple::baseline {

SteeringPlacement place_steering(const core::PlacementInput& input,
                                 const net::AllPairsPaths& routing,
                                 const SteeringConfig& config) {
  input.validate();
  const net::Topology& topo = *input.topology;
  if (config.num_nf_sites == 0 || config.num_nf_sites > topo.num_nodes()) {
    throw std::invalid_argument("bad number of NF sites");
  }

  // Fixed NF sites: the highest-degree switches (middleboxes near the
  // network core, the classic hardware deployment).
  std::vector<net::NodeId> nodes(topo.num_nodes());
  std::iota(nodes.begin(), nodes.end(), 0);
  std::sort(nodes.begin(), nodes.end(), [&](net::NodeId a, net::NodeId b) {
    const auto da = topo.incident_links(a).size();
    const auto db = topo.incident_links(b).size();
    return da != db ? da > db : a < b;
  });
  const std::vector<net::NodeId> sites(
      nodes.begin(),
      nodes.begin() + static_cast<std::ptrdiff_t>(config.num_nf_sites));

  SteeringPlacement result;
  result.plan.strategy = "traffic-steering";
  result.plan.instance_count.assign(
      topo.num_nodes(), std::array<std::uint32_t, vnf::kNumNfTypes>{});
  result.plan.distribution.reserve(input.classes.size());
  result.new_paths.resize(input.classes.size());

  std::vector<std::array<double, vnf::kNumNfTypes>> load(
      topo.num_nodes(), std::array<double, vnf::kNumNfTypes>{});

  double stretch_sum = 0.0;
  std::size_t measured = 0;
  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);

    // Assign each stage to the least-loaded site for its type, then steer
    // src -> site_1 -> ... -> site_k -> dst along shortest segments.
    net::Path steered{cls.src};
    net::NodeId cursor = cls.src;
    for (const vnf::NfType type : chain) {
      const std::size_t n = static_cast<std::size_t>(type);
      const net::NodeId site = *std::min_element(
          sites.begin(), sites.end(), [&](net::NodeId a, net::NodeId b) {
            return load[a][n] < load[b][n];
          });
      load[site][n] += cls.rate_mbps;
      if (site != cursor) {
        const auto segment = routing.path(cursor, site);
        if (!segment) throw std::runtime_error("disconnected steering site");
        steered.insert(steered.end(), segment->begin() + 1, segment->end());
        cursor = site;
      }
    }
    if (cursor != cls.dst) {
      const auto tail = routing.path(cursor, cls.dst);
      if (!tail) throw std::runtime_error("disconnected destination");
      steered.insert(steered.end(), tail->begin() + 1, tail->end());
    }
    result.new_paths[h] = steered;
    if (steered != cls.path) ++result.classes_rerouted;
    if (net::hop_count(cls.path) > 0) {
      stretch_sum += static_cast<double>(steered.size() - 1) /
                     static_cast<double>(cls.path.size() - 1);
      ++measured;
    }

    // Distribution bookkeeping is kept against the *original* path for
    // compatibility; steering enforces chains on the steered path instead,
    // so the d-matrix is left empty on purpose.
    result.plan.distribution.emplace_back(cls.path.size(), chain.size());
  }
  result.mean_path_stretch =
      measured > 0 ? stretch_sum / static_cast<double>(measured) : 1.0;

  for (const net::NodeId site : sites) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const vnf::NfSpec& spec = vnf::spec_of(static_cast<vnf::NfType>(n));
      result.plan.instance_count[site][n] = static_cast<std::uint32_t>(
          std::ceil(load[site][n] / spec.capacity_mbps - 1e-9));
    }
  }
  result.plan.feasible = true;
  return result;
}

}  // namespace apple::baseline
