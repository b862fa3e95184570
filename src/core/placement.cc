#include "core/placement.h"

#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace apple::core {

void PlacementInput::validate() const {
  if (topology == nullptr) {
    throw std::invalid_argument("placement input needs a topology");
  }
  for (const traffic::TrafficClass& cls : classes) {
    if (cls.path.empty()) {
      throw std::invalid_argument("class has an empty path");
    }
    for (const net::NodeId v : cls.path) {
      if (v >= topology->num_nodes()) {
        throw std::invalid_argument("class path references unknown switch");
      }
    }
    if (cls.chain_id >= chains.size()) {
      throw std::invalid_argument("class references unknown policy chain");
    }
    if (!std::isfinite(cls.rate_mbps)) {
      // NaN slips past the sign check below (every comparison is false) and
      // would corrupt the ILP right-hand sides.
      throw std::invalid_argument("class rate must be finite");
    }
    if (cls.rate_mbps < 0.0) {
      throw std::invalid_argument("class has negative rate");
    }
  }
}

std::uint64_t PlacementPlan::total_instances() const {
  std::uint64_t total = 0;
  for (const auto& per_switch : instance_count) {
    for (const std::uint32_t q : per_switch) total += q;
  }
  return total;
}

double PlacementPlan::total_cores() const {
  double cores = 0.0;
  for (const auto& per_switch : instance_count) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      cores += per_switch[n] *
               vnf::spec_of(static_cast<vnf::NfType>(n)).cores_required;
    }
  }
  APPLE_DCHECK(std::isfinite(cores));
  return cores;
}

std::string check_plan(const PlacementInput& input, const PlacementPlan& plan,
                       double tolerance) {
  input.validate();
  const net::Topology& topo = *input.topology;
  if (plan.instance_count.size() != topo.num_nodes()) {
    return "instance_count size mismatch";
  }
  if (plan.distribution.size() != input.classes.size()) {
    return "distribution size mismatch";
  }

  // Offered load per (switch, NF type), accumulated from d.
  std::vector<std::array<double, vnf::kNumNfTypes>> load(
      topo.num_nodes(), std::array<double, vnf::kNumNfTypes>{});
  // Per-stage running and total sums of d, reused across classes.
  std::vector<double> prefix;
  std::vector<double> total;

  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    const ClassDistribution& dist = plan.distribution[h];
    if (dist.positions() != cls.path.size()) {
      return "class " + std::to_string(h) + ": d positions != path length";
    }
    if (dist.stages() != chain.size()) {
      return "class " + std::to_string(h) + ": d stages != chain length";
    }
    prefix.assign(chain.size(), 0.0);
    total.assign(chain.size(), 0.0);
    for (std::size_t i = 0; i < cls.path.size(); ++i) {
      for (std::size_t j = 0; j < chain.size(); ++j) {
        const double d = dist(i, j);
        if (d < -tolerance || d > 1.0 + tolerance) {
          return "class " + std::to_string(h) + ": d out of [0,1] (Eq. 8)";
        }
        prefix[j] += d;
        total[j] += d;
        load[cls.path[i]][static_cast<std::size_t>(chain[j])] +=
            cls.rate_mbps * d;
      }
      // Precedence (Eq. 2-3): cumulative stage j <= cumulative stage j-1.
      for (std::size_t j = 1; j < chain.size(); ++j) {
        if (prefix[j] > prefix[j - 1] + tolerance) {
          return "class " + std::to_string(h) +
                 ": chain order violated at path index " + std::to_string(i) +
                 " (Eq. 3)";
        }
      }
    }
    // Completion (Eq. 4): every stage fully processed.
    for (std::size_t j = 0; j < chain.size(); ++j) {
      if (std::abs(total[j] - 1.0) > tolerance) {
        return "class " + std::to_string(h) + ": stage " + std::to_string(j) +
               " processes " + std::to_string(total[j]) + " != 1 (Eq. 4)";
      }
    }
  }

  // Capacity (Eq. 5) and resources (Eq. 6).
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    double cores = 0.0;
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const vnf::NfSpec& spec = vnf::spec_of(static_cast<vnf::NfType>(n));
      const double capacity = spec.capacity_mbps * plan.instance_count[v][n];
      if (load[v][n] > capacity + tolerance * std::max(1.0, capacity)) {
        return "switch " + std::to_string(v) + ": " +
               std::string(vnf::to_string(static_cast<vnf::NfType>(n))) +
               " overloaded (Eq. 5): " + std::to_string(load[v][n]) + " > " +
               std::to_string(capacity);
      }
      cores += spec.cores_required * plan.instance_count[v][n];
    }
    if (cores > topo.node(v).host_cores + tolerance) {
      return "switch " + std::to_string(v) + ": host resources exceeded (Eq. 6)";
    }
  }
  return {};
}

}  // namespace apple::core
