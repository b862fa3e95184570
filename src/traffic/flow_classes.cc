#include "traffic/flow_classes.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"

namespace apple::traffic {

namespace {

void check_assignment_args(std::size_t num_chains, double policied_fraction) {
  if (num_chains == 0) {
    throw std::invalid_argument("need at least one chain template");
  }
  if (policied_fraction < 0.0 || policied_fraction > 1.0) {
    throw std::invalid_argument("policied_fraction out of [0,1]");
  }
}

}  // namespace

ChainAssignment uniform_chain_assignment(std::size_t num_chains,
                                         std::uint64_t seed,
                                         double policied_fraction) {
  check_assignment_args(num_chains, policied_fraction);
  return [num_chains, seed,
          policied_fraction](net::NodeId src, net::NodeId dst) {
    const std::uint64_t h =
        detail::mix64((static_cast<std::uint64_t>(src) << 32) | (dst ^ seed));
    // Upper bits decide whether the pair is policied at all; lower bits
    // pick the chain, so the two decisions stay independent.
    const double coin =
        static_cast<double>(h >> 11) * 0x1.0p-53;
    if (coin >= policied_fraction) return ChainMix{};
    const ChainId chain = static_cast<ChainId>(detail::mix64(h) % num_chains);
    return ChainMix{{chain, 1.0}};
  };
}

ChainAssignment scaled_chain_assignment(std::size_t num_chains,
                                        std::size_t chains_per_pair,
                                        std::uint64_t seed,
                                        double policied_fraction) {
  check_assignment_args(num_chains, policied_fraction);
  if (chains_per_pair == 0) {
    throw std::invalid_argument("chains_per_pair must be at least 1");
  }
  // Chain ids are the class identity within a pair, so the fan-out must be
  // over *distinct* chains: a contiguous run of the catalog, wrapped.
  const std::size_t fan = std::min(chains_per_pair, num_chains);
  const double share = 1.0 / static_cast<double>(chains_per_pair);
  return [num_chains, fan, share, seed,
          policied_fraction](net::NodeId src, net::NodeId dst) {
    const std::uint64_t h =
        detail::mix64((static_cast<std::uint64_t>(src) << 32) | (dst ^ seed));
    const double coin = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (coin >= policied_fraction) return ChainMix{};
    const std::uint64_t start = detail::mix64(h) % num_chains;
    ChainMix mix;
    for (std::size_t k = 0; k < fan; ++k) {
      mix.push_back({static_cast<ChainId>((start + k) % num_chains), share});
    }
    return mix;
  };
}

std::vector<TrafficClass> build_classes(const net::Topology& topo,
                                        const net::AllPairsPaths& routing,
                                        const TrafficMatrix& tm,
                                        const ChainAssignment& chains_for,
                                        double min_rate_mbps) {
  if (tm.size() != topo.num_nodes()) {
    throw std::invalid_argument("traffic matrix size != topology size");
  }
  std::vector<TrafficClass> classes;
  ClassId next_id = 0;
  for (net::NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (net::NodeId d = 0; d < topo.num_nodes(); ++d) {
      if (s == d) continue;
      const double demand = tm.at(s, d);
      if (demand < min_rate_mbps) continue;
      const ChainMix mix = chains_for(s, d);
      for (const auto& [chain, share] : mix) {
        const double rate = demand * share;
        if (rate < min_rate_mbps) continue;
        auto path = routing.path(s, d);
        if (!path) continue;  // unreachable OD pair carries no traffic
        classes.push_back(TrafficClass{next_id++, s, d, std::move(*path),
                                       chain, rate});
      }
    }
  }
  APPLE_OBS_COUNT_N("traffic.classes.built", classes.size());
  return classes;
}

double total_rate(std::span<const TrafficClass> classes) {
  double sum = 0.0;
  for (const TrafficClass& c : classes) sum += c.rate_mbps;
  return sum;
}

}  // namespace apple::traffic
