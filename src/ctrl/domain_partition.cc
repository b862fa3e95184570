#include "ctrl/domain_partition.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "common/check.h"
#include "obs/obs.h"

namespace apple::ctrl {

void DomainConfig::validate() const {
  if (num_domains == 0) {
    throw std::invalid_argument("DomainConfig.num_domains must be >= 1");
  }
}

bool DomainPartition::crosses_domains(
    std::span<const net::NodeId> path) const {
  if (path.empty()) return false;
  const std::uint32_t first = domain_of[path.front()];
  for (const net::NodeId v : path) {
    if (domain_of[v] != first) return true;
  }
  return false;
}

DomainPartition partition_topology(const net::Topology& topo,
                                   std::size_t num_domains,
                                   std::uint64_t seed) {
  const std::size_t n = topo.num_nodes();
  if (num_domains == 0) {
    throw std::invalid_argument("num_domains must be >= 1");
  }
  if (num_domains > n) {
    throw std::invalid_argument("num_domains exceeds node count");
  }

  DomainPartition part;
  part.num_domains = num_domains;
  constexpr std::uint32_t kUnassigned = static_cast<std::uint32_t>(-1);
  part.domain_of.assign(n, kUnassigned);

  // Seed nodes: rank every node by a SplitMix64 hash of (seed, id); the K
  // best ranks become domain 0..K-1's seeds. Ties (hash collisions) break
  // toward the lower node id, so the ranking is a total order.
  std::vector<net::NodeId> ranked(n);
  for (std::size_t v = 0; v < n; ++v) ranked[v] = static_cast<net::NodeId>(v);
  std::sort(ranked.begin(), ranked.end(),
            [seed](net::NodeId a, net::NodeId b) {
              const std::uint64_t ha =
                  traffic::detail::mix64(seed ^ (static_cast<std::uint64_t>(a) + 1));
              const std::uint64_t hb =
                  traffic::detail::mix64(seed ^ (static_cast<std::uint64_t>(b) + 1));
              if (ha != hb) return ha < hb;
              return a < b;
            });

  std::vector<std::deque<net::NodeId>> frontier(num_domains);
  for (std::size_t d = 0; d < num_domains; ++d) {
    part.domain_of[ranked[d]] = static_cast<std::uint32_t>(d);
    frontier[d].push_back(ranked[d]);
  }

  // Balanced growth: domains claim one node per round in domain-id order,
  // expanding their BFS frontier toward the smallest unassigned neighbor.
  // Link up/down state is ignored — the partition is structural, so a link
  // flap mid-run never re-homes a domain.
  std::size_t assigned = num_domains;
  bool progress = true;
  while (assigned < n && progress) {
    progress = false;
    for (std::size_t d = 0; d < num_domains && assigned < n; ++d) {
      while (!frontier[d].empty()) {
        const net::NodeId u = frontier[d].front();
        std::vector<net::NodeId> nbrs = topo.neighbors(u);
        std::sort(nbrs.begin(), nbrs.end());
        net::NodeId claimed = net::kInvalidNode;
        for (const net::NodeId v : nbrs) {
          if (part.domain_of[v] == kUnassigned) {
            claimed = v;
            break;
          }
        }
        if (claimed == net::kInvalidNode) {
          frontier[d].pop_front();  // exhausted; try the next frontier node
          continue;
        }
        part.domain_of[claimed] = static_cast<std::uint32_t>(d);
        frontier[d].push_back(claimed);
        ++assigned;
        progress = true;
        break;  // one claim per domain per round keeps growth balanced
      }
    }
  }

  // Nodes unreachable from every seed (disconnected components): spread
  // them by hash so the leftover load does not all pile onto domain 0.
  for (std::size_t v = 0; v < n; ++v) {
    if (part.domain_of[v] == kUnassigned) {
      part.domain_of[v] = static_cast<std::uint32_t>(
          traffic::detail::mix64(seed ^ (static_cast<std::uint64_t>(v) << 1)) %
          num_domains);
    }
  }

  part.members.resize(num_domains);
  for (std::size_t v = 0; v < n; ++v) {
    part.members[part.domain_of[v]].push_back(static_cast<net::NodeId>(v));
  }
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const net::Link& link = topo.link(static_cast<net::LinkId>(l));
    if (part.domain_of[link.a] != part.domain_of[link.b]) {
      part.cut_links.push_back(static_cast<net::LinkId>(l));
    }
  }
  APPLE_OBS_GAUGE_SET("ctrl.domain.cut_links",
                      static_cast<double>(part.cut_links.size()));
  return part;
}

std::vector<std::vector<std::size_t>> classes_by_domain(
    const DomainPartition& partition,
    std::span<const traffic::TrafficClass> classes) {
  std::vector<std::vector<std::size_t>> buckets(partition.num_domains);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    APPLE_CHECK_LT(classes[i].src, partition.domain_of.size());
    buckets[partition.home_domain(classes[i].src)].push_back(i);
  }
  return buckets;
}

}  // namespace apple::ctrl
