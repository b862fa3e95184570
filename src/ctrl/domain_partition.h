// Domain partitioner for the sharded multi-domain control plane
// (DESIGN.md §16): splits a net::Topology into K control domains with a
// seeded deterministic edge-cut, so K per-domain controllers can each run
// their own EpochPipeline over a slice of the class population.
//
// Determinism contract: the partition is a pure function of
// (topology structure, num_domains, seed). Seeds are chosen by ranking
// nodes under a SplitMix64 hash of (seed, node id); domains then grow by
// balanced round-robin BFS in domain-id order with neighbors visited in
// ascending node-id order, so two runs — and any two worker counts of the
// callers built on top — see byte-identical domain assignments.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.h"
#include "traffic/flow_classes.h"

namespace apple::ctrl {

struct DomainConfig {
  // Number of control domains K. Must be >= 1 and <= the node count of the
  // topology being partitioned (checked at partition time).
  std::size_t num_domains = 1;
  // Seed of the deterministic edge-cut.
  std::uint64_t seed = 0;

  // Throws std::invalid_argument when K is 0.
  void validate() const;
};

// A K-way node partition of a topology plus the induced edge cut.
struct DomainPartition {
  std::size_t num_domains = 1;
  // domain_of[v] = owning domain of node v; every node is assigned.
  std::vector<std::uint32_t> domain_of;
  // members[d] = node ids of domain d, ascending. Every domain of a
  // partition built by partition_topology is non-empty.
  std::vector<std::vector<net::NodeId>> members;
  // Link ids whose endpoints lie in different domains, ascending.
  std::vector<net::LinkId> cut_links;

  // Home-domain rule: a class belongs to the domain owning its ingress
  // node, so every policy request for one (src, dst) pair routes to one
  // controller regardless of where the path wanders.
  std::uint32_t home_domain(net::NodeId ingress) const {
    return domain_of[ingress];
  }

  // True when `path` visits nodes of more than one domain (a cross-domain
  // chain: its VNF instances may land outside the home domain).
  bool crosses_domains(std::span<const net::NodeId> path) const;
};

// Seeded deterministic edge-cut partition (see header comment). Throws
// std::invalid_argument when `num_domains` is 0 or exceeds the node count.
DomainPartition partition_topology(const net::Topology& topo,
                                   std::size_t num_domains,
                                   std::uint64_t seed);

// Buckets class indices by home domain: result[d] lists the indices i of
// `classes` with home_domain(classes[i].src) == d, in input order. The
// per-domain view of a class population every domain controller consumes.
std::vector<std::vector<std::size_t>> classes_by_domain(
    const DomainPartition& partition,
    std::span<const traffic::TrafficClass> classes);

}  // namespace apple::ctrl
