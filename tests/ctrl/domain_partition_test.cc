#include "ctrl/domain_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "net/topologies.h"

namespace apple::ctrl {
namespace {

TEST(DomainConfigTest, ValidateRejectsZeroDomains) {
  DomainConfig config;
  config.num_domains = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(DomainConfigTest, ValidateAcceptsDefaults) {
  EXPECT_NO_THROW(DomainConfig{}.validate());
  DomainConfig config;
  config.num_domains = 4;
  config.seed = 42;
  EXPECT_NO_THROW(config.validate());
}

TEST(DomainPartitionTest, SingleDomainOwnsEverything) {
  const net::Topology topo = net::make_internet2();
  const DomainPartition part = partition_topology(topo, 1, 0);
  EXPECT_EQ(part.num_domains, 1u);
  EXPECT_EQ(part.members[0].size(), topo.num_nodes());
  EXPECT_TRUE(part.cut_links.empty());
  for (const std::uint32_t d : part.domain_of) EXPECT_EQ(d, 0u);
}

TEST(DomainPartitionTest, RejectsDegenerateDomainCounts) {
  const net::Topology topo = net::make_internet2();
  EXPECT_THROW(partition_topology(topo, 0, 0), std::invalid_argument);
  EXPECT_THROW(partition_topology(topo, topo.num_nodes() + 1, 0),
               std::invalid_argument);
}

TEST(DomainPartitionTest, CoversEveryNodeWithNonEmptyDomains) {
  const net::Topology topo = net::make_geant();
  for (const std::size_t k : {2u, 4u, 7u}) {
    const DomainPartition part = partition_topology(topo, k, 1);
    ASSERT_EQ(part.domain_of.size(), topo.num_nodes());
    std::size_t covered = 0;
    for (std::size_t d = 0; d < k; ++d) {
      EXPECT_FALSE(part.members[d].empty()) << "domain " << d << " empty";
      EXPECT_TRUE(std::is_sorted(part.members[d].begin(),
                                 part.members[d].end()));
      for (const net::NodeId v : part.members[d]) {
        EXPECT_EQ(part.domain_of[v], d);
      }
      covered += part.members[d].size();
    }
    EXPECT_EQ(covered, topo.num_nodes());
  }
}

TEST(DomainPartitionTest, CutLinksAreExactlyTheCrossDomainLinks) {
  const net::Topology topo = net::make_internet2();
  const DomainPartition part = partition_topology(topo, 3, 5);
  std::set<net::LinkId> cut(part.cut_links.begin(), part.cut_links.end());
  EXPECT_EQ(cut.size(), part.cut_links.size()) << "duplicate cut link";
  EXPECT_TRUE(std::is_sorted(part.cut_links.begin(), part.cut_links.end()));
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const net::Link& link = topo.link(static_cast<net::LinkId>(l));
    const bool crosses =
        part.domain_of[link.a] != part.domain_of[link.b];
    EXPECT_EQ(cut.count(static_cast<net::LinkId>(l)) == 1, crosses);
  }
}

TEST(DomainPartitionTest, PureFunctionOfTopoDomainsAndSeed) {
  const net::Topology topo = net::make_geant();
  const DomainPartition a = partition_topology(topo, 4, 9);
  const DomainPartition b = partition_topology(topo, 4, 9);
  EXPECT_EQ(a.domain_of, b.domain_of);
  EXPECT_EQ(a.cut_links, b.cut_links);
  // A different seed re-ranks the seed nodes: the partition is allowed to
  // (and on GEANT does) differ.
  const DomainPartition c = partition_topology(topo, 4, 10);
  EXPECT_NE(a.domain_of, c.domain_of);
}

TEST(DomainPartitionTest, DomainsAreConnectedOnConnectedTopologies) {
  // BFS growth from one seed per domain keeps each domain connected when
  // the topology itself is connected.
  const net::Topology topo = net::make_internet2();
  const DomainPartition part = partition_topology(topo, 4, 3);
  for (std::size_t d = 0; d < part.num_domains; ++d) {
    const std::vector<net::NodeId>& members = part.members[d];
    std::set<net::NodeId> in_domain(members.begin(), members.end());
    std::set<net::NodeId> seen;
    std::vector<net::NodeId> stack{members.front()};
    seen.insert(members.front());
    while (!stack.empty()) {
      const net::NodeId u = stack.back();
      stack.pop_back();
      for (const net::NodeId v : topo.neighbors(u)) {
        if (in_domain.count(v) != 0 && seen.insert(v).second) {
          stack.push_back(v);
        }
      }
    }
    EXPECT_EQ(seen.size(), members.size()) << "domain " << d << " split";
  }
}

TEST(DomainPartitionTest, CrossesDomainsAndHomeDomain) {
  net::Topology topo("line");
  for (int i = 0; i < 4; ++i) topo.add_node("n" + std::to_string(i), 8.0);
  topo.add_link(0, 1);
  topo.add_link(1, 2);
  topo.add_link(2, 3);
  DomainPartition part;
  part.num_domains = 2;
  part.domain_of = {0, 0, 1, 1};
  part.members = {{0, 1}, {2, 3}};
  part.cut_links = {1};
  EXPECT_EQ(part.home_domain(1), 0u);
  EXPECT_EQ(part.home_domain(2), 1u);
  const std::vector<net::NodeId> local{0, 1};
  const std::vector<net::NodeId> crossing{0, 1, 2, 3};
  EXPECT_FALSE(part.crosses_domains(local));
  EXPECT_TRUE(part.crosses_domains(crossing));
}

TEST(DomainPartitionTest, ClassesBucketByIngressDomain) {
  net::Topology topo("pair");
  for (int i = 0; i < 4; ++i) topo.add_node("n" + std::to_string(i), 8.0);
  topo.add_link(0, 1);
  topo.add_link(1, 2);
  topo.add_link(2, 3);
  DomainPartition part;
  part.num_domains = 2;
  part.domain_of = {0, 0, 1, 1};
  part.members = {{0, 1}, {2, 3}};

  std::vector<traffic::TrafficClass> classes(3);
  classes[0].src = 0;
  classes[0].dst = 3;  // crosses, but homed at domain 0 (ingress rule)
  classes[1].src = 2;
  classes[1].dst = 3;
  classes[2].src = 1;
  classes[2].dst = 0;
  const auto buckets = classes_by_domain(part, classes);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(buckets[1], (std::vector<std::size_t>{1}));
}

}  // namespace
}  // namespace apple::ctrl
