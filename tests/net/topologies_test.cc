#include "net/topologies.h"

#include <gtest/gtest.h>

#include <ostream>

#include "net/routing.h"

namespace apple::net {
namespace {

// The paper's evaluation topologies (Sec. IX-A) with their published sizes.
struct TopoCase {
  const char* label;
  Topology (*make)(double);
  std::size_t nodes;
  std::size_t links;
};

// gtest puts the printed parameter into each test's listed name. Its default
// printer dumps the struct's bytes, pointers included, so the name would
// change with every address-space layout; print the label instead.
void PrintTo(const TopoCase& tc, std::ostream* os) { *os << tc.label; }

class EvaluationTopologies : public ::testing::TestWithParam<TopoCase> {};

TEST_P(EvaluationTopologies, MatchesPublishedSize) {
  const TopoCase& tc = GetParam();
  const Topology t = tc.make(kDefaultHostCores);
  EXPECT_EQ(t.num_nodes(), tc.nodes) << tc.label;
  EXPECT_EQ(t.num_links(), tc.links) << tc.label;
}

TEST_P(EvaluationTopologies, IsConnected) {
  const Topology t = GetParam().make(kDefaultHostCores);
  EXPECT_TRUE(t.is_connected());
}

TEST_P(EvaluationTopologies, EveryNodeHasAppleHost) {
  const Topology t = GetParam().make(64.0);
  for (const Node& n : t.nodes()) {
    EXPECT_DOUBLE_EQ(n.host_cores, 64.0) << n.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paper, EvaluationTopologies,
    ::testing::Values(TopoCase{"Internet2", make_internet2, 12, 15},
                      TopoCase{"GEANT", make_geant, 23, 37},
                      TopoCase{"UNIV1", make_univ1, 23, 43},
                      TopoCase{"AS3679", make_as3679, 79, 147}),
    [](const auto& param_info) { return std::string(param_info.param.label); });

TEST(Internet2, HasAbileneBackboneShape) {
  const Topology t = make_internet2();
  // Spot-check well-known adjacencies.
  const NodeId chin = t.find_node("CHIN");
  const NodeId ipls = t.find_node("IPLS");
  const NodeId nycm = t.find_node("NYCM");
  ASSERT_NE(chin, kInvalidNode);
  EXPECT_TRUE(t.find_link(chin, ipls).has_value());
  EXPECT_TRUE(t.find_link(chin, nycm).has_value());
}

TEST(Univ1, TwoTierStructure) {
  const Topology t = make_univ1();
  const NodeId c1 = t.find_node("core-1");
  const NodeId c2 = t.find_node("core-2");
  ASSERT_NE(c1, kInvalidNode);
  ASSERT_NE(c2, kInvalidNode);
  EXPECT_TRUE(t.find_link(c1, c2).has_value());
  // Each core connects to all 21 edges plus the peer core.
  EXPECT_EQ(t.incident_links(c1).size(), 22u);
  EXPECT_EQ(t.incident_links(c2).size(), 22u);
  // Edge switches are exactly 2 hops apart (edge-core-edge).
  const AllPairsPaths apsp(t);
  const NodeId e1 = t.find_node("edge-1");
  const NodeId e2 = t.find_node("edge-2");
  EXPECT_DOUBLE_EQ(apsp.distance(e1, e2), 2.0);
}

TEST(As3679, Deterministic) {
  const Topology a = make_as3679();
  const Topology b = make_as3679();
  ASSERT_EQ(a.num_links(), b.num_links());
  for (std::size_t l = 0; l < a.num_links(); ++l) {
    EXPECT_EQ(a.link(static_cast<LinkId>(l)).a,
              b.link(static_cast<LinkId>(l)).a);
    EXPECT_EQ(a.link(static_cast<LinkId>(l)).b,
              b.link(static_cast<LinkId>(l)).b);
  }
}

TEST(SyntheticHelpers, Shapes) {
  EXPECT_EQ(make_line(6).num_links(), 5u);
  EXPECT_EQ(make_ring(6).num_links(), 6u);
  EXPECT_EQ(make_star(7).num_nodes(), 8u);
  EXPECT_EQ(make_star(7).num_links(), 7u);
  const Topology g = make_grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_links(), 3u * 3u + 2u * 4u);  // horizontal + vertical
  EXPECT_TRUE(g.is_connected());
}

TEST(SyntheticHelpers, RingRejectsTiny) {
  EXPECT_THROW(make_ring(2), std::invalid_argument);
}

TEST(PreferentialAttachment, ExactSizesAndConnected) {
  const Topology t = make_preferential_attachment(40, 90, 7);
  EXPECT_EQ(t.num_nodes(), 40u);
  EXPECT_EQ(t.num_links(), 90u);
  EXPECT_TRUE(t.is_connected());
}

TEST(PreferentialAttachment, RejectsInfeasibleLinkCount) {
  EXPECT_THROW(make_preferential_attachment(40, 10, 7),
               std::invalid_argument);
  EXPECT_THROW(make_preferential_attachment(2, 1, 7), std::invalid_argument);
}

}  // namespace
}  // namespace apple::net
