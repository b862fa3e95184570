#include "traffic/flow_classes.h"

#include <gtest/gtest.h>

#include <set>

#include "net/topologies.h"
#include "traffic/class_store.h"
#include "traffic/stats.h"
#include "traffic/synthesis.h"

namespace apple::traffic {
namespace {

TEST(UniformChainAssignment, DeterministicAndInRange) {
  const auto assign = uniform_chain_assignment(4, 9);
  const auto a = assign(3, 7);
  const auto b = assign(3, 7);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a, b);
  EXPECT_LT(a[0].first, 4u);
  EXPECT_DOUBLE_EQ(a[0].second, 1.0);
}

TEST(UniformChainAssignment, RejectsZeroChains) {
  EXPECT_THROW(uniform_chain_assignment(0), std::invalid_argument);
}

TEST(ChainMix, SpillsPastInlineCapacityWithoutReordering) {
  ChainMix mix;
  constexpr std::size_t kCount = ChainMix::kInlineCapacity * 3;
  for (std::size_t i = 0; i < kCount; ++i) {
    mix.push_back({static_cast<ChainId>(i), 1.0 / kCount});
  }
  ASSERT_EQ(mix.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(mix[i].first, static_cast<ChainId>(i));
  }
  // Equality spans the inline/overflow boundary.
  ChainMix same;
  for (const auto& item : mix) same.push_back(item);
  EXPECT_EQ(mix, same);
}

TEST(ScaledChainAssignment, FansOutDistinctChainsWithEqualShares) {
  const auto assign = scaled_chain_assignment(32, 18, /*seed=*/5);
  const auto mix = assign(3, 7);
  ASSERT_EQ(mix.size(), 18u);
  std::set<ChainId> distinct;
  double total = 0.0;
  for (const auto& [chain, share] : mix) {
    EXPECT_LT(chain, 32u);
    EXPECT_DOUBLE_EQ(share, 1.0 / 18.0);
    distinct.insert(chain);
    total += share;
  }
  EXPECT_EQ(distinct.size(), 18u);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(assign(3, 7), mix);  // pure function of (src, dst)
}

TEST(ScaledChainAssignment, SingleChainMatchesUniformShape) {
  const auto scaled = scaled_chain_assignment(4, 1, /*seed=*/9, 0.5);
  const auto uniform = uniform_chain_assignment(4, /*seed=*/9, 0.5);
  for (net::NodeId s = 0; s < 16; ++s) {
    for (net::NodeId d = 0; d < 16; ++d) {
      if (s == d) continue;
      EXPECT_EQ(scaled(s, d), uniform(s, d)) << s << "->" << d;
    }
  }
}

TEST(ScaledChainAssignment, RejectsBadCatalogAndClampsFanOut) {
  EXPECT_THROW(scaled_chain_assignment(0, 1), std::invalid_argument);
  EXPECT_THROW(scaled_chain_assignment(4, 0), std::invalid_argument);
  // A fan-out wider than the catalog is clamped to distinct chains; each
  // still carries share 1/chains_per_pair (the remainder is unpolicied).
  const auto clamped = scaled_chain_assignment(4, 5);
  const auto mix = clamped(1, 2);
  ASSERT_EQ(mix.size(), 4u);
  double total = 0.0;
  for (const auto& [chain, share] : mix) total += share;
  EXPECT_NEAR(total, 4.0 / 5.0, 1e-12);
}

TEST(BuildClasses, OneClassPerActiveOdPair) {
  const net::Topology topo = net::make_line(4);
  const net::AllPairsPaths routing(topo);
  TrafficMatrix tm(4);
  tm.set(0, 3, 100.0);
  tm.set(1, 2, 50.0);
  const auto classes =
      build_classes(topo, routing, tm, uniform_chain_assignment(3));
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].src, 0u);
  EXPECT_EQ(classes[0].dst, 3u);
  EXPECT_EQ(classes[0].path, (net::Path{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(classes[0].rate_mbps, 100.0);
  EXPECT_EQ(classes[1].path, (net::Path{1, 2}));
}

TEST(BuildClasses, DropsTinyDemands) {
  const net::Topology topo = net::make_line(3);
  const net::AllPairsPaths routing(topo);
  TrafficMatrix tm(3);
  tm.set(0, 2, 1e-9);
  const auto classes =
      build_classes(topo, routing, tm, uniform_chain_assignment(2), 1e-3);
  EXPECT_TRUE(classes.empty());
}

TEST(BuildClasses, SplitsAcrossChains) {
  const net::Topology topo = net::make_line(3);
  const net::AllPairsPaths routing(topo);
  TrafficMatrix tm(3);
  tm.set(0, 2, 100.0);
  const ChainAssignment half_half = [](net::NodeId, net::NodeId) {
    return ChainMix{{0, 0.5}, {1, 0.5}};
  };
  const auto classes = build_classes(topo, routing, tm, half_half);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].chain_id, 0u);
  EXPECT_EQ(classes[1].chain_id, 1u);
  EXPECT_DOUBLE_EQ(classes[0].rate_mbps + classes[1].rate_mbps, 100.0);
}

TEST(BuildClasses, SizeMismatchThrows) {
  const net::Topology topo = net::make_line(3);
  const net::AllPairsPaths routing(topo);
  EXPECT_THROW(build_classes(topo, routing, TrafficMatrix(4),
                             uniform_chain_assignment(1)),
               std::invalid_argument);
}

TEST(BuildClasses, IdsAreDense) {
  const net::Topology topo = net::make_internet2();
  const net::AllPairsPaths routing(topo);
  const TrafficMatrix tm = make_gravity_matrix(topo.num_nodes(), {});
  const auto classes =
      build_classes(topo, routing, tm, uniform_chain_assignment(4));
  // Every OD pair active: 12*11 classes with dense ids.
  ASSERT_EQ(classes.size(), 132u);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    EXPECT_EQ(classes[i].id, static_cast<ClassId>(i));
  }
}

TEST(UpdateRates, TracksNewSnapshot) {
  const net::Topology topo = net::make_line(3);
  const net::AllPairsPaths routing(topo);
  TrafficMatrix tm(3);
  tm.set(0, 2, 100.0);
  const auto assign = uniform_chain_assignment(2);
  ClassStore store =
      build_class_store(build_classes(topo, routing, tm, assign));
  ASSERT_EQ(store.size(), 1u);
  TrafficMatrix tm2(3);
  tm2.set(0, 2, 40.0);
  update_rates(store, tm2, assign);
  const auto classes = store.materialize_view();
  EXPECT_DOUBLE_EQ(classes[0].rate_mbps, 40.0);
  // Path and identity unchanged.
  EXPECT_EQ(classes[0].id, 0u);
  EXPECT_EQ(classes[0].path, (net::Path{0, 1, 2}));
}

TEST(TotalRate, SumsClasses) {
  std::vector<TrafficClass> classes(3);
  classes[0].rate_mbps = 1.0;
  classes[1].rate_mbps = 2.5;
  classes[2].rate_mbps = 4.0;
  EXPECT_DOUBLE_EQ(total_rate(classes), 7.5);
}

// Property: aggregated traffic is smoother than its parts (Sec. IV-A).
TEST(Aggregation, ReducesCoefficientOfVariation) {
  const TrafficMatrix base = make_gravity_matrix(8, {});
  DiurnalConfig cfg;
  cfg.num_snapshots = 300;
  cfg.diurnal_amplitude = 0.0;  // isolate stochastic noise
  cfg.noise_sigma = 0.4;
  const auto series = make_diurnal_series(base, cfg);
  // Per-OD CoV vs network-aggregate CoV.
  std::vector<double> od01, aggregate;
  for (const auto& tm : series) {
    od01.push_back(tm.at(0, 1));
    aggregate.push_back(tm.total());
  }
  EXPECT_LT(coefficient_of_variation(aggregate),
            coefficient_of_variation(od01));
}

}  // namespace
}  // namespace apple::traffic
