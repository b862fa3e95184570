// Differential oracle for the production LP engine. On the LP relaxations
// of random small placement ILPs (paper Sec. IV-D; IlpBuilder with
// integral_q = false) over random class subsets of Internet2 and GEANT,
// SimplexSolver — the revised sparse simplex — must agree with the dense
// tableau reference (lp::solve_dense) on status and, when optimal, on the
// objective within 1e-6 relative. That relaxation is the lower bound the
// lp-round strategy rounds and the optimality gap is measured against.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/ilp_builder.h"
#include "lp/simplex.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "traffic/flow_classes.h"
#include "traffic/synthesis.h"
#include "vnf/nf_types.h"

namespace apple::core {
namespace {

class RelaxationOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RelaxationOracle, RevisedMatchesDenseReference) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  const net::Topology topo =
      seed % 2 == 0 ? net::make_geant() : net::make_internet2();
  const net::AllPairsPaths routing(topo);
  const auto chains = vnf::default_policy_chains();
  std::uniform_real_distribution<double> load(2000.0, 12000.0);
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = load(rng), .seed = seed});
  std::vector<traffic::TrafficClass> classes = traffic::build_classes(
      topo, routing, tm,
      traffic::uniform_chain_assignment(chains.size(), seed));
  ASSERT_GE(classes.size(), 16u);
  std::shuffle(classes.begin(), classes.end(), rng);
  std::uniform_int_distribution<std::size_t> subset(4, 16);
  classes.resize(subset(rng));

  PlacementInput input;
  input.topology = &topo;
  input.classes = classes;
  input.chains = chains;
  const IlpBuilder builder(input, /*integral_q=*/false);
  const lp::LpModel& model = builder.model();

  const lp::LpSolution revised = lp::SimplexSolver().solve(model);
  const lp::LpSolution dense = lp::solve_dense(model);
  ASSERT_EQ(revised.status, dense.status)
      << topo.name() << " with " << classes.size() << " classes";
  if (dense.optimal()) {
    EXPECT_NEAR(revised.objective, dense.objective,
                1e-6 * std::max(1.0, std::abs(dense.objective)))
        << topo.name() << " with " << classes.size() << " classes";
    EXPECT_LE(model.max_violation(revised.x), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelaxationOracle,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace apple::core
