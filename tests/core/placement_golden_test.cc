// Golden-output pin for the greedy and lp-round placement paths, the
// sub-class assigner and the LP relaxation. Each placement case hashes
// (FNV-1a, 64-bit):
//
//   * instance_count, switch-major;
//   * the bit pattern of every d^i_{h,j}, in (class, position, stage) order;
//   * every sub-class of assign_subclasses over a materialized inventory:
//     class id, sub-class id, weight bits, classifier rules, itinerary.
//
// Each relaxation case hashes the bit pattern of every x_v, the objective's
// bits and the pivot count of one SimplexSolver solve of the Sec. IV-D LP.
//
// Any reordering of floating-point operations in the water-fill, the
// consolidation search, the decomposition or the simplex's basis
// factorization changes a bit somewhere and fails the test, so a rewrite of
// those paths must reproduce these plans exactly. The constants pin x86-64
// IEEE doubles and libstdc++'s std::sort (the most-constrained-first order
// breaks ties by sort position); another platform or standard library may
// legitimately produce other plans.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/epoch_pipeline.h"
#include "core/ilp_builder.h"
#include "core/optimization_engine.h"
#include "core/subclass_assigner.h"
#include "lp/simplex.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "traffic/class_store.h"
#include "traffic/synthesis.h"

namespace apple::core {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_double(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// d^i_{h,j} through whichever accessor ClassDistribution offers, so this
// file builds against both the nested-row and the flat row-major layout and
// can pin one against the other.
template <typename Distribution>
double d_at(const Distribution& dist, std::size_t i, std::size_t j) {
  if constexpr (requires { dist(i, j); }) {
    return dist(i, j);
  } else {
    return dist.fraction.at(i).at(j);
  }
}

std::uint64_t plan_hash(const PlacementInput& input, const PlacementPlan& plan) {
  Fnv1a fp;
  for (const auto& per_switch : plan.instance_count) {
    for (const std::uint32_t q : per_switch) fp.add(q);
  }
  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const std::size_t positions = input.classes[h].path.size();
    const std::size_t stages = input.chain_of(input.classes[h]).size();
    for (std::size_t i = 0; i < positions; ++i) {
      for (std::size_t j = 0; j < stages; ++j) {
        fp.add_double(d_at(plan.distribution[h], i, j));
      }
    }
  }
  const InstanceInventory inventory = materialize_inventory(input, plan);
  for (const auto& subs : assign_subclasses(input, plan, inventory)) {
    fp.add(subs.size());
    for (const dataplane::SubclassPlan& sub : subs) {
      fp.add(sub.class_id);
      fp.add(sub.subclass_id);
      fp.add_double(sub.weight);
      fp.add(sub.classifier_prefix_rules);
      fp.add(sub.itinerary.size());
      for (const dataplane::HostVisit& visit : sub.itinerary) {
        fp.add(visit.at_switch);
        fp.add(visit.instances.size());
        for (const vnf::InstanceId id : visit.instances) fp.add(id);
      }
    }
  }
  return fp.value();
}

PlacementPlan place_checked(PlacementStrategy strategy,
                            const PlacementInput& input) {
  EngineOptions options;
  options.strategy = strategy;
  PlacementPlan plan = OptimizationEngine(options).place(input);
  EXPECT_TRUE(plan.feasible) << plan.infeasibility_reason;
  EXPECT_EQ(check_plan(input, plan), "");
  return plan;
}

// A backbone epoch: default chains on every OD pair of a gravity matrix.
struct Backbone {
  const net::Topology* topo = nullptr;
  std::vector<vnf::PolicyChain> chains;
  std::vector<traffic::TrafficClass> classes;

  PlacementInput input() const { return {topo, classes, chains}; }
};

Backbone make_backbone(const net::Topology& topo, double total_mbps) {
  const net::AllPairsPaths routing(topo);
  Backbone b;
  b.topo = &topo;
  b.chains.assign(vnf::default_policy_chains().begin(),
                  vnf::default_policy_chains().end());
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = total_mbps, .seed = 3});
  b.classes = traffic::build_classes(
      topo, routing, tm, traffic::uniform_chain_assignment(b.chains.size()));
  return b;
}

std::uint64_t backbone_hash(const net::Topology& topo,
                            PlacementStrategy strategy, double total_mbps,
                            std::uint64_t* instances) {
  const Backbone b = make_backbone(topo, total_mbps);
  const PlacementInput input = b.input();
  const PlacementPlan plan = place_checked(strategy, input);
  *instances = plan.total_instances();
  return plan_hash(input, plan);
}

// One revised-simplex solve of the backbone epoch's LP relaxation.
std::uint64_t relaxation_hash(const net::Topology& topo,
                              std::size_t* iterations) {
  const Backbone b = make_backbone(topo, 12000.0);
  const IlpBuilder builder(b.input(), /*integral_q=*/false);
  const lp::LpSolution sol = lp::SimplexSolver().solve(builder.model());
  EXPECT_TRUE(sol.optimal());
  EXPECT_EQ(sol.x.size(), builder.model().num_vars());
  Fnv1a fp;
  for (const double v : sol.x) fp.add_double(v);
  fp.add_double(sol.objective);
  fp.add(sol.iterations);
  *iterations = sol.iterations;
  return fp.value();
}

TEST(PlacementGolden, GreedyInternet2) {
  std::uint64_t instances = 0;
  const std::uint64_t hash = backbone_hash(
      net::make_internet2(), PlacementStrategy::kGreedy, 12000.0, &instances);
  EXPECT_EQ(instances, 55u);
  EXPECT_EQ(hash, 0x9b824608e7660e5bULL);
}

TEST(PlacementGolden, GreedyGeant) {
  std::uint64_t instances = 0;
  const std::uint64_t hash = backbone_hash(
      net::make_geant(), PlacementStrategy::kGreedy, 12000.0, &instances);
  EXPECT_EQ(instances, 80u);
  EXPECT_EQ(hash, 0x88d34b44f1b736d9ULL);
}

TEST(PlacementGolden, LpRoundGeant) {
  std::uint64_t instances = 0;
  const std::uint64_t hash = backbone_hash(
      net::make_geant(), PlacementStrategy::kLpRound, 12000.0, &instances);
  EXPECT_EQ(instances, 78u);
  EXPECT_EQ(hash, 0x5810674ce67a0b6bULL);
}

TEST(PlacementGolden, RelaxationInternet2) {
  std::size_t iterations = 0;
  const std::uint64_t hash =
      relaxation_hash(net::make_internet2(), &iterations);
  EXPECT_EQ(iterations, 405u);
  EXPECT_EQ(hash, 0xea423d867d24a09aULL);
}

TEST(PlacementGolden, RelaxationGeant) {
  std::size_t iterations = 0;
  const std::uint64_t hash = relaxation_hash(net::make_geant(), &iterations);
  EXPECT_EQ(iterations, 1435u);
  EXPECT_EQ(hash, 0xe69057b4ec0a9474ULL);
}

TEST(PlacementGolden, RelaxationUniv1) {
  std::size_t iterations = 0;
  const std::uint64_t hash = relaxation_hash(net::make_univ1(), &iterations);
  EXPECT_EQ(iterations, 1435u);
  EXPECT_EQ(hash, 0x44df97bb50243534ULL);
}

// The 100k-class control-loop inputs: AS-3679 with 128-core hosts, 32
// catalog chains fanned out 18 per OD pair, a 20 Gbps gravity matrix
// brought up at its 0.5 diurnal trough. The greedy places it from scratch,
// then re-places it incrementally after one seeded diurnal snapshot.
TEST(PlacementGolden, GreedyAs3679PlaceThenReplace) {
  const net::Topology topo = net::make_as3679(128.0);
  const net::AllPairsPaths routing(topo);
  const std::vector<vnf::PolicyChain> chains = vnf::scaled_policy_chains(32);
  const traffic::ChainAssignment assignment =
      traffic::scaled_chain_assignment(32, 18, /*seed=*/0,
                                       /*policied_fraction=*/1.0);
  const traffic::TrafficMatrix base = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = 20000.0, .seed = 1});
  traffic::DiurnalConfig diurnal;
  diurnal.num_snapshots = 2;
  diurnal.diurnal_amplitude = 0.5;
  diurnal.noise_sigma = 0.05;
  diurnal.seed = 11;
  const std::vector<traffic::TrafficMatrix> series =
      traffic::make_diurnal_series(base, diurnal);
  traffic::TrafficMatrix trough = base;
  trough.scale(0.5);

  const traffic::ClassStore prev_store =
      traffic::build_class_store(topo, routing, trough, assignment);
  const std::vector<traffic::TrafficClass> prev_classes =
      prev_store.materialize_view();
  ASSERT_EQ(prev_classes.size(), 110916u);
  const PlacementInput prev_input{&topo, prev_classes, chains};
  const PlacementPlan prev =
      place_checked(PlacementStrategy::kGreedy, prev_input);
  EXPECT_EQ(prev.total_instances(), 136u);
  EXPECT_EQ(plan_hash(prev_input, prev), 0xc4fda098184e620fULL);

  const traffic::ClassStore next_store =
      traffic::build_class_store(topo, routing, series[1], assignment);
  const ClassDelta delta = diff_classes(prev_store, next_store);
  const std::vector<traffic::TrafficClass> next_classes =
      next_store.materialize_view();
  const PlacementInput next_input{&topo, next_classes, chains};
  const PlacementPlan next = OptimizationEngine().replace(next_input, prev, delta);
  ASSERT_TRUE(next.feasible) << next.infeasibility_reason;
  EXPECT_EQ(check_plan(next_input, next), "");
  EXPECT_EQ(delta.dirty_count(), 37080u);
  EXPECT_EQ(next.total_instances(), 139u);
  EXPECT_EQ(plan_hash(next_input, next), 0xa8b64cfbcf841ab9ULL);
}

}  // namespace
}  // namespace apple::core
