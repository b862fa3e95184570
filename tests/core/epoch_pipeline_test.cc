#include "core/epoch_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "dataplane/data_plane.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "traffic/synthesis.h"

namespace apple::core {
namespace {

using vnf::NfType;

PipelineOptions options_for(PlacementStrategy strategy,
                            double threshold = 0.05) {
  PipelineOptions options;
  options.engine.strategy = strategy;
  options.delta.rate_change_threshold = threshold;
  return options;
}

PlacementInput make_input(const net::Topology& topo,
                          const std::vector<traffic::TrafficClass>& classes,
                          const std::vector<vnf::PolicyChain>& chains) {
  PlacementInput input;
  input.topology = &topo;
  input.classes = classes;
  input.chains = chains;
  return input;
}

// Line 0-1-2 with the APPLE host only at the middle switch, so instance
// locations (and hence churn counts) are fully determined.
net::Topology middle_host_line() {
  net::Topology topo = net::make_line(3, 64.0);
  topo.node(0).host_cores = 0.0;
  topo.node(2).host_cores = 0.0;
  return topo;
}

// Structural equality of two data planes: same classes with the same
// sub-class plans, same registered instances.
void expect_same_dataplane(const dataplane::DataPlane& a,
                           const dataplane::DataPlane& b,
                           const InstanceInventory& inventory) {
  ASSERT_EQ(a.class_ids(), b.class_ids());
  for (const traffic::ClassId id : a.class_ids()) {
    const auto& pa = a.plans_of(id);
    const auto& pb = b.plans_of(id);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t s = 0; s < pa.size(); ++s) {
      EXPECT_EQ(pa[s].subclass_id, pb[s].subclass_id);
      EXPECT_NEAR(pa[s].weight, pb[s].weight, 1e-9);
      ASSERT_EQ(pa[s].itinerary.size(), pb[s].itinerary.size());
      for (std::size_t i = 0; i < pa[s].itinerary.size(); ++i) {
        EXPECT_EQ(pa[s].itinerary[i].at_switch, pb[s].itinerary[i].at_switch);
        EXPECT_EQ(pa[s].itinerary[i].instances, pb[s].itinerary[i].instances);
      }
    }
    EXPECT_EQ(a.path_of(id), b.path_of(id));
  }
  EXPECT_EQ(a.num_instances(), b.num_instances());
  for (const auto& per_type : inventory.by_node_type) {
    for (const auto& bucket : per_type) {
      for (const vnf::InstanceId id : bucket) {
        EXPECT_TRUE(a.has_instance(id));
        EXPECT_TRUE(b.has_instance(id));
      }
    }
  }
}

// Installs an epoch into a data plane from scratch (the non-incremental
// reference the delta-patched state must match).
void install_epoch(const Epoch& epoch, dataplane::DataPlane& dp) {
  for (net::NodeId v = 0; v < epoch.inventory.by_node_type.size(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      for (const vnf::InstanceId id : epoch.inventory.by_node_type[v][n]) {
        dp.register_instance(vnf::VnfInstance{
            id, static_cast<NfType>(n), v,
            vnf::spec_of(static_cast<NfType>(n)).capacity_mbps});
      }
    }
  }
  for (std::size_t h = 0; h < epoch.classes.size(); ++h) {
    dp.install_class(epoch.classes[h], epoch.subclasses[h]);
  }
}

// A hand-built class list as the one-shard store the pipeline takes: same
// order, same ids.
traffic::ClassStore store_of(
    const std::vector<traffic::TrafficClass>& classes) {
  return traffic::build_class_store(classes);
}

// Reference matcher the store diff is pinned to: a class matches the first
// prev class with its (src, dst, chain) key, and only when their paths are
// equal (a reroute is remove + add); a matched class whose rate drifted
// more than the threshold is rate-changed, otherwise pinned.
ClassDelta keyed_diff(std::span<const traffic::TrafficClass> prev,
                      std::span<const traffic::TrafficClass> next,
                      const ClassDeltaOptions& options = {}) {
  std::map<std::array<std::uint64_t, 3>, std::size_t> index;
  for (std::size_t p = 0; p < prev.size(); ++p) {
    index.emplace(std::array<std::uint64_t, 3>{prev[p].src, prev[p].dst,
                                               prev[p].chain_id},
                  p);
  }
  ClassDelta delta;
  delta.prev_of.assign(next.size(), kNoClass);
  std::vector<bool> matched(prev.size(), false);
  for (std::size_t h = 0; h < next.size(); ++h) {
    const traffic::TrafficClass& cls = next[h];
    const auto it = index.find({cls.src, cls.dst, cls.chain_id});
    if (it == index.end() || prev[it->second].path != cls.path) {
      delta.added.push_back(h);
      continue;
    }
    const std::size_t p = it->second;
    matched[p] = true;
    delta.prev_of[h] = p;
    const double prev_rate = prev[p].rate_mbps;
    const double base = std::max(std::abs(prev_rate), options.zero_rate_mbps);
    if (std::abs(cls.rate_mbps - prev_rate) / base >
        options.rate_change_threshold) {
      delta.rate_changed.push_back(h);
    } else {
      delta.unchanged.push_back(h);
    }
  }
  for (std::size_t p = 0; p < prev.size(); ++p) {
    if (!matched[p]) delta.removed.push_back(p);
  }
  return delta;
}

void expect_same_buckets(const ClassDelta& store, const ClassDelta& oracle) {
  EXPECT_EQ(store.added, oracle.added);
  EXPECT_EQ(store.removed, oracle.removed);
  EXPECT_EQ(store.rate_changed, oracle.rate_changed);
  EXPECT_EQ(store.unchanged, oracle.unchanged);
  EXPECT_EQ(store.prev_of, oracle.prev_of);
}

// Diffs two hand-built class lists as one-shard stores (which keep the
// lists' order, so indices are list indices) and checks the result against
// the keyed oracle.
ClassDelta diff_lists(const std::vector<traffic::TrafficClass>& prev,
                      const std::vector<traffic::TrafficClass>& next,
                      const ClassDeltaOptions& options = {}) {
  const ClassDelta delta =
      diff_classes(traffic::build_class_store(prev),
                   traffic::build_class_store(next), options);
  expect_same_buckets(delta, keyed_diff(prev, next, options));
  EXPECT_EQ(delta.shards_dirty + delta.shards_clean, 1u);
  return delta;
}

TEST(DiffClasses, ClassifiesAddedRemovedChangedPinned) {
  std::vector<traffic::TrafficClass> prev(3);
  prev[0] = {2, 0, 1, {0, 1}, 1, 50.0};       // removed
  prev[1] = {0, 0, 2, {0, 1, 2}, 0, 100.0};   // survives, small drift
  prev[2] = {1, 1, 2, {1, 2}, 0, 200.0};      // survives, large drift
  std::vector<traffic::TrafficClass> next(3);
  next[0] = {0, 0, 2, {0, 1, 2}, 0, 102.0};   // 2% drift -> pinned
  next[1] = {1, 1, 2, {1, 2}, 0, 300.0};      // 50% drift -> dirty
  next[2] = {9, 2, 0, {2, 1, 0}, 1, 75.0};    // new identity -> added

  const ClassDelta delta =
      diff_lists(prev, next, {.rate_change_threshold = 0.05});
  EXPECT_EQ(delta.unchanged, (std::vector<std::size_t>{0}));
  EXPECT_EQ(delta.rate_changed, (std::vector<std::size_t>{1}));
  EXPECT_EQ(delta.added, (std::vector<std::size_t>{2}));
  EXPECT_EQ(delta.removed, (std::vector<std::size_t>{0}));
  EXPECT_EQ(delta.prev_of,
            (std::vector<std::size_t>{1, 2, kNoClass}));
  EXPECT_EQ(delta.dirty_count(), 2u);
  EXPECT_FALSE(delta.empty());
}

TEST(DiffClasses, ReroutedClassIsRemovePlusAdd) {
  std::vector<traffic::TrafficClass> prev(1);
  prev[0] = {0, 0, 2, {0, 1, 2}, 0, 100.0};
  std::vector<traffic::TrafficClass> next(1);
  next[0] = {0, 0, 2, {0, 2}, 0, 100.0};  // same identity, new path

  const ClassDelta delta = diff_lists(prev, next);
  EXPECT_EQ(delta.added, (std::vector<std::size_t>{0}));
  EXPECT_EQ(delta.removed, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(delta.unchanged.empty());
}

TEST(DiffClasses, ThresholdZeroMarksAnyDriftDirty) {
  std::vector<traffic::TrafficClass> prev(1);
  prev[0] = {0, 0, 2, {0, 1, 2}, 0, 100.0};
  std::vector<traffic::TrafficClass> next(1);
  next[0] = {0, 0, 2, {0, 1, 2}, 0, 100.0001};

  EXPECT_EQ(diff_lists(prev, next, {.rate_change_threshold = 0.0})
                .rate_changed.size(),
            1u);
  EXPECT_EQ(diff_lists(prev, next).unchanged.size(), 1u);
}

// Store-based diff scenario: Internet2 gravity traffic in an 8-shard store,
// with the perturbation confined to the OD pairs of shard 0.
struct StoreScenario {
  net::Topology topo = net::make_internet2(64.0);
  net::AllPairsPaths routing{topo};
  traffic::TrafficMatrix base =
      traffic::make_gravity_matrix(topo.num_nodes(), {.total_mbps = 4000.0});
  traffic::ChainAssignment assign = traffic::uniform_chain_assignment(2, 3);
  traffic::StoreBuildOptions opt{.num_shards = 8};

  traffic::ClassStore build(const traffic::TrafficMatrix& tm) const {
    return traffic::build_class_store(topo, routing, tm, assign, opt);
  }
  traffic::TrafficMatrix perturbed_shard0() const {
    traffic::TrafficMatrix moved = base;
    for (net::NodeId s = 0; s < topo.num_nodes(); ++s) {
      for (net::NodeId d = 0; d < topo.num_nodes(); ++d) {
        if (s != d && traffic::ClassStore::shard_of(s, d, 8) == 0) {
          moved.set(s, d, base.at(s, d) * 1.5);
        }
      }
    }
    return moved;
  }
};

TEST(DiffClassesStore, MatchesFlatDiffBucketForBucket) {
  const StoreScenario sc;
  const traffic::ClassStore prev = sc.build(sc.base);
  const traffic::ClassStore next = sc.build(sc.perturbed_shard0());

  const ClassDelta sharded = diff_classes(prev, next);
  expect_same_buckets(
      sharded, keyed_diff(prev.materialize_view(), next.materialize_view()));
  // Only the one shard whose traffic moved is diffed class by class.
  EXPECT_EQ(sharded.shards_dirty, 1u);
  EXPECT_EQ(sharded.shards_clean, 7u);
  EXPECT_FALSE(sharded.rate_changed.empty());
}

// Prev and next differ inside OD pairs, not only in rates: a second chain
// assignment drops and adds chains on a third of the pairs, a link down in
// next's routing reroutes every pair that crossed it, and some mixes name
// one chain twice. The store diff must still match the keyed oracle bucket
// for bucket.
TEST(DiffClassesStore, MatchesFlatDiffWhenPairsChangeChainsAndRoutes) {
  const StoreScenario sc;
  const traffic::ChainAssignment before = [](net::NodeId s, net::NodeId d) {
    const traffic::ChainId k = (7 * s + d) % 4;
    traffic::ChainMix mix{{k, 0.5}, {(k + 1) % 4, 0.3}};
    if ((s + d) % 5 == 0) mix.push_back({k, 0.2});  // chain k named twice
    return mix;
  };
  const traffic::ChainAssignment after = [&before](net::NodeId s,
                                                   net::NodeId d) {
    if ((s + 2 * d) % 3 != 0) return before(s, d);
    // Chain k dropped, chain k + 2 added, chain k + 1 named twice.
    const traffic::ChainId k = (7 * s + d) % 4;
    return traffic::ChainMix{
        {(k + 1) % 4, 0.3}, {(k + 2) % 4, 0.5}, {(k + 1) % 4, 0.1}};
  };
  net::Topology cut = sc.topo;
  cut.set_link_state(0, false);
  const net::AllPairsPaths rerouted(cut);
  const traffic::ClassStore prev = traffic::build_class_store(
      sc.topo, sc.routing, sc.base, before, sc.opt);
  const traffic::ClassStore next = traffic::build_class_store(
      cut, rerouted, sc.perturbed_shard0(), after, sc.opt);

  const ClassDelta sharded = diff_classes(prev, next);
  expect_same_buckets(
      sharded, keyed_diff(prev.materialize_view(), next.materialize_view()));
  EXPECT_EQ(sharded.shards_dirty, 8u);
  // Every bucket is exercised, and some next classes share a prev class
  // (the duplicated chain of an unchanged pair).
  EXPECT_FALSE(sharded.added.empty());
  EXPECT_FALSE(sharded.removed.empty());
  EXPECT_FALSE(sharded.rate_changed.empty());
  EXPECT_FALSE(sharded.unchanged.empty());
  std::vector<std::size_t> matched;
  for (const std::size_t p : sharded.prev_of) {
    if (p != kNoClass) matched.push_back(p);
  }
  std::sort(matched.begin(), matched.end());
  EXPECT_NE(std::adjacent_find(matched.begin(), matched.end()),
            matched.end());
}

TEST(DiffClassesStore, IdenticalStoresAreAllCleanShards) {
  const StoreScenario sc;
  const traffic::ClassStore prev = sc.build(sc.base);
  const traffic::ClassStore next = sc.build(sc.base);
  const ClassDelta delta = diff_classes(prev, next);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.shards_clean, 8u);
  EXPECT_EQ(delta.shards_dirty, 0u);
  EXPECT_EQ(delta.unchanged.size(), prev.size());
}

// run(store) is place + assemble_epoch over the store's view, the path a
// caller that places the view itself takes (and then sets `store`).
TEST(EpochPipeline, StoreRunMatchesFlatRun) {
  const StoreScenario sc;
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall},
                                             {NfType::kNat, NfType::kIds}};
  traffic::ClassStore store = sc.build(sc.base);
  const EpochPipeline pipeline(options_for(PlacementStrategy::kGreedy));
  std::vector<traffic::TrafficClass> view = store.materialize_view();
  PlacementPlan plan =
      OptimizationEngine(pipeline.options().engine)
          .place(make_input(sc.topo, view, chains));
  const Epoch flat = pipeline.assemble_epoch(sc.topo, chains, std::move(view),
                                             std::move(plan));
  const Epoch stored = pipeline.run(sc.topo, chains, std::move(store));
  // The epoch keeps the store, and its classes are the store's view.
  EXPECT_EQ(stored.store.size(), stored.classes.size());
  EXPECT_EQ(stored.store.num_shards(), 8u);
  EXPECT_EQ(flat.store.size(), 0u);
  ASSERT_EQ(stored.classes.size(), flat.classes.size());
  for (std::size_t i = 0; i < flat.classes.size(); ++i) {
    EXPECT_EQ(stored.classes[i].id, flat.classes[i].id);
    EXPECT_EQ(stored.classes[i].path, flat.classes[i].path);
  }
  EXPECT_EQ(stored.plan.instance_count, flat.plan.instance_count);
  EXPECT_EQ(stored.inventory.by_node_type, flat.inventory.by_node_type);
  EXPECT_EQ(stored.rules.tcam_with_tagging, flat.rules.tcam_with_tagging);
  EXPECT_EQ(stored.rules.vswitch_rules, flat.rules.vswitch_rules);
}

TEST(EpochPipeline, StoreAdvanceCarriesIdsAndSkipsCleanShards) {
  const StoreScenario sc;
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall},
                                             {NfType::kNat, NfType::kIds}};
  const EpochPipeline pipeline(options_for(PlacementStrategy::kGreedy));
  const Epoch prev = pipeline.run(sc.topo, chains, sc.build(sc.base));
  const IncrementalEpoch inc =
      pipeline.advance(prev, sc.topo, chains, sc.build(sc.perturbed_shard0()));

  EXPECT_EQ(inc.class_delta.shards_dirty, 1u);
  EXPECT_EQ(inc.class_delta.shards_clean, 7u);
  EXPECT_TRUE(inc.class_delta.added.empty());
  EXPECT_TRUE(inc.class_delta.removed.empty());
  EXPECT_FALSE(inc.class_delta.rate_changed.empty());
  // Every class survives, so every class keeps its previous epoch's id —
  // in the store and in the materialized view alike.
  ASSERT_EQ(inc.epoch.classes.size(), prev.classes.size());
  for (std::size_t i = 0; i < prev.classes.size(); ++i) {
    EXPECT_EQ(inc.epoch.classes[i].id, prev.classes[i].id);
  }
  EXPECT_EQ(inc.epoch.store.size(), inc.epoch.classes.size());
  const std::vector<traffic::TrafficClass> stored =
      inc.epoch.store.materialize_view();
  for (std::size_t i = 0; i < prev.classes.size(); ++i) {
    EXPECT_EQ(stored[i].id, prev.classes[i].id);
  }
  EXPECT_EQ(inc.epoch.next_class_id, prev.next_class_id);
}

class PipelineStrategies
    : public ::testing::TestWithParam<PlacementStrategy> {};

TEST_P(PipelineStrategies, AdvanceOnIdenticalTrafficHasZeroChurn) {
  const net::Topology topo = middle_host_line();
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall},
                                             {NfType::kNat}};
  std::vector<traffic::TrafficClass> classes(2);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 500.0};
  classes[1] = {1, 0, 2, {0, 1, 2}, 1, 300.0};

  const EpochPipeline pipeline(options_for(GetParam()));
  const Epoch prev = pipeline.run(topo, chains, store_of(classes));
  const IncrementalEpoch inc =
      pipeline.advance(prev, topo, chains, store_of(classes));

  EXPECT_TRUE(inc.class_delta.empty());
  EXPECT_TRUE(inc.plan_delta.empty());
  EXPECT_TRUE(inc.rule_delta.empty());
  EXPECT_FALSE(inc.full_recompute);
  EXPECT_DOUBLE_EQ(inc.control_latency_s, 0.0);
  EXPECT_EQ(inc.epoch.plan.instance_count, prev.plan.instance_count);
  EXPECT_EQ(inc.epoch.inventory.by_node_type, prev.inventory.by_node_type);
  EXPECT_EQ(inc.epoch.next_instance_id, prev.next_instance_id);
  EXPECT_EQ(inc.epoch.next_class_id, prev.next_class_id);
}

INSTANTIATE_TEST_SUITE_P(Strategies, PipelineStrategies,
                         ::testing::Values(PlacementStrategy::kExact,
                                           PlacementStrategy::kLpRound,
                                           PlacementStrategy::kGreedy),
                         [](const auto& param_info) {
                           std::string name = to_string(param_info.param);
                           std::erase(name, '-');
                           return name;
                         });

// The churn-accounting scenario: one class triples its rate (one extra FW
// must launch), one class is removed and another added with the same NF
// demand (rules churn, instances do not).
TEST(EpochPipeline, ChurnAccountingIsExact) {
  const net::Topology topo = middle_host_line();
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall},
                                             {NfType::kNat}};
  std::vector<traffic::TrafficClass> prev_classes(2);
  prev_classes[0] = {0, 0, 2, {0, 1, 2}, 0, 500.0};  // 1 FW @ node 1
  prev_classes[1] = {1, 0, 2, {0, 1, 2}, 1, 300.0};  // 1 NAT @ node 1
  std::vector<traffic::TrafficClass> next_classes(2);
  next_classes[0] = {0, 0, 2, {0, 1, 2}, 0, 1500.0};  // now needs 2 FW
  next_classes[1] = {7, 2, 0, {2, 1, 0}, 1, 400.0};   // new NAT user

  const EpochPipeline pipeline(options_for(PlacementStrategy::kGreedy));
  const Epoch prev = pipeline.run(topo, chains, store_of(prev_classes));
  ASSERT_EQ(prev.plan.total_instances(), 2u);
  ASSERT_EQ(prev.next_instance_id, 3u);

  const IncrementalEpoch inc =
      pipeline.advance(prev, topo, chains, store_of(next_classes));
  EXPECT_EQ(inc.class_delta.rate_changed, (std::vector<std::size_t>{0}));
  EXPECT_EQ(inc.class_delta.added, (std::vector<std::size_t>{1}));
  EXPECT_EQ(inc.class_delta.removed, (std::vector<std::size_t>{1}));

  // Exactly one launch (the second firewall), nothing retired: the NAT
  // slot freed by the removed class is reused by the added one.
  EXPECT_EQ(inc.plan_delta.instances_launched, 1u);
  EXPECT_EQ(inc.plan_delta.instances_retired, 0u);
  EXPECT_EQ(inc.plan_delta.instances_reconfigured, 0u);
  ASSERT_EQ(inc.plan_delta.ops.size(), 1u);
  EXPECT_EQ(inc.plan_delta.ops[0].kind, InstanceOp::Kind::kLaunch);
  EXPECT_EQ(inc.plan_delta.ops[0].id, prev.next_instance_id);
  EXPECT_EQ(inc.plan_delta.ops[0].node, 1u);
  EXPECT_EQ(inc.plan_delta.ops[0].type, NfType::kFirewall);

  // Rule churn: the grown class reinstalls, the new class installs, the
  // removed class's rules go away.
  EXPECT_EQ(inc.rule_delta.reinstall.size(), 2u);
  EXPECT_EQ(inc.rule_delta.remove.size(), 1u);
  EXPECT_EQ(inc.rule_delta.remove[0], prev.classes[1].id);
  EXPECT_GT(inc.rule_delta.rules_installed, 0u);
  EXPECT_GT(inc.rule_delta.rules_removed, 0u);

  // Surviving classes keep their ids; the added class gets a fresh one.
  EXPECT_EQ(inc.epoch.classes[0].id, prev.classes[0].id);
  EXPECT_EQ(inc.epoch.classes[1].id, prev.next_class_id);
  EXPECT_EQ(inc.epoch.next_instance_id, prev.next_instance_id + 1);

  // ClickOS launch makespan plus three per-class rule updates.
  const orch::OrchestrationTimings timings;
  EXPECT_NEAR(inc.control_latency_s,
              timings.clickos_boot_openstack_mean() + 3 * timings.rule_install,
              1e-9);
}

// A freed ClickOS instance is repurposed (~30 ms) instead of a retire plus
// a multi-second OpenStack launch.
TEST(EpochPipeline, PrefersReconfigureOverLaunch) {
  const net::Topology topo = middle_host_line();
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall},
                                             {NfType::kNat}};
  std::vector<traffic::TrafficClass> prev_classes(2);
  prev_classes[0] = {0, 0, 2, {0, 1, 2}, 0, 500.0};  // 1 FW
  prev_classes[1] = {1, 0, 2, {0, 1, 2}, 1, 300.0};  // 1 NAT
  std::vector<traffic::TrafficClass> next_classes(1);
  next_classes[0] = {0, 0, 2, {0, 1, 2}, 0, 1300.0};  // 2 FW, NAT gone

  const EpochPipeline pipeline(options_for(PlacementStrategy::kGreedy));
  const Epoch prev = pipeline.run(topo, chains, store_of(prev_classes));
  const IncrementalEpoch inc =
      pipeline.advance(prev, topo, chains, store_of(next_classes));

  EXPECT_EQ(inc.plan_delta.instances_reconfigured, 1u);
  EXPECT_EQ(inc.plan_delta.instances_launched, 0u);
  EXPECT_EQ(inc.plan_delta.instances_retired, 0u);
  ASSERT_EQ(inc.plan_delta.ops.size(), 1u);
  const InstanceOp& op = inc.plan_delta.ops[0];
  EXPECT_EQ(op.kind, InstanceOp::Kind::kReconfigure);
  EXPECT_EQ(op.old_type, NfType::kNat);
  EXPECT_EQ(op.type, NfType::kFirewall);
  // Reconfigure keeps the NAT's id inside the FW bucket.
  const auto& fw_bucket = inc.epoch.inventory.at(1, NfType::kFirewall);
  EXPECT_NE(std::find(fw_bucket.begin(), fw_bucket.end(), op.id),
            fw_bucket.end());
  EXPECT_TRUE(inc.epoch.inventory.at(1, NfType::kNat).empty());
  // ~30 ms reconfigure + one rule reinstall + one rule removal.
  const orch::OrchestrationTimings timings;
  EXPECT_NEAR(inc.control_latency_s,
              timings.clickos_reconfigure + 2 * timings.rule_install, 1e-9);
}

TEST(EpochPipeline, ExactIncrementalMatchesFullObjective) {
  const net::Topology topo = net::make_star(4, 64.0);
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall}};
  std::vector<traffic::TrafficClass> prev_classes(2);
  prev_classes[0] = {0, 1, 2, {1, 0, 2}, 0, 450.0};
  prev_classes[1] = {1, 3, 4, {3, 0, 4}, 0, 450.0};
  std::vector<traffic::TrafficClass> next_classes = prev_classes;
  next_classes[0].rate_mbps = 500.0;
  next_classes[1].rate_mbps = 550.0;

  const EpochPipeline pipeline(options_for(PlacementStrategy::kExact));
  const Epoch prev = pipeline.run(topo, chains, store_of(prev_classes));
  ASSERT_EQ(prev.plan.total_instances(), 1u);  // pooled hub firewall

  const IncrementalEpoch inc =
      pipeline.advance(prev, topo, chains, store_of(next_classes));
  const Epoch full = pipeline.run(topo, chains, store_of(next_classes));

  // kExact re-proves optimality on the incremental path: same objective
  // and a valid plan, with the incumbent seeded from the previous epoch.
  EXPECT_EQ(inc.epoch.plan.total_instances(), full.plan.total_instances());
  EXPECT_EQ(inc.epoch.plan.total_instances(), 2u);
  const PlacementInput input =
      make_input(topo, inc.epoch.classes, chains);
  EXPECT_EQ(check_plan(input, inc.epoch.plan), "");
  EXPECT_FALSE(inc.full_recompute);
}

TEST(EpochPipeline, GreedyAndLpRoundIncrementalStayFeasible) {
  for (const PlacementStrategy strategy :
       {PlacementStrategy::kGreedy, PlacementStrategy::kLpRound}) {
    const net::Topology topo = net::make_grid(2, 3, 64.0);
    const net::AllPairsPaths routing(topo);
    const std::vector<vnf::PolicyChain> chains{
        {NfType::kFirewall}, {NfType::kFirewall, NfType::kNat}};
    std::vector<traffic::TrafficClass> prev_classes;
    const std::array<std::pair<net::NodeId, net::NodeId>, 4> pairs{
        {{0, 5}, {1, 4}, {2, 3}, {5, 0}}};
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      traffic::TrafficClass cls;
      cls.id = static_cast<traffic::ClassId>(k);
      cls.src = pairs[k].first;
      cls.dst = pairs[k].second;
      cls.path = *routing.path(cls.src, cls.dst);
      cls.chain_id = static_cast<traffic::ChainId>(k % chains.size());
      cls.rate_mbps = 300.0 + 100.0 * static_cast<double>(k);
      prev_classes.push_back(cls);
    }
    std::vector<traffic::TrafficClass> next_classes = prev_classes;
    next_classes[0].rate_mbps *= 1.8;   // dirty
    next_classes[1].rate_mbps *= 1.02;  // pinned
    next_classes.pop_back();            // removed

    const EpochPipeline pipeline(options_for(strategy));
    const Epoch prev = pipeline.run(topo, chains, store_of(prev_classes));
    const IncrementalEpoch inc =
        pipeline.advance(prev, topo, chains, store_of(next_classes));
    const Epoch full = pipeline.run(topo, chains, store_of(next_classes));

    const PlacementInput input =
        make_input(topo, inc.epoch.classes, chains);
    EXPECT_EQ(check_plan(input, inc.epoch.plan), "")
        << to_string(strategy);
    // No consolidation on the incremental path, so it may keep a little
    // more capacity around — but never pathologically more than a full
    // re-solve of the same snapshot.
    EXPECT_LE(inc.epoch.plan.total_instances(),
              2 * full.plan.total_instances() + 2)
        << to_string(strategy);
    // Pinned classes keep their distributions verbatim.
    EXPECT_EQ(inc.class_delta.rate_changed, (std::vector<std::size_t>{0}));
    EXPECT_EQ(inc.class_delta.unchanged, (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(inc.class_delta.removed, (std::vector<std::size_t>{3}));
    for (const std::size_t h : inc.class_delta.unchanged) {
      const std::size_t p = inc.class_delta.prev_of[h];
      EXPECT_EQ(inc.epoch.plan.distribution[h], prev.plan.distribution[p])
          << to_string(strategy);
    }
  }
}

TEST(EpochPipeline, AppliedRuleDeltaMatchesFreshInstall) {
  const net::Topology topo = middle_host_line();
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall},
                                             {NfType::kNat}};
  std::vector<traffic::TrafficClass> prev_classes(2);
  prev_classes[0] = {0, 0, 2, {0, 1, 2}, 0, 500.0};
  prev_classes[1] = {1, 0, 2, {0, 1, 2}, 1, 300.0};
  std::vector<traffic::TrafficClass> next_classes(2);
  next_classes[0] = {0, 0, 2, {0, 1, 2}, 0, 1500.0};
  next_classes[1] = {7, 2, 0, {2, 1, 0}, 1, 400.0};

  const EpochPipeline pipeline(options_for(PlacementStrategy::kGreedy));
  const Epoch prev = pipeline.run(topo, chains, store_of(prev_classes));
  const IncrementalEpoch inc =
      pipeline.advance(prev, topo, chains, store_of(next_classes));

  dataplane::DataPlane fresh(topo);
  install_epoch(inc.epoch, fresh);

  dataplane::DataPlane patched(topo);
  install_epoch(prev, patched);
  const PlacementInput next_input =
      make_input(topo, inc.epoch.classes, chains);
  apply_rule_delta(next_input, inc.epoch.subclasses, inc.plan_delta,
                   inc.rule_delta, patched);

  expect_same_dataplane(fresh, patched, inc.epoch.inventory);
}

TEST(EpochPipeline, FallsBackToFullRecomputeWhenResidualFillFails) {
  // Host cores sized so the previous placement fits but the grown demand
  // cannot be packed incrementally around the pinned NAT (FW needs 4
  // cores; 2 FW + 1 NAT = 10 > 8): the full recompute must take over, and
  // here even it is infeasible, so advance throws.
  net::Topology topo = net::make_line(3, 8.0);
  topo.node(0).host_cores = 0.0;
  topo.node(2).host_cores = 0.0;
  const std::vector<vnf::PolicyChain> chains{{NfType::kFirewall},
                                             {NfType::kNat}};
  std::vector<traffic::TrafficClass> prev_classes(2);
  prev_classes[0] = {0, 0, 2, {0, 1, 2}, 0, 500.0};
  prev_classes[1] = {1, 0, 2, {0, 1, 2}, 1, 300.0};
  std::vector<traffic::TrafficClass> next_classes = prev_classes;
  next_classes[0].rate_mbps = 1500.0;  // needs a second FW: no cores left

  const EpochPipeline pipeline(options_for(PlacementStrategy::kGreedy));
  const Epoch prev = pipeline.run(topo, chains, store_of(prev_classes));
  EXPECT_THROW(pipeline.advance(prev, topo, chains, store_of(next_classes)),
               std::runtime_error);
}

TEST(DiffPlans, RetireAndLaunchForNonClickosTypes) {
  // Proxy -> IDS shift: neither is ClickOS, so no reconfigure pairing.
  PlacementPlan prev;
  prev.feasible = true;
  prev.instance_count.assign(1, {});
  prev.instance_count[0][static_cast<std::size_t>(NfType::kProxy)] = 1;
  PlacementPlan next = prev;
  next.instance_count[0][static_cast<std::size_t>(NfType::kProxy)] = 0;
  next.instance_count[0][static_cast<std::size_t>(NfType::kIds)] = 1;
  InstanceInventory inventory;
  inventory.by_node_type.assign(1, {});
  inventory.by_node_type[0][static_cast<std::size_t>(NfType::kProxy)] = {4};

  const PlanDelta delta = diff_plans(prev, inventory, next, {}, 9);
  ASSERT_EQ(delta.ops.size(), 2u);
  EXPECT_EQ(delta.ops[0].kind, InstanceOp::Kind::kRetire);
  EXPECT_EQ(delta.ops[0].id, 4u);
  EXPECT_EQ(delta.ops[1].kind, InstanceOp::Kind::kLaunch);
  EXPECT_EQ(delta.ops[1].id, 9u);
  EXPECT_EQ(delta.ops[1].type, NfType::kIds);

  const InstanceInventory advanced = advance_inventory(inventory, delta);
  EXPECT_TRUE(
      advanced.by_node_type[0][static_cast<std::size_t>(NfType::kProxy)]
          .empty());
  EXPECT_EQ(
      advanced.by_node_type[0][static_cast<std::size_t>(NfType::kIds)],
      (std::vector<vnf::InstanceId>{9}));
}

TEST(DiffPlans, SurvivorsKeepFrontOfBucket) {
  // Shrinking from 3 FW to 1 retires the back two ids; the front id (the
  // one surviving sub-class plans point at) stays.
  PlacementPlan prev;
  prev.feasible = true;
  prev.instance_count.assign(1, {});
  prev.instance_count[0][0] = 3;
  PlacementPlan next = prev;
  next.instance_count[0][0] = 1;
  InstanceInventory inventory;
  inventory.by_node_type.assign(1, {});
  inventory.by_node_type[0][0] = {1, 2, 3};

  const PlanDelta delta = diff_plans(prev, inventory, next, {}, 4);
  EXPECT_EQ(delta.instances_retired, 2u);
  ASSERT_EQ(delta.ops.size(), 2u);
  EXPECT_EQ(delta.ops[0].id, 2u);
  EXPECT_EQ(delta.ops[1].id, 3u);
  const InstanceInventory advanced = advance_inventory(inventory, delta);
  EXPECT_EQ(advanced.by_node_type[0][0],
            (std::vector<vnf::InstanceId>{1}));
}

TEST(ModeledControlLatency, ParallelBootsPlusSerialRuleInstalls) {
  const orch::OrchestrationTimings timings;
  PlanDelta delta;
  InstanceOp launch;
  launch.kind = InstanceOp::Kind::kLaunch;
  launch.type = NfType::kProxy;  // full VM: 30 s boot dominates
  delta.ops.push_back(launch);
  InstanceOp reconf;
  reconf.kind = InstanceOp::Kind::kReconfigure;
  reconf.type = NfType::kFirewall;
  delta.ops.push_back(reconf);
  EXPECT_NEAR(modeled_control_latency(delta, 2, timings),
              timings.normal_vm_boot + 2 * timings.rule_install, 1e-12);
  EXPECT_NEAR(modeled_control_latency({}, 0, timings), 0.0, 1e-12);
}

}  // namespace
}  // namespace apple::core
