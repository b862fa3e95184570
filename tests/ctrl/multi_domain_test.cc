#include "ctrl/multi_domain.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/epoch_pipeline.h"
#include "exec/thread_pool.h"
#include "fault/recovery_monitor.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "traffic/flow_classes.h"
#include "traffic/synthesis.h"
#include "vnf/nf_types.h"

namespace apple::ctrl {
namespace {

using vnf::NfType;

// Two triangles {0,1,2} and {3,4,5} joined by the cut link 2-3; every
// switch has an APPLE host big enough for any single instance.
net::Topology two_triangles(double host_cores = 16.0) {
  net::Topology topo("two-triangles");
  for (int i = 0; i < 6; ++i) {
    topo.add_node("n" + std::to_string(i), host_cores);
  }
  topo.add_link(0, 1);
  topo.add_link(1, 2);
  topo.add_link(0, 2);
  topo.add_link(3, 4);
  topo.add_link(4, 5);
  topo.add_link(3, 5);
  topo.add_link(2, 3);  // the cut
  return topo;
}

DomainPartition triangle_partition() {
  DomainPartition part;
  part.num_domains = 2;
  part.domain_of = {0, 0, 0, 1, 1, 1};
  part.members = {{0, 1, 2}, {3, 4, 5}};
  part.cut_links = {6};
  return part;
}

// One single-NF chain per class, all distinct types: no instance pooling is
// possible across classes, so the multi-domain objective must equal the
// single-controller objective exactly.
std::vector<vnf::PolicyChain> distinct_chains() {
  return {{NfType::kFirewall}, {NfType::kNat}, {NfType::kIds}};
}

traffic::TrafficClass make_class(const net::AllPairsPaths& routing,
                                 net::NodeId src, net::NodeId dst,
                                 traffic::ChainId chain, double rate) {
  traffic::TrafficClass cls;
  cls.src = src;
  cls.dst = dst;
  cls.chain_id = chain;
  cls.rate_mbps = rate;
  cls.path = *routing.path(src, dst);
  return cls;
}

// A class per domain plus one whose path spans the cut (homed at domain 0
// by the ingress rule), in ascending (src, dst) order.
std::vector<traffic::TrafficClass> triangle_classes(
    const net::AllPairsPaths& routing) {
  return {
      make_class(routing, 0, 2, 0, 500.0),  // domain 0 local, firewall
      make_class(routing, 1, 4, 2, 500.0),  // crosses the cut, IDS
      make_class(routing, 3, 5, 1, 500.0),  // domain 1 local, NAT
  };
}

void expect_zero_violations(const MultiDomainController& controller,
                            fault::RecoveryMonitor& monitor) {
  for (std::size_t d = 0; d < controller.num_domains(); ++d) {
    const auto probes = controller.probes_for_domain(d);
    monitor.verify_policies(controller.domain_dataplane(d), probes);
  }
  EXPECT_EQ(monitor.policy_violations(), 0u);
}

TEST(MultiDomainTest, ReconciledPlanMatchesSingleControllerObjective) {
  const net::Topology topo = two_triangles();
  const auto chains = distinct_chains();
  const net::AllPairsPaths routing(topo);
  const auto classes = triangle_classes(routing);

  const core::EpochPipeline pipeline;
  const core::Epoch single =
      pipeline.run(topo, chains, traffic::build_class_store(classes));

  MultiDomainController controller(topo, chains, triangle_partition(),
                                   DomainConfig{2});
  const ApplyReport report = controller.initialize(classes);

  EXPECT_EQ(controller.total_classes(), classes.size());
  EXPECT_EQ(controller.total_instances(), single.plan.total_instances());
  EXPECT_EQ(report.conflicts, 0u);
  // The cross-cut class is homed at domain 0 and counted as cross-domain.
  EXPECT_EQ(controller.domain_status(0).classes, 2u);
  EXPECT_EQ(controller.domain_status(0).cross_domain_classes, 1u);
  EXPECT_EQ(controller.domain_status(1).classes, 1u);
}

TEST(MultiDomainTest, NoWrongChainServedMidReconcile) {
  const net::Topology topo = two_triangles();
  const auto chains = distinct_chains();
  const net::AllPairsPaths routing(topo);

  MultiDomainController controller(topo, chains, triangle_partition(),
                                   DomainConfig{2});
  fault::RecoveryMonitor monitor;
  std::vector<std::string> phases;
  controller.set_phase_observer([&](std::string_view phase) {
    phases.emplace_back(phase);
    // Whatever phase the commit is in, the serving data planes must only
    // ever answer probes with the exact policied chain.
    expect_zero_violations(controller, monitor);
  });

  controller.initialize(triangle_classes(routing));
  ASSERT_EQ(phases, (std::vector<std::string>{"proposed", "reconciled",
                                              "committed"}));

  // An admission batch touching both domains: a new cross-cut class plus a
  // rate change on an existing one.
  PolicyBatch batch;
  batch.per_domain.resize(2);
  PolicyRequest add;
  add.kind = PolicyRequest::Kind::kAdd;
  add.src = 2;
  add.dst = 5;
  add.chain_id = 0;
  add.rate_mbps = 300.0;
  batch.per_domain[0].push_back(add);
  PolicyRequest modify;
  modify.kind = PolicyRequest::Kind::kModify;
  modify.src = 3;
  modify.dst = 5;
  modify.chain_id = 1;
  modify.rate_mbps = 800.0;
  batch.per_domain[1].push_back(modify);
  batch.accepted = 2;

  phases.clear();
  const ApplyReport report = controller.apply(batch);
  ASSERT_EQ(phases, (std::vector<std::string>{"proposed", "reconciled",
                                              "committed"}));
  EXPECT_EQ(report.requests_applied, 2u);
  EXPECT_EQ(report.domains_dirty, 2u);
  EXPECT_EQ(controller.total_classes(), 4u);

  // Post-commit: the new state serves, still violation-free, and probes
  // actually traverse chains (they are delivered, not blackholed).
  expect_zero_violations(controller, monitor);
  const fault::RecoveryReport recovery = monitor.report();
  EXPECT_GT(recovery.policy_probes, 0u);
  EXPECT_EQ(recovery.policy_violations, 0u);
  EXPECT_EQ(recovery.blackholed_probes, 0u);
}

TEST(MultiDomainTest, ByteIdenticalAcrossWorkerCounts) {
  const net::Topology topo = net::make_internet2();
  const auto chains = vnf::scaled_policy_chains(8);
  const net::AllPairsPaths routing(topo);
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = 16000.0});
  const auto assignment = traffic::uniform_chain_assignment(8, 7, 0.5);
  const auto classes =
      traffic::build_classes(topo, routing, tm, assignment);

  // The same bring-up plus one batch, at several pool widths: every
  // artifact must be byte-identical (the determinism contract).
  PolicyBatch batch;
  batch.per_domain.resize(3);
  for (net::NodeId src = 0; src < 6; ++src) {
    PolicyRequest r;
    r.kind = src % 2 == 0 ? PolicyRequest::Kind::kAdd
                          : PolicyRequest::Kind::kRemove;
    r.src = src;
    r.dst = static_cast<net::NodeId>(src + 3);
    r.chain_id = src % 8;
    r.rate_mbps = 120.0 + 10.0 * src;
    batch.accepted += 1;
    batch.per_domain[0].push_back(r);  // re-bucketed below
  }
  // Route requests to their true home domains.
  const DomainPartition part = partition_topology(topo, 3, 11);
  PolicyBatch routed;
  routed.per_domain.resize(3);
  routed.accepted = batch.accepted;
  for (const PolicyRequest& r : batch.per_domain[0]) {
    routed.per_domain[part.home_domain(r.src)].push_back(r);
  }

  std::vector<std::uint64_t> fingerprints;
  for (const std::size_t workers : {0u, 1u, 3u, 7u}) {
    exec::ThreadPool pool(workers);
    MultiDomainController controller(topo, chains, DomainConfig{3, 11},
                                     core::PipelineOptions{}, &pool);
    controller.initialize(classes);
    controller.apply(routed);
    fingerprints.push_back(controller.fingerprint());
  }
  for (std::size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[0], fingerprints[i]) << "worker set " << i;
  }
}

// Conflict fixture: a line 0-1-2-3-4-5 cut into {0,1,2} | {3,4,5} where
// the only hosts sit at nodes 3 (4 cores = one firewall) and 5 (4 cores).
// Domain 0's cross-cut class is forced onto node 3; a class added to
// domain 1 later prefers node 3 too (popularity tie breaks toward the
// earliest path position), so its proposal always collides.
struct ConflictFixture {
  net::Topology topo{"conflict-line"};
  std::vector<vnf::PolicyChain> chains{{NfType::kFirewall}};
  DomainPartition part;

  ConflictFixture() {
    for (int i = 0; i < 6; ++i) {
      const double cores = (i == 3 || i == 5) ? 4.0 : 0.0;
      topo.add_node("n" + std::to_string(i), cores);
    }
    for (net::NodeId v = 0; v + 1 < 6; ++v) topo.add_link(v, v + 1);
    part.num_domains = 2;
    part.domain_of = {0, 0, 0, 1, 1, 1};
    part.members = {{0, 1, 2}, {3, 4, 5}};
    part.cut_links = {2};
  }

  PolicyBatch conflicting_batch() const {
    PolicyBatch batch;
    batch.per_domain.resize(2);
    PolicyRequest add;
    add.kind = PolicyRequest::Kind::kAdd;
    add.src = 3;
    add.dst = 5;
    add.chain_id = 0;
    add.rate_mbps = 800.0;
    batch.per_domain[1].push_back(add);
    batch.accepted = 1;
    return batch;
  }
};

TEST(MultiDomainTest, ConflictIsResolvedOverResidualBudgets) {
  ConflictFixture f;
  MultiDomainController controller(f.topo, f.chains, f.part,
                                   DomainConfig{2});
  const net::AllPairsPaths routing(f.topo);
  // The cross-cut class saturates node 3 (its only on-path host).
  controller.initialize({make_class(routing, 2, 3, 0, 800.0)});
  ASSERT_EQ(controller.domain_epoch(0).plan.instances_of(3, NfType::kFirewall),
            1u);

  const ApplyReport report = controller.apply(f.conflicting_batch());
  EXPECT_EQ(report.conflicts, 1u);
  EXPECT_EQ(report.rejected_domains, 0u);
  EXPECT_EQ(report.requests_applied, 1u);
  // The re-solve against the residual ledger lands the instance at node 5.
  const core::PlacementPlan& plan = controller.domain_epoch(1).plan;
  EXPECT_EQ(plan.instances_of(3, NfType::kFirewall), 0u);
  EXPECT_EQ(plan.instances_of(5, NfType::kFirewall), 1u);
  EXPECT_EQ(controller.domain_status(1).conflicts, 1u);

  // Combined load respects every node budget.
  std::vector<double> used(f.topo.num_nodes(), 0.0);
  for (std::size_t d = 0; d < 2; ++d) {
    const core::PlacementPlan& p = controller.domain_epoch(d).plan;
    for (net::NodeId v = 0; v < f.topo.num_nodes(); ++v) {
      for (std::size_t t = 0; t < vnf::kNumNfTypes; ++t) {
        used[v] += p.instance_count[v][t] *
                   vnf::spec_of(static_cast<NfType>(t)).cores_required;
      }
    }
  }
  for (net::NodeId v = 0; v < f.topo.num_nodes(); ++v) {
    EXPECT_LE(used[v], f.topo.node(v).host_cores + 1e-9) << "node " << v;
  }

  fault::RecoveryMonitor monitor;
  expect_zero_violations(controller, monitor);
}

// With node 5 at 0 cores the re-solve over the residual budgets has no host
// left either, so the conflicted domain bounces back to its previous epoch.
TEST(MultiDomainTest, ConflictRejectKeepsPreviousEpochServing) {
  ConflictFixture f;
  f.topo.node(5).host_cores = 0.0;
  MultiDomainController controller(f.topo, f.chains, f.part,
                                   DomainConfig{2});
  const net::AllPairsPaths routing(f.topo);
  controller.initialize({make_class(routing, 2, 3, 0, 800.0)});

  const ApplyReport report = controller.apply(f.conflicting_batch());
  EXPECT_EQ(report.conflicts, 1u);
  EXPECT_EQ(report.rejected_domains, 1u);
  // Domain 1 was bounced: it still serves its previous (empty) epoch.
  EXPECT_EQ(controller.domain_epoch(1).classes.size(), 0u);
  EXPECT_EQ(controller.domain_status(1).epochs, 1u);
  EXPECT_EQ(controller.total_instances(), 1u);

  fault::RecoveryMonitor monitor;
  expect_zero_violations(controller, monitor);
}

// Whole-epoch equality: classes (ids, keys, paths, rate bits), the plan's
// instance counts and distributions, the inventory, every sub-class plan
// and both id counters.
void expect_same_epoch(const core::Epoch& a, const core::Epoch& b) {
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t h = 0; h < a.classes.size(); ++h) {
    EXPECT_EQ(a.classes[h].id, b.classes[h].id) << "class " << h;
    EXPECT_EQ(a.classes[h].src, b.classes[h].src) << "class " << h;
    EXPECT_EQ(a.classes[h].dst, b.classes[h].dst) << "class " << h;
    EXPECT_EQ(a.classes[h].chain_id, b.classes[h].chain_id) << "class " << h;
    EXPECT_EQ(a.classes[h].path, b.classes[h].path) << "class " << h;
    EXPECT_EQ(a.classes[h].rate_mbps, b.classes[h].rate_mbps) << "class " << h;
  }
  EXPECT_EQ(a.store.num_shards(), b.store.num_shards());
  EXPECT_EQ(a.store.fingerprint(), b.store.fingerprint());
  EXPECT_EQ(a.plan.instance_count, b.plan.instance_count);
  EXPECT_EQ(a.plan.distribution, b.plan.distribution);
  EXPECT_EQ(a.inventory.by_node_type, b.inventory.by_node_type);
  ASSERT_EQ(a.subclasses.size(), b.subclasses.size());
  for (std::size_t h = 0; h < a.subclasses.size(); ++h) {
    ASSERT_EQ(a.subclasses[h].size(), b.subclasses[h].size()) << "class " << h;
    for (std::size_t s = 0; s < a.subclasses[h].size(); ++s) {
      const dataplane::SubclassPlan& pa = a.subclasses[h][s];
      const dataplane::SubclassPlan& pb = b.subclasses[h][s];
      EXPECT_EQ(pa.class_id, pb.class_id);
      EXPECT_EQ(pa.subclass_id, pb.subclass_id);
      EXPECT_EQ(pa.weight, pb.weight);
      EXPECT_EQ(pa.classifier_prefix_rules, pb.classifier_prefix_rules);
      ASSERT_EQ(pa.itinerary.size(), pb.itinerary.size());
      for (std::size_t i = 0; i < pa.itinerary.size(); ++i) {
        EXPECT_EQ(pa.itinerary[i].at_switch, pb.itinerary[i].at_switch);
        EXPECT_EQ(pa.itinerary[i].instances, pb.itinerary[i].instances);
      }
    }
  }
  EXPECT_EQ(a.next_instance_id, b.next_instance_id);
  EXPECT_EQ(a.next_class_id, b.next_class_id);
}

// K = 1 differential: one domain owns every class, so the controller's
// bring-up and commit must reproduce a single EpochPipeline over the same
// one-shard store epoch for epoch — through bring-up and one batch that
// modifies, removes and adds a class.
TEST(MultiDomainTest, SingleDomainMatchesSingleEpochPipeline) {
  const net::Topology topo = net::make_internet2();
  const auto chains = vnf::scaled_policy_chains(8);
  const net::AllPairsPaths routing(topo);
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = 16000.0});
  const auto classes = traffic::build_classes(
      topo, routing, tm, traffic::uniform_chain_assignment(8, 7, 0.5));
  ASSERT_GE(classes.size(), 3u);

  MultiDomainController controller(topo, chains, DomainConfig{1});
  controller.initialize(classes);

  // The controller sorts its domain's classes by (src, dst, chain) and
  // numbers them densely; build_classes already emits that order.
  std::vector<traffic::TrafficClass> sorted = classes;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    sorted[i].id = static_cast<traffic::ClassId>(i);
  }
  const core::EpochPipeline pipeline;
  const core::Epoch single =
      pipeline.run(topo, chains, traffic::build_class_store(sorted));
  expect_same_epoch(controller.domain_epoch(0), single);

  // One batch: double the first class's rate, remove the second, and add a
  // second chain to the third's pair (one chain per pair before).
  PolicyBatch batch;
  batch.per_domain.resize(1);
  const auto request = [](PolicyRequest::Kind kind,
                          const traffic::TrafficClass& cls,
                          traffic::ChainId chain, double rate) {
    PolicyRequest r;
    r.kind = kind;
    r.src = cls.src;
    r.dst = cls.dst;
    r.chain_id = chain;
    r.rate_mbps = rate;
    return r;
  };
  const traffic::TrafficClass& grown = sorted[0];
  const traffic::TrafficClass& gone = sorted[1];
  const traffic::TrafficClass& host = sorted[2];
  const traffic::ChainId fresh = (host.chain_id + 1) % 8;
  batch.per_domain[0] = {
      request(PolicyRequest::Kind::kModify, grown, grown.chain_id,
              2.0 * grown.rate_mbps),
      request(PolicyRequest::Kind::kRemove, gone, gone.chain_id, 0.0),
      request(PolicyRequest::Kind::kAdd, host, fresh, 250.0)};
  batch.accepted = 3;
  const ApplyReport report = controller.apply(batch);
  ASSERT_EQ(report.requests_applied, 3u);
  ASSERT_EQ(report.rejected_domains, 0u);

  // The same edits on the single pipeline's classes, kept key-sorted.
  std::vector<traffic::TrafficClass> next = single.classes;
  next[0].rate_mbps = 2.0 * grown.rate_mbps;
  traffic::TrafficClass added = host;
  added.chain_id = fresh;
  added.rate_mbps = 250.0;
  next.insert(next.begin() + (host.chain_id < fresh ? 3 : 2), added);
  next.erase(next.begin() + 1);
  const core::IncrementalEpoch inc =
      pipeline.advance(single, topo, chains, traffic::build_class_store(next));
  EXPECT_EQ(inc.class_delta.added.size(), 1u);
  EXPECT_EQ(inc.class_delta.removed.size(), 1u);
  EXPECT_EQ(inc.class_delta.rate_changed.size(), 1u);
  expect_same_epoch(controller.domain_epoch(0), inc.epoch);
}

TEST(MultiDomainTest, ApplyEmptyBatchLeavesEveryDomainClean) {
  const net::Topology topo = two_triangles();
  const auto chains = distinct_chains();
  const net::AllPairsPaths routing(topo);
  MultiDomainController controller(topo, chains, triangle_partition(),
                                   DomainConfig{2});
  controller.initialize(triangle_classes(routing));
  const std::uint64_t before = controller.fingerprint();

  PolicyBatch batch;
  batch.per_domain.resize(2);
  const ApplyReport report = controller.apply(batch);
  EXPECT_EQ(report.domains_dirty, 0u);
  EXPECT_EQ(report.domains_clean, 2u);
  EXPECT_EQ(controller.fingerprint(), before);
}

}  // namespace
}  // namespace apple::ctrl
